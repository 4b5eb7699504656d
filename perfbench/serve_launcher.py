"""Traced stand-in for ``repro serve``, used only by the serve workload's
traced run.

It builds the same ``AggressionServer`` with the CLI's defaults, wraps the
server's public calls with spans, serves until SIGTERM, and writes its
spans once the drain is complete:

    python3 perfbench/serve_launcher.py STORE --port PORT --trace-dir DIR
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from spans import Recorder


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("store")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args(argv)

    import repro.core.features as features
    import repro.serve.server as server_module
    from repro.obs.logconfig import configure_logging
    from repro.serve.model import ServingModel
    from repro.serve.snapshot import SnapshotStore

    configure_logging()
    recorder = Recorder(args.trace_dir)
    store = SnapshotStore(args.store)
    recorder.patch(store, "load_latest_verified", "serve.snapshot.load")

    def build_model(payload):
        # Every live model gets its scoring layers traced as it loads.
        model = ServingModel(payload)
        recorder.patch(model.extractor, "extract", "core.features.extract")
        recorder.patch(model.normalizer, "transform",
                       "core.normalization.transform")
        recorder.patch(model.model, "predict_proba_one",
                       "streamml.predict_proba_one")
        return model

    server_module.ServingModel = recorder.wrap(
        build_model, "serve.snapshot.build"
    )
    recorder.patch(features, "analyze", "text.analyze")
    recorder.patch(ServingModel, "classify", "serve.model.classify")
    recorder.patch(ServingModel, "explain", "serve.model.explain")
    recorder.patch(server_module, "tweet_from_payload",
                   "serve.tweet_from_payload")
    server = server_module.AggressionServer(store, port=args.port)
    server.admission.acquire = recorder.wrap_async(
        server.admission.acquire, "serve.admission.acquire"
    )
    asyncio.run(server.serve_forever())
    recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
