"""Workload ``serve``: the real ``repro serve`` under open-loop load.

The server runs in its own process over a snapshot store filled at
set-up. This process is the load generator: it sends a Poisson schedule
at a fixed rate over one persistent JSONL session per visible core,
with non-blocking writes and replies matched to requests in order. Most
requests are ``classify``; a fixed share are ``explain``, and a fixed
share carry a deadline too short for full fidelity. A helper
process publishes a new snapshot at a fixed cadence, so hot swaps happen
beside the reads. Model and normalizer are read-only here (transform and
predict, no observe or learn): the opposite use of the layers that
``prequential`` writes, and the only workload that exercises admission,
the server loop and snapshot loading.

After a warm-up, the run is a few rounds of an open-loop segment then a
burst that pipelines a fixed number of requests to measure capacity.
Spreading the bursts over the run, and taking the median burst, keeps
capacity from hanging on the host's speed in one moment. Latency runs
from each request's due time to its reply. ``verdict_p99_ms`` is the
median over one-second windows of each window's p99: on a shared 2-core
host, stalls of the whole machine (tens of ms, about one a second) reach
about 1% of requests, so a p99 over the whole run measures how often the
host stalled; the median window shows the server's own tail.
"""

from __future__ import annotations

import gc
import json
import random
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from harness import (
    BenchError, Child, child_env, free_port, peak_rss_mb, percentile,
    poisson_arrivals, read_json, stop_process, visible_cores, write_json,
    ROOT,
)
from spans import LayerTotals

#: Offered rate of the open-loop segments: under a fifth of what one
#: server process sustains on a 2-core host. Near half of capacity the
#: queueing amplifies every swing in host speed into the tail.
RATE_RPS = 500.0
EXPLAIN_SHARE = 0.1
#: Share of requests whose deadline is shorter than a full-fidelity
#: classify (about 0.2 ms), so the server's degrade ladder answers them.
TIGHT_SHARE = 0.05
TIGHT_DEADLINE_MS = 0.1
PUBLISH_EVERY_S = 2.0
WARMUP_S = 1.0
ROUNDS = 5
BURST_REQUESTS = 2400
#: Distinct tweets the requests draw from; each is verified once per
#: snapshot and tier it was served with.
POOL_TWEETS = 2000
TRAIN_TWEETS = 2000
#: Spans the server records on the request path; serve.other_s is what
#: client latency spends outside them.
REQUEST_SPANS = (
    "serve.admission.acquire", "serve.tweet_from_payload",
    "serve.model.classify", "serve.model.explain",
)
PHASE_KINDS = ("warmup", "open", "burst")


# -- inputs -------------------------------------------------------------


def _request(op: str, body: Dict, tight_deadline: bool) -> bytes:
    request = {"op": op, "tweet": body}
    if tight_deadline:
        request["deadline_ms"] = TIGHT_DEADLINE_MS
    return json.dumps(request, separators=(",", ":")).encode("utf-8") + b"\n"


def prepare(seed: int, seconds: int, work: Path) -> Dict:
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import AggressionDetectionPipeline
    from repro.data.synthetic import AbusiveDatasetGenerator
    from repro.serve.snapshot import payload_from_source

    # Two snapshots: a model trained on the first half of a labeled
    # stream, and the same model after the second half.
    training = list(AbusiveDatasetGenerator(
        n_tweets=2 * TRAIN_TWEETS, seed=seed).generate())
    pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=3))
    payload_paths = []
    for index in range(2):
        for tweet in training[index * TRAIN_TWEETS:(index + 1) * TRAIN_TWEETS]:
            pipeline.process(tweet)
        path = work / f"payload-{index}.json"
        write_json(path, payload_from_source(pipeline))
        payload_paths.append(str(path))
    pool = list(AbusiveDatasetGenerator(
        n_tweets=POOL_TWEETS, seed=seed + 7919).generate())
    bodies = []
    for tweet in pool:
        body = tweet.to_json()
        body.pop("label", None)
        bodies.append(body)
    rng = random.Random(seed)
    # Each open segment has a schedule of its own, seeded from the run's.
    plan = [("warmup", poisson_arrivals(RATE_RPS, WARMUP_S, seed))]
    for round_ in range(1, ROUNDS + 1):
        plan.append(("open", poisson_arrivals(
            RATE_RPS, seconds / ROUNDS, seed * (ROUNDS + 1) + round_)))
        plan.append(("burst", [0.0] * BURST_REQUESTS))
    phases = []
    for kind, dues in plan:
        ops = ["explain" if rng.random() < EXPLAIN_SHARE else "classify"
               for _ in dues]
        tweet_ids = [rng.randrange(POOL_TWEETS) for _ in dues]
        tight = [rng.random() < TIGHT_SHARE for _ in dues]
        lines = [_request(op, bodies[i], deadline)
                 for op, i, deadline in zip(ops, tweet_ids, tight)]
        phases.append({"kind": kind, "dues": dues, "ops": ops,
                       "tweets": tweet_ids, "lines": lines})
    return {
        "work": str(work),
        # Short runs publish more often, so every run serves both models.
        "publish_every_s": min(PUBLISH_EVERY_S, seconds / 2),
        "payloads": payload_paths,
        "pool": [tweet.to_json() for tweet in pool],
        "truth": [tweet.label for tweet in pool],
        "phases": phases,
    }


# -- load generator -----------------------------------------------------


def _drive(socks: List[socket.socket], phase: Dict, timeout_s: float
           ) -> Dict:
    """Send one phase on its schedule; read replies in order.

    Requests go to the sessions round-robin. A request is written when
    it is due whatever the server is doing; the generator never waits
    for a reply before sending. Replies are kept raw and parsed after
    the phase, so the generator's own work stays small.
    """
    dues_rel, lines = phase["dues"], phase["lines"]
    n, k = len(lines), len(socks)
    sent = [0.0] * n
    received: List[Optional[float]] = [None] * n
    replies: List[Optional[bytes]] = [None] * n
    outbox = [bytearray() for _ in socks]
    waiting: List[List[int]] = [[] for _ in socks]
    heads = [0] * k
    inbox = [b""] * k
    fds = {sock.fileno(): s for s, sock in enumerate(socks)}
    clock = time.perf_counter
    origin = clock()
    dues = [origin + d for d in dues_rel]
    deadline = origin + (dues_rel[-1] if n else 0.0) + timeout_s
    late_max = 0.0
    next_up = done = 0
    open_sessions = set(range(k))
    while done < n:
        now = clock()
        while next_up < n and dues[next_up] <= now:
            s = next_up % k
            outbox[s] += lines[next_up]
            waiting[s].append(next_up)
            sent[next_up] = now
            late_max = max(late_max, now - dues[next_up])
            next_up += 1
        writers = [socks[s] for s in open_sessions if outbox[s]]
        for sock in writers:
            s = fds[sock.fileno()]
            try:
                written = sock.send(outbox[s])
            except BlockingIOError:
                continue
            del outbox[s][:written]
        if now > deadline or not open_sessions:
            break
        wait = dues[next_up] - clock() if next_up < n else 0.05
        readable, _, _ = select.select(
            [socks[s] for s in open_sessions],
            [socks[s] for s in open_sessions if outbox[s]], [],
            min(max(wait, 0.0), 0.05),
        )
        for sock in readable:
            s = fds[sock.fileno()]
            try:
                data = sock.recv(1 << 20)
            except BlockingIOError:
                continue
            at = clock()
            if not data:
                open_sessions.discard(s)
                continue
            parts = (inbox[s] + data).split(b"\n")
            inbox[s] = parts.pop()
            for reply in parts:
                if heads[s] >= len(waiting[s]):
                    raise BenchError("server replied to a request not sent")
                index = waiting[s][heads[s]]
                heads[s] += 1
                received[index] = at
                replies[index] = reply
                done += 1
    return {"origin": origin, "dues": dues, "sent": sent,
            "received": received, "replies": replies,
            "late_max_s": late_max}


def _connect(port: int, sessions: int) -> List[socket.socket]:
    socks = []
    for _ in range(sessions):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


def _ask_ready(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b'{"op":"ready"}\n')
            reply = sock.makefile("rb").readline()
    except OSError:
        return False
    return bool(reply) and json.loads(reply).get("status") == 200


def _start_server(store: Path, trace_dir: Optional[Path], log_path: Path
                  ) -> Tuple[subprocess.Popen, int, float]:
    """Spawn the server; returns it, its port and seconds to ready."""
    port = free_port()
    if trace_dir:
        argv = ["perfbench/serve_launcher.py", str(store),
                "--port", str(port), "--trace-dir", str(trace_dir)]
    else:
        argv = ["-m", "repro", "serve", str(store), "--port", str(port)]
    started = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT,
        )
    deadline = time.monotonic() + 60
    while not _ask_ready(port):
        if proc.poll() is not None or time.monotonic() > deadline:
            stop_process(proc, terminate=True)
            raise BenchError(f"server did not become ready; see {log_path}")
        time.sleep(0.005)
    return proc, port, time.perf_counter() - started


def measure(inputs: Dict, setup_repeats: int,
            trace_dir: Optional[Path] = None) -> Dict:
    from repro.serve.snapshot import SnapshotStore

    work = Path(inputs["work"])
    tag = "traced" if trace_dir else "timed"
    log_path = work / f"server-{tag}.log"
    # Each pass starts from a store holding only the first snapshot (v1).
    store = work / f"store-{tag}"
    SnapshotStore(store, keep=10_000).publish(
        read_json(Path(inputs["payloads"][0])), meta={"payload": 0}
    )
    setups: List[float] = []
    for _ in range(setup_repeats - 1):
        proc, _, setup = _start_server(store, trace_dir, log_path)
        setups.append(setup)
        stop_process(proc, terminate=True)
    publisher_config = work / f"publisher-{tag}.json"
    publisher_result = work / f"publisher-{tag}-result.json"
    write_json(publisher_config, {
        "store": str(store), "payloads": inputs["payloads"],
        "every_s": inputs["publish_every_s"],
        "result": str(publisher_result),
    })
    publisher = Child(["perfbench/sut.py", "publish", str(publisher_config)])
    proc = None
    socks: List[socket.socket] = []
    try:
        publisher.expect("READY", timeout_s=60)
        proc, port, setup = _start_server(store, trace_dir, log_path)
        setups.append(setup)
        socks = _connect(port, visible_cores())
        runs = []
        # A collection in the generator would stall its sends and reads;
        # the replies it keeps form no reference cycles.
        gc.collect()
        gc.disable()
        try:
            for plan in inputs["phases"]:
                runs.append(_drive(socks, plan, 30))
                if plan["kind"] == "warmup":
                    publisher.send("GO")
        finally:
            gc.enable()
        publisher.send("STOP")
        publisher.expect("DONE", timeout_s=30)
        rss_mb = peak_rss_mb(proc.pid)
    finally:
        for sock in socks:
            sock.close()
        publisher.close()
        if proc is not None:
            stop_process(proc, terminate=True)
    if proc.returncode != 0:
        raise BenchError(f"server exited {proc.returncode} on SIGTERM")
    outcome = {
        "inputs": inputs,
        "setup_s": median(setups),
        "rss_mb": rss_mb,
        "published": read_json(publisher_result)["published"],
        "phases": [],
    }
    for plan, run in zip(inputs["phases"], runs):
        responses = [
            None if reply is None else _summarize(json.loads(reply))
            for reply in run["replies"]
        ]
        outcome["phases"].append({
            "kind": plan["kind"], "ops": plan["ops"],
            "tweets": plan["tweets"], "origin": run["origin"],
            "dues": run["dues"], "sent": run["sent"],
            "received": run["received"], "responses": responses,
            "late_max_s": run["late_max_s"],
        })
    return outcome


def _summarize(body: Dict) -> Dict:
    return {key: body.get(key) for key in (
        "status", "predicted", "proba", "snapshot_version", "tier",
        "degraded",
    )}


# -- checks and metrics -------------------------------------------------


def _ok(response: Optional[Dict]) -> bool:
    return response is not None and response["status"] == 200


def check(outcome: Dict) -> List[str]:
    from repro.core.features import DegradeTier
    from repro.data.tweet import Tweet
    from repro.serve.model import ServingModel

    inputs = outcome["inputs"]
    errors = []
    version_payload = {1: 0}
    version_payload.update(
        (entry["version"], entry["payload"]) for entry in outcome["published"]
    )
    models = [ServingModel(read_json(Path(path)))
              for path in inputs["payloads"]]
    tweets: Dict[int, object] = {}
    expected: Dict[Tuple[int, int, str], Dict] = {}
    served = set()
    for number, phase in enumerate(outcome["phases"]):
        name = f"phase {number} ({phase['kind']})"
        missing = sum(r is None for r in phase["responses"])
        if missing:
            errors.append(f"{name}: {missing} requests got no reply")
        for tweet_index, response in zip(phase["tweets"],
                                         phase["responses"]):
            if not _ok(response):
                continue
            payload = version_payload.get(response["snapshot_version"])
            if payload is None:
                errors.append(f"reply names unknown snapshot "
                              f"v{response['snapshot_version']}")
                continue
            served.add(payload)
            key = (payload, tweet_index, response["tier"])
            if key not in expected:
                if tweet_index not in tweets:
                    tweets[tweet_index] = Tweet.from_json(
                        inputs["pool"][tweet_index])
                expected[key] = models[payload].classify(
                    tweets[tweet_index], tier=DegradeTier[response["tier"]])
            truth = expected[key]
            if (response["predicted"] != truth["predicted"]
                    or response["proba"] != truth["proba"]):
                errors.append(
                    f"{name}: tweet {tweet_index} on v"
                    f"{response['snapshot_version']} answered "
                    f"{response['predicted']} {response['proba']}, the "
                    f"model gives {truth['predicted']} {truth['proba']}"
                )
    if served != {0, 1}:
        errors.append(f"served snapshots {sorted(served)}, expected both")
    return errors[:20]


def counts(outcome: Dict) -> Dict[str, int]:
    attempted = failed = 0
    for phase in outcome["phases"]:
        attempted += len(phase["responses"])
        failed += sum(not _ok(r) for r in phase["responses"])
    return {"attempted": attempted, "failed": failed}


def _f1(outcome: Dict) -> float:
    from repro.core.evaluation import ConfusionMatrix
    from repro.core.features import LabelEncoder

    truth = outcome["inputs"]["truth"]
    encoder = LabelEncoder(3)
    matrix = ConfusionMatrix(3)
    for phase in outcome["phases"]:
        for tweet_index, response in zip(phase["tweets"],
                                         phase["responses"]):
            if _ok(response):
                matrix.add(encoder.encode(truth[tweet_index]),
                           encoder.encode(response["predicted"]))
    return matrix.weighted_f1


def _last_reply(phase: Dict) -> float:
    return max((t for t in phase["received"] if t is not None),
               default=phase["dues"][-1])


def _capacity(phase: Dict) -> float:
    ok = sum(_ok(r) for r in phase["responses"])
    return ok / (_last_reply(phase) - phase["origin"]) if ok else 0.0


def _of_kind(outcome: Dict, kind: str) -> List[Dict]:
    return [phase for phase in outcome["phases"] if phase["kind"] == kind]


def _burst_capacity(outcome: Dict) -> float:
    return median([_capacity(phase) for phase in _of_kind(outcome, "burst")])


def end_to_end(outcome: Dict) -> Dict[str, float]:
    segments = _of_kind(outcome, "open")
    windows: Dict[Tuple[int, int], List[float]] = {}
    for number, phase in enumerate(segments):
        for due, received, response in zip(
                phase["dues"], phase["received"], phase["responses"]):
            # A failed or missing reply misses any latency limit.
            latency = received - due if _ok(response) else float("inf")
            second = int(due - phase["origin"])
            windows.setdefault((number, second), []).append(latency)
    open_ok = sum(_ok(r) for phase in segments for r in phase["responses"])
    open_s = sum(_last_reply(phase) - phase["origin"] for phase in segments)
    tally = counts(outcome)
    return {
        # Verdicts per wall second of the open-loop segments.
        "tweets_per_s": open_ok / open_s,
        "verdict_p50_ms": 1000.0 * percentile(
            [s for window in windows.values() for s in window], 50),
        "verdict_p99_ms": 1000.0 * median(
            [percentile(window, 99) for window in windows.values()]),
        "serve_capacity_rps": _burst_capacity(outcome),
        "f1": _f1(outcome),
        "ok_frac": 1.0 - tally["failed"] / tally["attempted"],
        "setup_s": outcome["setup_s"],
        "rss_mb": outcome["rss_mb"],
    }


def info(outcome: Dict) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "snapshots_published": len(outcome["published"]),
    }
    for kind in PHASE_KINDS:
        phases = _of_kind(outcome, kind)
        responses = [r for phase in phases for r in phase["responses"]]
        summary[kind] = {
            "sent": len(responses),
            "succeeded": sum(_ok(r) for r in responses),
            "failed": sum(not _ok(r) for r in responses),
            "versions": sorted({r["snapshot_version"] for r in responses
                                if _ok(r)}),
        }
        if kind != "burst":
            summary[kind]["late_max_ms"] = 1000.0 * max(
                phase["late_max_s"] for phase in phases)
    return summary


def per_layer(traced: Dict, totals: LayerTotals,
              trace_dir: Path) -> Dict[str, float]:
    # serve.other_s covers the open-loop segments: there a request is
    # written when due, so client latency is socket, JSON, loop and the
    # server's queue.
    segments = _of_kind(traced, "open")
    window = LayerTotals.load(
        trace_dir, [(phase["origin"], _last_reply(phase)) for phase in segments])
    client_s = sum(
        received - sent
        for phase in segments
        for sent, received in zip(phase["sent"], phase["received"])
        if received is not None
    )
    degraded = sum(
        bool(r and r["degraded"])
        for phase in traced["phases"] for r in phase["responses"]
    )
    return {
        "serve.admission.acquire.s": totals.busy("serve.admission.acquire"),
        "serve.tweet_from_payload.s": totals.busy("serve.tweet_from_payload"),
        "serve.model.classify.s": totals.busy("serve.model.classify"),
        "serve.model.classify.calls": totals.count("serve.model.classify"),
        "serve.model.explain.self_s": totals.own("serve.model.explain"),
        "serve.snapshot.load.s": totals.busy("serve.snapshot.load")
        + totals.busy("serve.snapshot.build"),
        "serve.snapshot.load.calls": totals.count("serve.snapshot.load"),
        "serve.other_s": client_s - sum(
            window.root_s.get(name, 0.0) for name in REQUEST_SPANS
        ),
        "serve.model.degraded": degraded,
    }


def tracing_overhead(untraced: Dict, traced: Dict) -> float:
    """Capacity the spans cost, as extra time per burst request."""
    return _burst_capacity(untraced) / _burst_capacity(traced) - 1.0
