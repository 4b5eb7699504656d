"""Declarative SLOs with multi-window burn-rate alerting.

Turns the registry's raw metrics into operational judgments: an
:class:`SLO` declares an objective ("p99 batch latency under 2s",
"shed fraction under 5%"), the :class:`SLOTracker` samples the
registry once per supervisor chunk, and alerts fire on the classic
multi-window burn-rate rule — both a short window (fast detection) and
a long window (flap suppression) must be burning error budget faster
than ``burn_threshold`` times the allowed rate.

Every objective reduces to a cumulative *(bad, total)* pair:

* ``ratio`` SLOs read counter families directly — bad events over
  total events (shed over offered, quarantined over consumed);
* ``quantile`` SLOs sample a histogram family's quantile estimate once
  per observation and count a breach (estimate above ``threshold``)
  as one bad sample out of one total.

Burn rate over a window is then ``(Δbad / Δtotal) / budget`` — 1.0
means the budget is being spent exactly at the allowed rate, 10 means
ten times too fast. Windows are counted in *samples* (supervisor
chunks), not wall seconds, which keeps replayed runs deterministic.

The tracker's full state — definitions, sample rings, firing flags,
fired counts — round-trips bit-exactly through ``to_dict`` /
``from_dict``; the stream supervisor embeds it in its checkpoints so a
crash-resume continues the same windows instead of starting blind.

:class:`Scorecard` is the one-look operational summary (ROADMAP item
5): quality (F1), latency (p99 batch seconds), loss (shed fraction,
quarantine rate), availability, and alert activity; benches and
``run_chaos_scenario`` emit it next to their raw numbers. Unobserved
fields are ``nan``, never a fake 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import (
    HistogramState,
    MetricsRegistry,
    _label_key,
)

_NAN = float("nan")

#: Ratio-SLO term: a counter family name plus a label filter.
RatioTerm = Tuple[str, Dict[str, str]]


def family_quantile(
    registry: MetricsRegistry,
    family: str,
    quantile: float,
    labels: Optional[Dict[str, str]] = None,
) -> float:
    """A histogram family's quantile estimate across matching children.

    Children matching the label filter are merged (count-weighted P²
    combination) before reading the estimate. Returns ``nan`` when the
    family has no children, no observations, or does not track the
    requested quantile — never a fabricated 0.0.
    """
    wanted = set(_label_key(labels or {}))
    merged: Optional[HistogramState] = None
    for (name, child_labels), hist in registry._histograms.items():
        if name != family or not wanted.issubset(child_labels):
            continue
        state = HistogramState.of(hist)
        merged = state if merged is None else merged.merge(state)
    if merged is None or merged.count == 0:
        return _NAN
    try:
        value = merged.quantile(quantile)
    except KeyError:
        return _NAN
    return _NAN if value is None else float(value)


@dataclass
class SLO:
    """One declarative objective over the metrics registry.

    ``kind`` is ``"ratio"`` (``bad``/``total`` counter sums) or
    ``"quantile"`` (one breach sample per observation of
    ``family``'s ``quantile`` against ``threshold``). ``budget`` is
    the allowed bad fraction; windows are in samples (supervisor
    chunks). Both windows must burn at ``burn_threshold`` times the
    allowed rate for the alert to fire.
    """

    name: str
    kind: str
    budget: float
    # quantile kind
    family: str = ""
    quantile: float = 0.99
    threshold: float = 0.0
    labels: Dict[str, str] = field(default_factory=dict)
    # ratio kind
    bad: List[RatioTerm] = field(default_factory=list)
    total: List[RatioTerm] = field(default_factory=list)
    short_window: int = 6
    long_window: int = 36
    burn_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("ratio", "quantile"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.short_window < 1 or self.long_window < self.short_window:
            raise ValueError(
                "windows must satisfy 1 <= short_window <= long_window"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready definition (round-trips through ``SLO(**d)``)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "budget": self.budget,
            "family": self.family,
            "quantile": self.quantile,
            "threshold": self.threshold,
            "labels": dict(self.labels),
            "bad": [[fam, dict(lbl)] for fam, lbl in self.bad],
            "total": [[fam, dict(lbl)] for fam, lbl in self.total],
            "short_window": self.short_window,
            "long_window": self.long_window,
            "burn_threshold": self.burn_threshold,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SLO":
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            budget=float(payload["budget"]),
            family=payload.get("family", ""),
            quantile=float(payload.get("quantile", 0.99)),
            threshold=float(payload.get("threshold", 0.0)),
            labels=dict(payload.get("labels", {})),
            bad=[(fam, dict(lbl)) for fam, lbl in payload.get("bad", [])],
            total=[
                (fam, dict(lbl)) for fam, lbl in payload.get("total", [])
            ],
            short_window=int(payload.get("short_window", 6)),
            long_window=int(payload.get("long_window", 36)),
            burn_threshold=float(payload.get("burn_threshold", 1.0)),
        )


def default_slos(
    batch_p99_s: float = 2.0,
    shed_budget: float = 0.05,
    quarantine_budget: float = 0.01,
    availability_budget: float = 0.05,
) -> List[SLO]:
    """The standard objective set for a supervised streaming run."""
    return [
        SLO(
            name="batch_latency_p99",
            kind="quantile",
            budget=0.1,
            family="batch_seconds",
            quantile=0.99,
            threshold=batch_p99_s,
        ),
        SLO(
            name="shed_fraction",
            kind="ratio",
            budget=shed_budget,
            bad=[("overload_shed_total", {})],
            total=[
                ("overload_shed_total", {}),
                ("tweets_consumed_total", {}),
            ],
        ),
        SLO(
            name="quarantine_rate",
            kind="ratio",
            budget=quarantine_budget,
            bad=[("tweets_quarantined_total", {})],
            total=[("tweets_consumed_total", {})],
        ),
        SLO(
            name="availability",
            kind="ratio",
            budget=availability_budget,
            bad=[
                ("overload_shed_total", {}),
                ("tweets_quarantined_total", {}),
            ],
            total=[
                ("overload_shed_total", {}),
                ("tweets_consumed_total", {}),
            ],
        ),
    ]


class _SLOState:
    """One SLO's rolling samples and alert state."""

    __slots__ = ("samples", "firing", "alerts_fired")

    def __init__(self) -> None:
        # Cumulative (bad, total) pairs, newest last; bounded by the
        # tracker to long_window + 1 entries.
        self.samples: List[Tuple[float, float]] = []
        self.firing = False
        self.alerts_fired = 0


class SLOTracker:
    """Samples the registry and drives burn-rate alerts for each SLO.

    ``sinks`` is a list of event receivers with a
    ``event(kind, **fields)`` method (:class:`TelemetrySink`,
    :class:`~repro.obs.recorder.FlightRecorder`); alert transitions are
    emitted as ``slo_alert`` events with ``state`` ``"firing"`` or
    ``"resolved"``.
    """

    def __init__(
        self,
        slos: Optional[Sequence[SLO]] = None,
        sinks: Optional[List[Any]] = None,
    ) -> None:
        self.slos: List[SLO] = (
            list(slos) if slos is not None else default_slos()
        )
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.sinks: List[Any] = list(sinks or [])
        self._states: Dict[str, _SLOState] = {
            slo.name: _SLOState() for slo in self.slos
        }

    # -- sampling -------------------------------------------------------

    def _measure(
        self, slo: SLO, registry: MetricsRegistry
    ) -> Tuple[float, float]:
        """Current cumulative (bad, total) for one SLO."""
        if slo.kind == "ratio":
            bad = sum(
                registry.total(fam, **labels) for fam, labels in slo.bad
            )
            total = sum(
                registry.total(fam, **labels) for fam, labels in slo.total
            )
            return bad, total
        state = self._states[slo.name]
        prior_bad, prior_total = (
            state.samples[-1] if state.samples else (0.0, 0.0)
        )
        estimate = family_quantile(
            registry, slo.family, slo.quantile, slo.labels
        )
        if math.isnan(estimate):
            # No observations yet: the window advances without spending
            # (or earning) any budget.
            return prior_bad, prior_total
        breach = 1.0 if estimate > slo.threshold else 0.0
        return prior_bad + breach, prior_total + 1.0

    def observe(self, registry: MetricsRegistry) -> List[Dict[str, Any]]:
        """Take one sample per SLO; returns the alert transitions.

        Each transition dict carries ``slo``, ``state``
        (``firing``/``resolved``) and both window burn rates; the same
        payload is emitted to every attached sink.
        """
        transitions: List[Dict[str, Any]] = []
        for slo in self.slos:
            state = self._states[slo.name]
            state.samples.append(self._measure(slo, registry))
            overflow = len(state.samples) - (slo.long_window + 1)
            if overflow > 0:
                del state.samples[:overflow]
            burn_short = self._burn(slo, state, slo.short_window)
            burn_long = self._burn(slo, state, slo.long_window)
            fire = (
                burn_short >= slo.burn_threshold
                and burn_long >= slo.burn_threshold
            )
            resolve = (
                burn_short < slo.burn_threshold
                and burn_long < slo.burn_threshold
            )
            transition: Optional[str] = None
            if fire and not state.firing:
                state.firing = True
                state.alerts_fired += 1
                transition = "firing"
            elif resolve and state.firing:
                state.firing = False
                transition = "resolved"
            if transition is not None:
                payload = {
                    "slo": slo.name,
                    "state": transition,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "budget": slo.budget,
                }
                transitions.append(payload)
                for sink in self.sinks:
                    sink.event("slo_alert", **payload)
        return transitions

    @staticmethod
    def _burn(slo: SLO, state: _SLOState, window: int) -> float:
        """Burn rate over the last ``window`` samples (nan if idle).

        The window clamps to the samples actually taken, so alerts can
        fire early in a young run instead of waiting for the long
        window to fill.
        """
        samples = state.samples
        if len(samples) < 2:
            return _NAN
        lo = samples[max(0, len(samples) - 1 - window)]
        hi = samples[-1]
        delta_total = hi[1] - lo[1]
        if delta_total <= 0:
            return _NAN
        return ((hi[0] - lo[0]) / delta_total) / slo.budget

    # -- views ----------------------------------------------------------

    def burn_rates(self, name: str) -> Tuple[float, float]:
        """Current (short, long) burn rates for one SLO."""
        for slo in self.slos:
            if slo.name == name:
                state = self._states[name]
                return (
                    self._burn(slo, state, slo.short_window),
                    self._burn(slo, state, slo.long_window),
                )
        raise KeyError(f"unknown SLO {name!r}")

    def firing(self) -> List[str]:
        """Names of SLOs currently in the firing state."""
        return [
            slo.name for slo in self.slos if self._states[slo.name].firing
        ]

    @property
    def alerts_fired(self) -> int:
        """Total firing transitions across all SLOs."""
        return sum(s.alerts_fired for s in self._states.values())

    def status(self) -> List[Dict[str, Any]]:
        """Per-SLO operational view (console, CLI report)."""
        out = []
        for slo in self.slos:
            state = self._states[slo.name]
            burn_short, burn_long = self.burn_rates(slo.name)
            out.append(
                {
                    "slo": slo.name,
                    "firing": state.firing,
                    "alerts_fired": state.alerts_fired,
                    "burn_short": burn_short,
                    "burn_long": burn_long,
                    "budget": slo.budget,
                }
            )
        return out

    # -- checkpointing --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Full state — definitions, rings, alert flags (checkpointed)."""
        return {
            "version": 1,
            "slos": [
                dict(
                    slo.as_dict(),
                    samples=[
                        [bad, total]
                        for bad, total in self._states[slo.name].samples
                    ],
                    firing=self._states[slo.name].firing,
                    alerts_fired=self._states[slo.name].alerts_fired,
                )
                for slo in self.slos
            ],
        }

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, Any],
        sinks: Optional[List[Any]] = None,
    ) -> "SLOTracker":
        """Rebuild a tracker serialized by :meth:`to_dict`, bit-exactly."""
        tracker = cls(
            slos=[SLO.from_dict(entry) for entry in payload["slos"]],
            sinks=sinks,
        )
        for entry in payload["slos"]:
            state = tracker._states[entry["name"]]
            state.samples = [
                (float(bad), float(total))
                for bad, total in entry.get("samples", [])
            ]
            state.firing = bool(entry.get("firing", False))
            state.alerts_fired = int(entry.get("alerts_fired", 0))
        return tracker


@dataclass
class Scorecard:
    """One-look operational summary of a run (ROADMAP item 5).

    Quality, latency, loss, availability, and alert activity in one
    flat record. Every field that was not observed is ``nan`` — a 0.0
    F1 means the model got everything wrong, not "we didn't measure".
    """

    f1: float = _NAN
    p99_batch_seconds: float = _NAN
    shed_fraction: float = _NAN
    quarantine_rate: float = _NAN
    availability: float = _NAN
    throughput_tweets_per_s: float = _NAN
    alerts_fired: int = 0
    slos_firing: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for bench summaries and chaos reports."""
        return {
            "f1": self.f1,
            "p99_batch_seconds": self.p99_batch_seconds,
            "shed_fraction": self.shed_fraction,
            "quarantine_rate": self.quarantine_rate,
            "availability": self.availability,
            "throughput_tweets_per_s": self.throughput_tweets_per_s,
            "alerts_fired": self.alerts_fired,
            "slos_firing": list(self.slos_firing),
        }

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        f1: float = _NAN,
        throughput: float = _NAN,
        tracker: Optional[SLOTracker] = None,
    ) -> "Scorecard":
        """Read the operational fields straight off the registry.

        ``consumed`` falls back to ``ingested`` for engine-only runs
        (no supervisor drawing from a stream source).
        """
        shed = registry.total("overload_shed_total")
        consumed = registry.total("tweets_consumed_total")
        if consumed == 0:
            consumed = registry.total("tweets_ingested_total")
        quarantined = registry.total("tweets_quarantined_total")
        processed = registry.total("tweets_processed_total")
        offered = consumed + shed
        return cls(
            f1=f1,
            p99_batch_seconds=family_quantile(
                registry, "batch_seconds", 0.99
            ),
            shed_fraction=(shed / offered) if offered > 0 else _NAN,
            quarantine_rate=(
                (quarantined / consumed) if consumed > 0 else _NAN
            ),
            availability=(processed / offered) if offered > 0 else _NAN,
            throughput_tweets_per_s=throughput,
            alerts_fired=(
                tracker.alerts_fired if tracker is not None else 0
            ),
            slos_firing=(
                tracker.firing() if tracker is not None else []
            ),
        )
