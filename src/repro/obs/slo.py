"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SLO` names an objective over the metrics the hot path
already records; this module evaluates them two ways:

* **Live** (:func:`evaluate_live`) — multi-window burn rates in the
  SRE style: the *burn rate* is how fast the error budget is being
  consumed (1.0 = exactly at objective), and an objective pages only
  when **both** a fast window (catches cliffs quickly) and a slow
  window (filters blips) burn above their thresholds.  Windowed
  fractions come from the sliding-window series layer
  (:mod:`repro.obs.series`), so a burst outside the window ages out.
* **Offline** (:func:`evaluate_telemetry`) — single-window evaluation
  over a ``BENCH_*.json`` telemetry document, used by the
  ``repro obs slo`` CI gate.  Prefer ``ratio`` and
  ``relative_latency`` objectives there: they are machine-speed
  independent, so a baseline authored on one machine gates runs on
  another.

Three objective kinds:

``latency``
    p-th percentile of a stage ≤ ``threshold_s``.  The error budget is
    the tail the objective tolerates (``1 - percentile/100``); the bad
    fraction is read from the log-bucket histogram (samples in buckets
    above the threshold, ~12 % bucket-edge error).
``ratio``
    ``sum(bad counters) / sum(total counters) ≤ max_fraction`` — shed
    rate, escalation-budget adherence, engine rejections.
``relative_latency``
    ``pX(stage) / pY(reference_stage) ≤ max_ratio`` — e.g. cascade
    routing overhead relative to the batched detect pass.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.registry import FP_SCALE, Histogram, Registry, get_registry

__all__ = [
    "SLO",
    "SLOStatus",
    "default_slos",
    "evaluate_live",
    "evaluate_telemetry",
    "format_statuses",
    "load_slos",
]

LATENCY = "latency"
RATIO = "ratio"
RELATIVE_LATENCY = "relative_latency"


@dataclasses.dataclass(frozen=True)
class SLO:
    """One declarative objective (see module docstring for kinds)."""

    name: str
    kind: str
    # latency / relative_latency
    stage: Optional[str] = None
    percentile: float = 99.0
    threshold_s: Optional[float] = None
    reference_stage: Optional[str] = None
    reference_percentile: float = 50.0
    max_ratio: Optional[float] = None
    # ratio
    bad: Sequence[str] = ()
    total: Sequence[str] = ()
    max_fraction: Optional[float] = None
    # burn-rate alerting (live evaluation)
    fast_window_s: float = 60.0
    slow_window_s: float = 600.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self) -> None:
        if self.kind not in (LATENCY, RATIO, RELATIVE_LATENCY):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == LATENCY and (self.stage is None
                                     or self.threshold_s is None):
            raise ValueError(f"SLO {self.name}: latency needs stage "
                             f"and threshold_s")
        if self.kind == RATIO and (not self.total
                                   or self.max_fraction is None):
            raise ValueError(f"SLO {self.name}: ratio needs bad/total "
                             f"counters and max_fraction")
        if self.kind == RELATIVE_LATENCY and (
                self.stage is None or self.reference_stage is None
                or self.max_ratio is None):
            raise ValueError(f"SLO {self.name}: relative_latency needs "
                             f"stage, reference_stage, max_ratio")

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SLO":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"SLO {doc.get('name', '?')}: unknown keys {sorted(unknown)}")
        return cls(**doc)


@dataclasses.dataclass
class SLOStatus:
    """Outcome of evaluating one SLO against one window (or one run)."""

    slo: SLO
    ok: bool
    value: float
    limit: float
    burn: float
    windows: Dict[str, float] = dataclasses.field(default_factory=dict)
    alerting: Optional[bool] = None
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "name": self.slo.name,
            "kind": self.slo.kind,
            "ok": self.ok,
            "value": self.value,
            "limit": self.limit,
            "burn": self.burn,
            "detail": self.detail,
        }
        if self.windows:
            doc["window_burns"] = dict(self.windows)
        if self.alerting is not None:
            doc["alerting"] = self.alerting
        return doc


def default_slos() -> List[SLO]:
    """The serving tier's standing objectives."""
    return [
        SLO(name="detect-p99", kind=LATENCY, stage="detect.batch_total",
            percentile=99.0, threshold_s=0.5),
        SLO(name="engine-queue-wait-p99", kind=LATENCY,
            stage="engine.queue_wait", percentile=99.0, threshold_s=0.25),
        SLO(name="shed-rate", kind=RATIO, bad=["cascade.shed"],
            total=["cascade.fast_path", "cascade.escalated", "cascade.shed"],
            max_fraction=0.05),
        SLO(name="escalation-budget", kind=RATIO, bad=["cascade.escalated"],
            total=["cascade.fast_path", "cascade.escalated", "cascade.shed"],
            max_fraction=0.5),
        SLO(name="engine-rejects", kind=RATIO, bad=["engine.rejected"],
            total=["engine.scenes", "engine.rejected"], max_fraction=0.01),
    ]


def load_slos(path: str) -> List[SLO]:
    """Load objectives from a JSON config: ``{"slos": [{...}, ...]}``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc.get("slos")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty 'slos' list")
    return [SLO.from_dict(entry) for entry in entries]


# ----------------------------------------------------------------------
# Shared math
# ----------------------------------------------------------------------
def _hist_bad_fraction(hist_state: Dict[str, Any], threshold_s: float) -> float:
    """Fraction of recorded samples above the threshold (bucket-edge
    approximation: whole buckets strictly above the threshold's)."""
    count = hist_state["count"]
    if not count:
        return 0.0
    cut = Histogram.bucket_index(threshold_s)
    bad = sum(c for i, c in hist_state["buckets"] if i > cut)
    return bad / count


def _latency_status(slo: SLO, hist_state: Optional[Dict[str, Any]],
                    p_value: Optional[float]) -> SLOStatus:
    budget = max(1e-9, 1.0 - slo.percentile / 100.0)
    if hist_state is not None and hist_state["count"]:
        bad = _hist_bad_fraction(hist_state, slo.threshold_s)
        burn = bad / budget
        return SLOStatus(
            slo=slo, ok=burn <= 1.0, value=bad, limit=budget, burn=burn,
            detail=(f"{bad * 100:.2f}% of samples over "
                    f"{slo.threshold_s * 1e3:g} ms (budget "
                    f"{budget * 100:g}%)"))
    if p_value is not None:
        # Stats-only fallback (no histogram shipped): compare the
        # percentile itself; burn is the latency ratio, not budget math.
        burn = p_value / slo.threshold_s if slo.threshold_s else 0.0
        return SLOStatus(
            slo=slo, ok=burn <= 1.0, value=p_value, limit=slo.threshold_s,
            burn=burn,
            detail=(f"p{slo.percentile:g} = {p_value * 1e3:.3f} ms vs "
                    f"{slo.threshold_s * 1e3:g} ms"))
    return SLOStatus(slo=slo, ok=True, value=0.0,
                     limit=slo.threshold_s or 0.0, burn=0.0,
                     detail=f"stage {slo.stage!r} not recorded")


def _ratio_status(slo: SLO, counter_value) -> SLOStatus:
    bad = sum(counter_value(name) for name in slo.bad)
    total = sum(counter_value(name) for name in slo.total)
    fraction = bad / total if total else 0.0
    burn = fraction / slo.max_fraction if slo.max_fraction else 0.0
    return SLOStatus(
        slo=slo, ok=burn <= 1.0, value=fraction, limit=slo.max_fraction,
        burn=burn,
        detail=(f"{bad:g}/{total:g} = {fraction * 100:.2f}% vs "
                f"{slo.max_fraction * 100:g}%"))


def _relative_status(slo: SLO, percentile_of) -> SLOStatus:
    value = percentile_of(slo.stage, slo.percentile)
    reference = percentile_of(slo.reference_stage, slo.reference_percentile)
    if value is None or reference is None or reference <= 0.0:
        missing = slo.stage if value is None else slo.reference_stage
        return SLOStatus(slo=slo, ok=True, value=0.0, limit=slo.max_ratio,
                         burn=0.0,
                         detail=f"stage {missing!r} not recorded")
    ratio = value / reference
    burn = ratio / slo.max_ratio
    return SLOStatus(
        slo=slo, ok=burn <= 1.0, value=ratio, limit=slo.max_ratio, burn=burn,
        detail=(f"p{slo.percentile:g}({slo.stage}) / "
                f"p{slo.reference_percentile:g}({slo.reference_stage}) = "
                f"{ratio:.3f} vs {slo.max_ratio:g}"))


# ----------------------------------------------------------------------
# Offline: BENCH_*.json telemetry documents
# ----------------------------------------------------------------------
def evaluate_telemetry(slos: Iterable[SLO],
                       doc: Dict[str, Any]) -> List[SLOStatus]:
    """Single-window evaluation of a telemetry document (CI gate)."""
    obs = doc.get("obs", {})
    merge = doc.get("merge") or {}
    timers_merge = merge.get("timers", {})
    timers_stats = obs.get("timers", {})
    counters_merge = merge.get("counters", {})
    counters_obs = obs.get("counters", {})

    def counter_value(name: str) -> float:
        if name in counters_merge:
            return counters_merge[name]["value_fp"] / FP_SCALE
        return float(counters_obs.get(name, 0.0))

    def percentile_of(stage: str, q: float) -> Optional[float]:
        state = timers_merge.get(stage)
        if state is not None and state["hist"]["count"]:
            return Histogram.from_state(state["hist"]).percentile(q)
        stats = timers_stats.get(stage)
        if stats is None:
            return None
        key = f"p{q:g}_s"
        return stats.get(key, stats.get("p99_s"))

    statuses = []
    for slo in slos:
        if slo.kind == LATENCY:
            state = timers_merge.get(slo.stage)
            stats = timers_stats.get(slo.stage)
            p_value = None
            if stats is not None:
                p_value = stats.get(f"p{slo.percentile:g}_s")
            statuses.append(_latency_status(
                slo, state["hist"] if state else None, p_value))
        elif slo.kind == RATIO:
            statuses.append(_ratio_status(slo, counter_value))
        else:
            statuses.append(_relative_status(slo, percentile_of))
    return statuses


# ----------------------------------------------------------------------
# Live: multi-window burn rates over the series layer
# ----------------------------------------------------------------------
def evaluate_live(slos: Iterable[SLO], registry: Optional[Registry] = None,
                  series: Any = None,
                  now: Optional[float] = None) -> List[SLOStatus]:
    """Evaluate burn rates over fast/slow sliding windows.

    Each status carries per-window burns; ``alerting`` is True only
    when both windows burn above their thresholds (fast catches the
    cliff, slow confirms it is sustained).  ``ok`` mirrors
    ``not alerting`` so live and offline callers share one predicate.
    """
    registry = registry or get_registry()
    if series is None:
        series = registry.series
    statuses: List[SLOStatus] = []
    for slo in slos:
        window_burns: Dict[str, float] = {}
        per_window: List[SLOStatus] = []
        for window_s in (slo.fast_window_s, slo.slow_window_s):
            if slo.kind == LATENCY:
                hist_state = None
                if series is not None:
                    hist_state = series.timer_series(slo.stage).window_state(
                        window_s, now=now)["hist"]
                status = _latency_status(slo, hist_state, None)
            elif slo.kind == RATIO:
                def counter_value(name: str, _w=window_s) -> float:
                    if series is None:
                        return 0.0
                    stats = series.counter_series(name).window_stats(
                        _w, now=now)
                    return stats["amount"]
                status = _ratio_status(slo, counter_value)
            else:
                def percentile_of(stage: str, q: float,
                                  _w=window_s) -> Optional[float]:
                    if series is None:
                        return None
                    state = series.timer_series(stage).window_state(
                        _w, now=now)
                    if not state["count"]:
                        return None
                    return Histogram.from_state(state["hist"]).percentile(q)
                status = _relative_status(slo, percentile_of)
            window_burns[f"{window_s:g}s"] = status.burn
            per_window.append(status)
        fast, slow = per_window
        alerting = (fast.burn >= slo.fast_burn and slow.burn >= slo.slow_burn)
        statuses.append(SLOStatus(
            slo=slo, ok=not alerting, value=fast.value, limit=fast.limit,
            burn=fast.burn, windows=window_burns, alerting=alerting,
            detail=fast.detail))
    return statuses


def format_statuses(statuses: Iterable[SLOStatus],
                    title: str = "SLO status") -> str:
    lines = [f"== {title} =="]
    statuses = list(statuses)
    if not statuses:
        return "\n".join(lines + ["(no objectives)"])
    width = max(len(s.slo.name) for s in statuses)
    for status in statuses:
        flag = "OK  " if status.ok else "FAIL"
        extra = ""
        if status.windows:
            burns = ", ".join(f"{w}={b:.2f}x"
                              for w, b in status.windows.items())
            extra = f" [burn {burns}]"
        lines.append(f"{flag} {status.slo.name.ljust(width)} "
                     f"burn={status.burn:6.2f}x  {status.detail}{extra}")
    return "\n".join(lines)
