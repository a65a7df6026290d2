"""Run manifests, ``BENCH_*.json`` telemetry files, and regression gates.

Every benchmark run produces one schema-versioned JSON document:

.. code-block:: text

    {
      "schema_version": 1,
      "bench": "e10_pipeline_latency",
      "manifest": {git sha, branch, dirty, python, platform, numpy, seed,
                   argv, timestamp_utc, hostname, pid},
      "obs": {"timers": {stage: {calls, total_s, mean_s, min_s, max_s,
                                 p50_s, p90_s, p99_s}},
              "counters": {...}, "distributions": {...},
              "spans": [...], "dropped_spans": n},
      "rows": [...],          # the experiment's primary table
      "tables": {label: [...]}  # any secondary tables
    }

That file is the durable perf trajectory: ``repro obs report`` renders
it, ``repro obs trace`` converts its spans for Perfetto, and
``repro obs compare A.json B.json --max-regress 15%`` gates CI on
hot-path regressions between two of them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.registry import Registry, get_registry

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "run_manifest",
    "build_telemetry",
    "write_telemetry",
    "load_telemetry",
    "CompareRow",
    "Comparison",
    "compare_telemetry",
]


def _git(args: List[str], cwd: Optional[str] = None) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_manifest(seed: Optional[int] = None,
                 extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Everything needed to reproduce / attribute one benchmark run."""
    cwd = os.path.dirname(os.path.abspath(__file__))
    manifest: Dict[str, Any] = {
        "git_sha": _git(["rev-parse", "HEAD"], cwd=cwd),
        "git_branch": _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd=cwd),
        "git_dirty": bool(_git(["status", "--porcelain"], cwd=cwd)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
    }
    try:
        import numpy

        manifest["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover — numpy is a hard dep elsewhere
        manifest["numpy"] = None
    if extra:
        manifest.update(extra)
    return manifest


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars/arrays (common in benchmark rows) to plain
    JSON types; reject nothing — unknown objects become their repr."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return _jsonify(value.item())  # numpy scalar
    if hasattr(value, "tolist"):
        return _jsonify(value.tolist())  # numpy array
    return repr(value)


def build_telemetry(
    bench: str,
    registry: Optional[Registry] = None,
    rows: Optional[Sequence[Dict[str, Any]]] = None,
    tables: Optional[Dict[str, Sequence[Dict[str, Any]]]] = None,
    seed: Optional[int] = None,
    manifest_extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from repro.obs.export import mergeable_snapshot

    registry = registry or get_registry()
    return {
        "schema_version": SCHEMA_VERSION,
        "bench": bench,
        "manifest": run_manifest(seed=seed, extra=manifest_extra),
        "obs": _jsonify(registry.telemetry_snapshot()),
        # The shard-mergeable view (integer accumulators + sparse
        # histogram buckets): `repro obs slo` reads its histograms for
        # budget math, and shard telemetry aggregates through
        # repro.obs.export.merge_snapshots.
        "merge": _jsonify(mergeable_snapshot(registry)),
        "rows": _jsonify(list(rows or [])),
        "tables": _jsonify({k: list(v) for k, v in (tables or {}).items()}),
    }


def write_telemetry(path: str, doc: Dict[str, Any]) -> str:
    """Atomic write (temp + ``os.replace``) of a telemetry document.

    Strict JSON (``allow_nan=False``): an ``Infinity`` anywhere in the
    document is a bug we want to fail loudly on, not ship.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_telemetry(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: telemetry schema_version {version!r} "
            f"(this build reads {SCHEMA_VERSION})"
        )
    return doc


# ----------------------------------------------------------------------
# Regression comparison
# ----------------------------------------------------------------------
#: metric -> how to read it from a timer-stats dict
_METRICS = ("p50_s", "mean_s", "total_s", "max_s", "share")


@dataclasses.dataclass
class CompareRow:
    stage: str
    baseline: float
    current: float
    change_pct: float      # +x% means current is x% slower / larger
    regressed: bool


@dataclasses.dataclass
class Comparison:
    metric: str
    max_regress: float
    rows: List[CompareRow]
    skipped: List[str]     # stages new in the current run (informational)
    # Stages the baseline recorded but the current run did not: a
    # renamed or deleted span would otherwise silently escape the gate,
    # so these fail the comparison outright.
    missing: List[str] = dataclasses.field(default_factory=list)

    @property
    def regressions(self) -> List[CompareRow]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    def summary(self) -> str:
        lines = [
            f"== obs compare (metric={self.metric}, "
            f"max-regress={self.max_regress * 100:.0f}%) =="
        ]
        if self.rows:
            width = max(len(row.stage) for row in self.rows)
            lines.append(
                f"{'stage'.ljust(width)} | {'baseline':>12} | "
                f"{'current':>12} | {'change':>8} |"
            )
            for row in sorted(self.rows, key=lambda r: -r.change_pct):
                verdict = "REGRESSED" if row.regressed else "ok"
                lines.append(
                    f"{row.stage.ljust(width)} | {row.baseline:>12.6f} | "
                    f"{row.current:>12.6f} | {row.change_pct:>+7.1f}% | {verdict}"
                )
        else:
            lines.append("(no comparable stages)")
        if self.skipped:
            lines.append(f"skipped (not in both runs): {', '.join(self.skipped)}")
        if self.missing:
            lines.append(
                f"MISSING from current run: {', '.join(self.missing)} — "
                f"baseline stages that were not recorded (renamed or "
                f"deleted span?); regenerate the baseline if intentional")
        if self.ok:
            status = "OK"
        else:
            parts = []
            if self.regressions:
                parts.append(f"{len(self.regressions)} stage(s) regressed")
            if self.missing:
                parts.append(f"{len(self.missing)} baseline stage(s) missing")
            status = ", ".join(parts)
        lines.append(f"result: {status}")
        return "\n".join(lines)


def _timer_stats(doc: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    return doc.get("obs", {}).get("timers", {})


def _metric_value(stats: Dict[str, float], metric: str,
                  normalizer: float) -> Optional[float]:
    if metric == "share":
        total = stats.get("total_s", 0.0)
        return total / normalizer if normalizer > 0 else None
    return stats.get(metric)


def compare_telemetry(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    max_regress: float = 0.15,
    metric: str = "p50_s",
    stages: Optional[Sequence[str]] = None,
) -> Comparison:
    """Gate ``current`` against ``baseline``: any stage whose ``metric``
    grew by more than ``max_regress`` (fractional, e.g. ``0.15``) counts
    as a regression.

    ``metric="share"`` compares each stage's fraction of the dominant
    stage total (machine-speed independent — use it to compare runs
    from different hardware); the absolute metrics (``p50_s``,
    ``mean_s``, ``total_s``, ``max_s``) are for same-machine
    trajectories.  When a ``stages`` allowlist is given, the share
    normalizer is the dominant total *among those stages*, so adding
    unrelated instrumentation elsewhere cannot shift a scoped gate.

    A stage the baseline recorded but the current run did not lands in
    ``missing`` and fails the comparison — a renamed or deleted span
    must not silently escape the gate.  Stages only the current run
    recorded stay informational (``skipped``): new instrumentation is
    not a regression.
    """
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
    base_timers = _timer_stats(baseline)
    cur_timers = _timer_stats(current)
    names = stages or sorted(set(base_timers) | set(cur_timers))

    def normalizer(timers: Dict[str, Dict[str, float]]) -> float:
        pool = ({n: timers[n] for n in stages if n in timers}
                if stages else timers)
        return max((s.get("total_s", 0.0) for s in pool.values()),
                   default=0.0)

    base_norm, cur_norm = normalizer(base_timers), normalizer(cur_timers)
    rows: List[CompareRow] = []
    skipped: List[str] = []
    missing: List[str] = []
    for name in names:
        base_stats, cur_stats = base_timers.get(name), cur_timers.get(name)
        if base_stats is not None and cur_stats is None:
            missing.append(name)
            continue
        if base_stats is None:
            skipped.append(name)
            continue
        base_value = _metric_value(base_stats, metric, base_norm)
        cur_value = _metric_value(cur_stats, metric, cur_norm)
        if not base_value or base_value <= 0.0 or cur_value is None:
            skipped.append(name)
            continue
        change = (cur_value - base_value) / base_value
        rows.append(CompareRow(
            stage=name,
            baseline=base_value,
            current=cur_value,
            change_pct=change * 100.0,
            regressed=change > max_regress,
        ))
    return Comparison(metric=metric, max_regress=max_regress,
                      rows=rows, skipped=skipped, missing=missing)
