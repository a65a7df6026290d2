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
``repro obs compare BASE.json CUR.json`` gates CI on any change in the
work counted in its ``merge`` block.
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

from repro.obs.registry import Registry, counter_value, get_registry

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
# Work-count comparison
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CompareRow:
    counter: str
    baseline: int          # fixed-point ``value_fp``
    current: int

    @property
    def changed(self) -> bool:
        return self.current != self.baseline


@dataclasses.dataclass
class Comparison:
    rows: List[CompareRow]
    # Counters the baseline recorded but the current run did not: a
    # renamed or deleted counter would otherwise escape the gate.
    missing: List[str]
    # Counters only the current run recorded (informational).
    new: List[str]

    @property
    def changes(self) -> List[CompareRow]:
        return [row for row in self.rows if row.changed]

    @property
    def ok(self) -> bool:
        return bool(self.rows) and not self.changes and not self.missing

    def summary(self) -> str:
        lines = ["== obs compare (work counters, exact) =="]
        if self.rows:
            width = max(len(row.counter) for row in self.rows)
            lines.append(f"{'counter'.ljust(width)} | {'baseline':>14} | "
                         f"{'current':>14} |")
            for row in self.rows:
                verdict = "CHANGED" if row.changed else "ok"
                base, cur = (counter_value({"value_fp": v})
                             for v in (row.baseline, row.current))
                lines.append(f"{row.counter.ljust(width)} | {base!s:>14} | "
                             f"{cur!s:>14} | {verdict}")
        if self.new:
            lines.append(f"new (not in the baseline): {', '.join(self.new)}")
        if self.missing:
            lines.append(
                f"MISSING from current run: {', '.join(self.missing)} "
                f"(renamed or deleted counter?)")
        if self.ok:
            status = "OK"
        elif self.changes or self.missing:
            status = (f"{len(self.changes)} counter(s) changed, "
                      f"{len(self.missing)} missing; if the change in work "
                      f"is intended, re-record the baseline")
        else:
            status = "the baseline records no counters"
        lines.append(f"result: {status}")
        return "\n".join(lines)


def _merged_counters(doc: Dict[str, Any]) -> Dict[str, int]:
    counters = (doc.get("merge") or {}).get("counters", {})
    return {name: int(state["value_fp"]) for name, state in counters.items()}


def compare_telemetry(baseline: Dict[str, Any],
                      current: Dict[str, Any]) -> Comparison:
    """Gate ``current``'s work counts against ``baseline``'s, exactly.

    Every counter in the baseline's ``merge`` block is compared on its
    integer fixed-point value, so any change in counted work fails,
    a zero count included (0 -> 1).  A baseline counter the current run
    did not record fails too; one only the current run recorded is
    informational.  A baseline with no counters gates nothing and fails.
    Counts do not depend on how fast the host is; timing claims belong
    to ``python -m benchmarks.e2e compare`` and ``repro obs slo``.
    """
    base, cur = _merged_counters(baseline), _merged_counters(current)
    return Comparison(
        rows=[CompareRow(name, value, cur[name])
              for name, value in sorted(base.items()) if name in cur],
        missing=sorted(set(base) - set(cur)),
        new=sorted(set(cur) - set(base)),
    )
