"""Command line of the end-to-end benchmark.

    python -m benchmarks.e2e run [--workload W] [--seed S] [--seconds N]
                                 [--trace [0|1]] [--out DIR]
    python -m benchmarks.e2e compare A B [--pairs N] [--workload W ...]

``run`` without ``--workload`` runs every workload, each in a fresh
interpreter.  A single-workload run prints one ``<workload> <metric>
<value> <unit>`` line per metric, ``#`` note lines, and as its last line
the JSON result; it exits 1 when a served output is wrong and 2 when the
system under test is not there to run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from . import compare as compare_mod

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parents[1]
DEFAULT_OUT = PACKAGE / "results"


def _preflight() -> Optional[str]:
    """Put ``src`` on the path; say what is missing when it cannot run."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no system under test: {ROOT / 'src' / 'repro'} is missing"
    if not list((ROOT / ".artifacts").glob("*-student-multitask.npz")):
        return f"no trained models: {ROOT / '.artifacts'} has no multitask student"
    sys.path.insert(0, str(ROOT / "src"))
    return None


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    problem = _preflight()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from repro.obs import get_registry

    from . import layers
    from .workloads import WORKLOADS, Settings

    get_registry().enabled = False
    if args.trace:
        layers.LayerTracer().install()  # before any shard worker forks
    settings = Settings(seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
                        corrupt=args.corrupt)
    report = WORKLOADS[args.workload](settings)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    if args.trace:
        spans = get_registry().spans
        kept = layers.write_chrome_trace(str(out / f"{stem}.chrome.json"), spans, args.workload)
        roots, deviation = layers.self_time_deviation(layers.layer_spans(spans))
        report.notes.append(f"trace: {kept} layer spans -> {out / (stem + '.chrome.json')}")
        report.notes.append(f"self-time check: {roots} root spans, self times add up to "
                            f"their root within {deviation * 100:.3f}%")
        if deviation > 0.05:
            report.fail(f"self times miss their root span by {deviation * 100:.1f}%")
    section = "per_layer" if args.trace else "end_to_end"
    result = report.result(metric["name"] for metric in spec[section])
    lines = report.lines()
    for line in lines:
        print(line)
    for note in report.notes:
        print(f"# {note}")
    (out / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "lines": lines, "notes": report.notes,
        "valid": not any(note.startswith("INVALID") for note in report.notes),
        "result": result}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if report.correct else 1


def run_all(args: argparse.Namespace, workloads: List[str]) -> int:
    """Each workload in a fresh interpreter; the worst exit code wins."""
    code = 0
    for workload in workloads:
        command = [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(args.out)]
        if args.corrupt:
            command.append("--corrupt")
        code = max(code, subprocess.run(command, cwd=ROOT).returncode)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or all of them")
    run.add_argument("--workload", choices=names)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=spec["run_seconds"],
                     help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="per-layer run: wrap each layer and report per_layer metrics")
    run.add_argument("--out", default=str(DEFAULT_OUT),
                     help="directory for result and Chrome trace files")
    run.add_argument("--corrupt", action="store_true",
                     help="self-test: alter one served output; the run must then fail")
    cmp = sub.add_parser("compare", help="parent A vs change B, per workload and metric")
    compare_mod.add_arguments(cmp, names)
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_mod.main(args, spec, ROOT)
    if args.workload is None:
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
