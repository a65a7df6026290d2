"""``compare A B``: a parent commit (A) against a change (B).

A and B are either two result directories written by ``run --out`` or
two checkouts; given checkouts, ``compare`` first runs ``--pairs``
pairs itself into a fresh directory, one seed per pair from FIRST_SEED
on, alternating which side runs first, each run as long as
BENCHMARK.json's ``run_seconds``.  Runs pair up by workload and seed.
For each workload and end-to-end metric it applies the rule of the
benchmark's README:

* regression -- B's median is worse than A's by more than the metric's
  bound from BENCHMARK.json;
* unresolved -- either side's quartile spread exceeds the bound, unless
  every run of B reads better than every run of A;
* win -- at least 10 pairs, B better in at least 9 of 10 of them (ties
  count for neither), and the medians differ by more than A's
  interquartile range; a win does not count when B fails a larger share
  of its requests than A.

A side with a run whose served outputs were wrong, or a run that left
no result, is failing whatever its timings.  Exit status 1 when any
pairing regresses or either side fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

MIN_WIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 100


def add_arguments(parser: argparse.ArgumentParser, workloads: Sequence[str]) -> None:
    parser.add_argument("a", help="parent: result directory or checkout")
    parser.add_argument("b", help="change: result directory or checkout")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--pairs", type=int, default=MIN_WIN_PAIRS,
                        help="pairs to run when A and B are checkouts")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(pairs: Sequence[Tuple[float, float]], better: str, bound: float) -> Tuple[str, int]:
    """Verdict for one workload x metric from ``(a, b)`` value pairs.

    Returns ``(verdict, pairs B won)``."""
    sign = 1.0 if better == "higher" else -1.0
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if sign > 0:
        b_always_better = min(b) > max(a)
    else:
        b_always_better = max(b) < min(a)
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    worse = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    if spread > bound and not b_always_better:
        return "unresolved", wins
    if worse > bound:
        return "regression", wins
    if (len(pairs) >= MIN_WIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (b_med - a_med) > a_q3 - a_q1):
        return "win", wins
    return "no change", wins


def load_runs(directory: Path) -> Dict[str, Dict[int, dict]]:
    """Untraced run results by workload and seed."""
    runs: Dict[str, Dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        if "result" in doc and not doc.get("trace"):
            runs.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return runs


def _is_checkout(path: Path) -> bool:
    return (path / "benchmarks" / "e2e" / "__main__.py").is_file()


def run_pairs(a: Path, b: Path, out_a: Path, out_b: Path, workloads: Sequence[str],
              seeds: Sequence[int], seconds: int) -> None:
    for index, seed in enumerate(seeds):
        sides = [(a, out_a), (b, out_b)]
        if index % 2:
            sides.reverse()
        for workload in workloads:
            for checkout, out in sides:
                command = [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
                proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
                last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr.strip()[-200:]]
                print(f"pair {index} {workload} {checkout}: exit {proc.returncode} {last[0][:120]}",
                      flush=True)


def main(args: argparse.Namespace, spec: dict, root: Path) -> int:
    a, b = Path(args.a).resolve(), Path(args.b).resolve()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds: Optional[List[int]] = None
    if _is_checkout(a) and _is_checkout(b):
        results = root / "benchmarks" / "e2e" / "results"
        results.mkdir(parents=True, exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="compare-", dir=results))
        print(f"results -> {out}", flush=True)
        out_a, out_b = out / "a", out / "b"
        seeds = list(range(FIRST_SEED, FIRST_SEED + args.pairs))
        run_pairs(a, b, out_a, out_b, workloads, seeds, spec["run_seconds"])
        a, b = out_a, out_b
    runs_a, runs_b = load_runs(a), load_runs(b)
    row = "{:<14} {:<15} {:<26} {:<26} {:>7} {:>6}  {}"
    print(row.format("workload", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]",
                     "change", "wins", "verdict"))
    regressed = False
    failing = {"A": 0, "B": 0}
    for workload in workloads:
        ran = [runs_a.get(workload, {}), runs_b.get(workload, {})]
        expected = set(seeds) if seeds is not None else set(ran[0]) | set(ran[1])
        for side, by_seed in zip("AB", ran):
            missing = sorted(expected - set(by_seed))
            wrong = sorted(s for s in expected & set(by_seed)
                           if not by_seed[s]["result"]["correct"])
            if missing or wrong:
                failing[side] += len(missing) + len(wrong)
                print(f"{workload:<14} {side} FAILING: no result for seeds {missing}, "
                      f"wrong outputs for seeds {wrong}")
        seeds_run = sorted(expected & set(ran[0]) & set(ran[1]))
        if not seeds_run:
            print(f"{workload:<14} no paired runs")
            continue
        docs = [(ran[0][s], ran[1][s]) for s in seeds_run]
        results = [(x["result"], y["result"]) for x, y in docs]
        failed = [sum(r[i]["failed"] for r in results) / sum(r[i]["attempted"] for r in results)
                  for i in (0, 1)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in results]
            verdict, wins = judge(pairs, metric["better"], metric["bound"])
            if verdict == "win" and failed[1] > failed[0]:
                verdict = "no win: B fails more often"
            regressed |= verdict == "regression"
            qa, qb = quartiles([p[0] for p in pairs]), quartiles([p[1] for p in pairs])
            change = f"{(qb[1] - qa[1]) / qa[1]:+.1%}" if qa[1] else "-"
            print(row.format(workload, name, _cell(qa), _cell(qb), change,
                             f"{wins}/{len(pairs)}", verdict))
        invalid = [sum(not doc[i].get("valid", True) for doc in docs) for i in (0, 1)]
        print(f"{workload:<14} {len(seeds_run)} pairs; failed share A {failed[0]:.3%} "
              f"B {failed[1]:.3%}; invalid runs A {invalid[0]} B {invalid[1]}")
    for side, count in failing.items():
        if count:
            print(f"{side} is FAILING: {count} run(s) with wrong outputs or no result")
    return 1 if regressed or any(failing.values()) else 0


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
