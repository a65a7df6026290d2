"""Tests of the benchmark's own rules, plus smoke runs of every workload.

    python -m pytest benchmarks/e2e/test_harness.py

The unit tests need only the standard library, apart from one that
reads a ``repro.obs`` histogram; the smoke tests run the benchmark
command in fresh interpreters (about 3 s of load each).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, harness

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
KNOWN = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} | set(harness.DIAGNOSTIC)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert not harness.supports(999, 99.0)
    assert harness.supports(1000, 99.0)
    assert not harness.supports(99, 90.0)
    assert harness.supports(100, 90.0)


def test_percentile_is_nearest_rank_and_reports_its_sample_count():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50.0) == 50
    assert harness.percentile(values, 90.0) == 90
    assert harness.percentile(values, 99.0) == 99
    assert math.isnan(harness.percentile([], 50.0))
    report = harness.Report("w")
    report.add_percentile("latency_p99_ms", [values], 99.0)
    assert report.lines() == ["w latency_p99_ms 99.0 ms n=100"]
    assert report.notes == ["latency_p99_ms: too few samples for 10 beyond p99 (n=100)"]


def test_slot_percentile_comes_from_the_best_slot_after_scaling():
    # Ten slots of 100 samples; most fall in a slow stretch.
    slots = [[float(i) + 1000.0 for i in range(100)] for _ in range(10)]
    slots[3] = [float(i) for i in range(100)]
    slots[4] = [float(i) + 5.0 for i in range(100)]
    assert harness.slot_percentile(slots, 90.0) == (89.0, True)
    assert harness.slot_percentile([s[:80] for s in slots], 90.0)[1] is False
    # Slot 4 ran on a host twice as slow as slot 3: it scales to the best.
    slowdowns = [1.0] * 10
    slowdowns[4] = 2.0
    assert harness.slot_percentile(slots, 90.0, slowdowns)[0] == pytest.approx(47.0)
    report = harness.Report("w")
    report.add_percentile("latency_p50_ms", slots, 50.0)
    assert report.lines() == ["w latency_p50_ms 49.0 ms n=1000 slots=10"]


def test_rate_skips_the_time_to_the_first_completion():
    assert harness.rate_between([0.5, 0.6, 0.7, 0.8, 0.9]) == pytest.approx(10.0)
    assert harness.best_rate([100.0, 80.0, 90.0], [1.0, 1.0, 1.0]) == 100.0
    assert harness.best_rate([100.0, 80.0, 90.0], [1.0, 1.5, 1.0]) == pytest.approx(120.0)


def _fake_host(walls, company=0.0):
    """A HostSpeed whose probe reads ``walls`` in turn, each with
    ``company`` CPU seconds used by other threads meanwhile."""
    walls = iter(walls)
    return harness.HostSpeed(probe_fn=lambda: (next(walls), company), reference_s=0.01,
                             wait=lambda seconds: None)


def test_host_slowdown_is_sampled_on_every_cpu_and_around_each_slot():
    allowed = os.sched_getaffinity(0)
    cpus = len(allowed)
    host = _fake_host([0.02, 0.03] * cpus)
    assert host.sample() == pytest.approx(2.0)
    assert os.sched_getaffinity(0) == allowed
    host = _fake_host([0.01] * 2 * cpus + [0.04] * 2 * cpus + [0.01] * 2 * cpus)
    for _ in range(3):
        host.mark()
    assert host.per_slot() == pytest.approx([2.0, 2.0])
    host = _fake_host([0.01] * 2 * cpus + [0.09] * 2 * cpus)
    result, seconds, slow = host.timed(lambda: "ready")
    assert (result, slow) == ("ready", pytest.approx(3.0)) and seconds >= 0.0
    assert host.marks == [] and host.problems() == []


def test_host_sample_is_retaken_while_the_program_uses_the_cpu():
    cpus = len(os.sched_getaffinity(0))
    busy = _fake_host([0.01] * 2 * cpus * harness.PROBE_TRIES, company=0.001)
    busy.sample()
    assert busy.disturbed == 1 and busy.problems() == [
        "1 of 1 host-speed samples ran while other threads of the program used the CPU"]
    quiet = _fake_host([0.01] * 2 * cpus, company=0.0001)
    quiet.sample()
    assert quiet.disturbed == 0


def test_host_sample_stops_the_processes_under_test():
    child = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        states = []

        def probe():
            with open(f"/proc/{child.pid}/stat") as fh:
                states.append(fh.read().rpartition(")")[2].split()[0])
            return 0.01, 0.0

        harness.HostSpeed(probe_fn=probe).sample(pause=[child.pid])
        assert set(states) == {"T"}
        with open(f"/proc/{child.pid}/stat") as fh:
            assert fh.read().rpartition(")")[2].split()[0] != "T"
    finally:
        child.kill()
        child.wait()


# ----------------------------------------------------------------------
# Due-time accounting
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_one_stall_makes_the_following_requests_late():
    clock = FakeClock()
    service = {2: 0.035}  # request 2 stalls 35 ms; the rest take 1 ms

    def fire(index, request):
        clock.now += service.get(index, 0.001)
        request.done = clock()

    offsets = [i * 0.010 for i in range(8)]
    requests = harness.drive_open_loop(offsets, fire, clock=clock, sleep=clock.sleep)
    latencies = [round(r.latency_ms, 6) for r in requests]
    lags = [round(r.lag_ms, 6) for r in requests]
    assert latencies == [1.0, 1.0, 35.0, 26.0, 17.0, 8.0, 1.0, 1.0]
    assert lags == [0.0, 0.0, 0.0, 25.0, 16.0, 7.0, 0.0, 0.0]
    assert harness.validity_problems([requests])[0].startswith("load generator lag p99 25.00 ms")


def test_backlog_that_does_not_drain_makes_the_run_invalid():
    slots = [[harness.Request(due=0.0, sent=0.0, done=0.5),
              harness.Request(due=1.0, sent=1.0, done=1.2)],
             [harness.Request(due=5.0, sent=5.0, done=6.5)]]
    assert harness.validity_problems(slots) == [
        "backlog drained 1.50 s after the last arrival (> 1.0 s)"]
    slots[1][0].done = 5.9
    assert harness.validity_problems(slots) == []


def test_failures_count_as_attempted_and_as_slo_misses():
    requests = [
        harness.Request(due=0.0, sent=0.0, done=0.010),                # on time
        harness.Request(due=0.0, sent=0.0, done=0.150),                # late
        harness.Request(due=0.0, sent=0.0, failed=True),               # shed
        harness.Request(due=0.0, sent=0.0, done=0.020, failed=True),   # errored
        harness.Request(due=0.0, sent=0.0),                            # never done
    ]
    summary = harness.summarize(requests, slo_ms=100.0)
    assert summary.attempted == 5
    assert summary.failed == 3
    assert summary.slo_missed == 4
    assert summary.latencies_ms == pytest.approx([10.0, 150.0])
    assert summary.failed_frac == pytest.approx(0.6)
    assert summary.slo_miss_frac == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, None, 0.0, 100.0),   # root
        (2, 1, 10.0, 30.0),      # child [10, 40)
        (3, 1, 30.0, 20.0),      # child [30, 50), overlaps 2 by 10
        (4, 2, 15.0, 5.0),       # grandchild inside 2
        (5, 1, 90.0, 20.0),      # child [90, 110), runs past the root
        (6, None, 200.0, 10.0),  # an unrelated root
    ]
    selfs = harness.self_times(spans)
    assert selfs == {1: 50.0, 2: 25.0, 3: 20.0, 4: 5.0, 5: 20.0, 6: 10.0}


def test_layer_percentiles_move_with_the_mix_inside_a_bucket():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.registry import Histogram

    from benchmarks.e2e import layers

    def hist(fast, slow):
        h = Histogram()
        for _ in range(fast):
            h.record(1.0e-3)   # bucket [0.940, 1.176) ms
        for _ in range(slow):
            h.record(1.3e-3)   # the next bucket
        return h

    p_60 = layers.hist_percentile(hist(60, 40).merge_state(), 50.0)
    p_70 = layers.hist_percentile(hist(70, 30).merge_state(), 50.0)
    assert 1.0e-3 < p_70 < p_60 < 1.176e-3
    assert hist(60, 40).percentile(50.0) == hist(70, 30).percentile(50.0)
    assert layers.hist_percentile(hist(0, 10).merge_state(), 50.0) == pytest.approx(1.3e-3)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_reports_regression_win_unresolved_and_no_change():
    base = [100.0 + (i % 3) for i in range(10)]
    same = [(a, a + 0.5) for a in base]
    assert compare.judge(same, "lower", 0.1)[0] == "no change"
    slower = [(a, a * 1.2) for a in base]
    assert compare.judge(slower, "lower", 0.1)[0] == "regression"
    faster = [(a, a * 0.9) for a in base]
    assert compare.judge(faster, "lower", 0.1) == ("win", 10)
    assert compare.judge(faster[:5], "lower", 0.1)[0] == "no change"  # too few pairs
    noisy = [(a * (1 + 0.5 * (i % 2)), a) for i, a in enumerate(base)]
    assert compare.judge(noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.judge([(a, a * 1.2) for a in base], "higher", 0.1) == ("win", 10)


def _result_dir(path, seeds, correct=lambda seed: True):
    path.mkdir()
    for seed in seeds:
        metrics = {m["name"]: {"value": 1.0 + seed % 3 * 0.01, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        result = {"correct": correct(seed), "attempted": 10, "failed": 0, "metrics": metrics}
        (path / f"{WORKLOADS[0]}-seed{seed}.json").write_text(json.dumps(
            {"workload": WORKLOADS[0], "seed": seed, "trace": False, "valid": True,
             "result": result}))
    return path


def _compare(a, b, capsys):
    parser = argparse.ArgumentParser()
    compare.add_arguments(parser, WORKLOADS)
    code = compare.main(parser.parse_args([str(a), str(b), "--workload", WORKLOADS[0]]),
                        SPEC, ROOT)
    return code, capsys.readouterr().out


def test_compare_fails_a_side_with_wrong_outputs_or_missing_runs(tmp_path, capsys):
    a = _result_dir(tmp_path / "a", range(10))
    code, out = _compare(a, _result_dir(tmp_path / "b", range(10)), capsys)
    assert code == 0 and "FAILING" not in out and "10 pairs" in out
    code, out = _compare(a, _result_dir(tmp_path / "wrong", range(10),
                                        correct=lambda seed: seed != 4), capsys)
    assert code == 1 and "B FAILING: no result for seeds [], wrong outputs for seeds [4]" in out
    code, out = _compare(a, _result_dir(tmp_path / "short", range(9)), capsys)
    assert code == 1 and "B FAILING: no result for seeds [9]" in out


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_keeps_to_its_format():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert all(not part.startswith("/") and ".." not in part for part in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ----------------------------------------------------------------------
# Smoke runs of the command
# ----------------------------------------------------------------------
def _run(out, *args, cwd=ROOT):
    command = [sys.executable, "-m", "benchmarks.e2e", "run", "--out", str(out), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _metric_lines(stdout):
    return [line.split() for line in stdout.splitlines()[:-1] if not line.startswith("#")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A 3-second run of every workload, untraced and traced.  The traced
    serve_small run takes 6 s: a cold mission, which the session and kg
    metrics need, arrives once per 100 open-loop requests, and 3 s at
    50/s offer only 75."""
    out = tmp_path_factory.mktemp("smoke")
    seconds = {("serve_small", 1): "6"}
    return out, {(workload, trace): _run(out, "--workload", workload, "--seed", "3",
                                         "--seconds", seconds.get((workload, trace), "3"),
                                         "--trace", str(trace))
                 for workload in WORKLOADS for trace in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(smoke, workload, trace):
    out, runs = smoke
    proc = runs[workload, trace]
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for line in _metric_lines(proc.stdout):
        assert line[0] == workload
        assert line[1] in KNOWN, f"{line[1]} is not named in BENCHMARK.json"
    if trace:
        assert "self-time check" in proc.stdout
        chrome = json.loads((out / f"{workload}-seed3-trace.chrome.json").read_text())
        assert any(event.get("name", "").startswith("L.") for event in chrome["traceEvents"])
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_every_layer_metric_is_measured_on_some_workload(smoke):
    _, runs = smoke
    measured = set()
    for workload in WORKLOADS:
        result = json.loads(runs[workload, 1].stdout.splitlines()[-1])
        measured |= {name for name, metric in result["metrics"].items() if metric["value"]}
    assert {m["name"] for m in SPEC["per_layer"]} - measured == set()


@pytest.mark.parametrize("workload", ["serve_small", "stream_static"])
def test_corrupted_output_fails_the_run(tmp_path, workload):
    proc = _run(tmp_path, "--workload", workload, "--seconds", "2", "--corrupt")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert "INCORRECT" in proc.stdout


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "benchmarks" / "e2e", bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
