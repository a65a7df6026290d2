"""The E11 and E12 benchmarks refuse to time a wrong result.

Each benchmark checks its fast path against an oracle before any clock
starts; these tests feed each check a wrong result and expect it to
raise.  (E14's check is in ``tests/test_stream.py``.)
"""

import pytest

from repro.quant.linear import QuantizedLinear
from repro.serve.engine import DetectionEngine


@pytest.fixture()
def perturbed_kernel(monkeypatch):
    """The exact BLAS kernel, off by one in its first output element."""
    forward_shifted = QuantizedLinear._forward_shifted

    def perturbed(layer, shifted):
        out = forward_shifted(layer, shifted)
        out.flat[0] += 1.0
        return out

    monkeypatch.setattr(QuantizedLinear, "_forward_shifted", perturbed)


def test_e12_kernel_workload_rejects_a_perturbed_kernel(perturbed_kernel):
    from benchmarks.bench_e12_quant_inference import run_kernel_latency

    with pytest.raises(AssertionError, match="diverged from int64 reference"):
        run_kernel_latency(rows_per_gemm=16, repeats=1, sites=["patch_proj"])


def test_e12_forward_workload_rejects_a_perturbed_kernel(perturbed_kernel):
    from benchmarks.bench_e12_quant_inference import run_forward_latency

    with pytest.raises(AssertionError, match="diverged from the int64"):
        run_forward_latency(batch_images=2, repeats=1)


def test_e11_workload_rejects_an_engine_that_drops_a_detection(monkeypatch):
    from benchmarks.bench_e11_throughput import run_throughput

    detect_many = DetectionEngine.detect_many

    def dropping(engine, scenes, stride=None):
        return [detections[:-1]
                for detections in detect_many(engine, scenes, stride)]

    monkeypatch.setattr(DetectionEngine, "detect_many", dropping)
    # 48 grid-3 scenes hold the workload's first detections (16 hold none).
    with pytest.raises(AssertionError, match="engine diverged"):
        run_throughput(num_scenes=48, batch_sizes=(8,), workers=(1,),
                       repeats=1)
