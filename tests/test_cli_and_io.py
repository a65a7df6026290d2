"""CLI commands, graph visualization, and PPM image IO."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import SceneConfig, SceneGenerator, get_task
from repro.data.io import draw_box, export_scene, read_ppm, to_uint8, write_ppm
from repro.kg import Constraint, ConstraintKind, KnowledgeGraph, SimulatedLLM
from repro.kg.visualize import render_ascii, render_dot


class TestVisualize:
    @pytest.fixture(scope="class")
    def kg(self):
        return SimulatedLLM().generate_for_task(get_task("valve_inspection"))

    def test_ascii_mentions_constraints(self, kg):
        text = render_ascii(kg)
        assert "valve_inspection" in text
        assert "color" in text and "blue" in text
        assert "must be" in text

    def test_ascii_empty_graph(self):
        text = render_ascii(KnowledgeGraph("empty"))
        assert "no constraints" in text

    def test_excludes_rendered_differently(self):
        kg = KnowledgeGraph("t")
        kg.add_constraint(Constraint(ConstraintKind.EXCLUDES, "size",
                                     frozenset({"small"}), 1.0))
        assert "must NOT be" in render_ascii(kg)

    def test_dot_is_valid_structure(self, kg):
        dot = render_dot(kg)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"task"' in dot and "requires" in dot


class TestImageIO:
    def test_to_uint8_range(self):
        image = np.random.default_rng(0).random((3, 8, 8)).astype(np.float32)
        pixels = to_uint8(image)
        assert pixels.shape == (8, 8, 3)
        assert pixels.dtype == np.uint8

    def test_to_uint8_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            to_uint8(np.zeros((8, 8)))

    def test_ppm_roundtrip(self, tmp_path):
        image = np.random.default_rng(1).random((3, 16, 12)).astype(np.float32)
        path = str(tmp_path / "img.ppm")
        write_ppm(image, path)
        restored = read_ppm(path)
        assert restored.shape == image.shape
        assert np.abs(restored - np.clip(image, 0, 1)).max() <= 1.0 / 255 + 1e-6

    def test_read_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "fake.ppm"
        path.write_bytes(b"JUNK")
        with pytest.raises(ValueError):
            read_ppm(str(path))

    def test_draw_box_marks_outline(self):
        image = np.zeros((3, 20, 20), np.float32)
        boxed = draw_box(image, (5, 5, 15, 15), color=(1.0, 0.0, 0.0))
        assert boxed[0, 5, 10] == 1.0       # top edge
        assert boxed[0, 10, 5] == 1.0       # left edge
        assert boxed[0, 10, 10] == 0.0      # interior untouched
        assert image.max() == 0.0           # original untouched

    def test_export_scene(self, tmp_path):
        scene = SceneGenerator(SceneConfig(), seed=0).generate()
        path = str(tmp_path / "scene.ppm")
        export_scene(scene, path)
        restored = read_ppm(path)
        assert restored.shape == scene.image.shape


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tasks_command(self, capsys):
        assert main(["tasks"]) == 0
        out = capsys.readouterr().out
        assert "roadside_hazards" in out and "driving" in out

    def test_graph_command(self, capsys):
        assert main(["graph", "--task", "cargo_audit"]) == 0
        out = capsys.readouterr().out
        assert "cyan" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "--task", "cargo_audit", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_graph_unknown_task(self):
        with pytest.raises(KeyError):
            main(["graph", "--task", "nonexistent"])

    def test_models_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert main(["models"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_quant_bench_command(self):
        """E12's kernel and forward workloads; each raises before timing
        unless its outputs are bit-identical."""
        from benchmarks.bench_e12_quant_inference import (
            run_forward_latency,
            run_kernel_latency,
        )

        rows = run_kernel_latency(rows_per_gemm=64, repeats=1)
        assert "patch_proj" in {row["site"] for row in rows}
        forward_rows, speedup = run_forward_latency(batch_images=8,
                                                    repeats=1)
        assert [row["mode"] for row in forward_rows] == [
            "blas_fast", "int64_reference"]
        assert speedup > 0


class TestArtifactsCLI:
    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch, tiny_vit):
        from repro.core import ModelRegistry

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        registry = ModelRegistry(str(tmp_path))
        registry.save("demo", tiny_vit, extra={"role": "test"})
        return registry

    def test_list_empty(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert main(["artifacts", "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_verify_clean_cache(self, capsys, cache):
        assert main(["artifacts", "verify"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "0 corrupt" in out

    def test_verify_flags_truncated_weights(self, capsys, cache):
        weights = cache._paths("demo")["weights"]
        with open(weights, "r+b") as handle:
            handle.truncate(100)
        assert main(["artifacts", "verify"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and "1 corrupt" in out

    def test_verify_quarantine_then_gc(self, capsys, cache):
        import os

        weights = cache._paths("demo")["weights"]
        with open(weights, "wb") as handle:
            handle.write(b"garbage")
        assert main(["artifacts", "verify", "--quarantine"]) == 1
        assert os.path.isdir(cache.quarantine_root)
        assert os.listdir(cache.quarantine_root)
        assert main(["artifacts", "gc"]) == 0
        assert not os.path.isdir(cache.quarantine_root)
        # cache is clean (and empty) again
        assert main(["artifacts", "verify"]) == 0

    def test_gc_dry_run_removes_nothing(self, capsys, cache):
        import os

        lock = os.path.join(cache.root, "stale.lock")
        with open(lock, "w") as handle:
            handle.write("pid=1\n")
        assert main(["artifacts", "gc", "--dry-run"]) == 0
        assert os.path.exists(lock)
        assert "would remove" in capsys.readouterr().out
        assert main(["artifacts", "gc"]) == 0
        assert not os.path.exists(lock)

    def test_models_survives_corrupt_meta(self, capsys, cache):
        meta = cache._paths("demo")["meta"]
        with open(meta, "w") as handle:
            handle.write("{ nope")
        assert main(["models"]) == 0
        assert "unreadable meta" in capsys.readouterr().out


class TestFuzzCLI:
    def test_fuzz_run_smoke(self, capsys, tmp_path):
        assert main(["fuzz", "run", "--seed", "0", "--budget", "4",
                     "--artifacts-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out and "0 divergent" in out
        assert not list(tmp_path.glob("*.json"))   # no divergence, no case

    def test_fuzz_corpus_smoke(self, capsys):
        assert main(["fuzz", "corpus"]) == 0
        out = capsys.readouterr().out
        assert "bug_zero_cells.json: ok" in out
        assert "0 divergent" in out

    def test_fuzz_corpus_empty_dir_fails(self, capsys, tmp_path):
        assert main(["fuzz", "corpus", "--dir", str(tmp_path)]) == 1
        assert "no corpus case files" in capsys.readouterr().out

    def test_fuzz_replay_clean_case(self, capsys):
        from repro.fuzz import default_corpus_dir

        case = str(default_corpus_dir() / "bug_stale_aging.json")
        assert main(["fuzz", "replay", case]) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_fuzz_replay_reports_divergence(self, capsys, tmp_path,
                                            monkeypatch):
        """A recorded divergence replays deterministically to exit 1."""
        import json

        import repro.fuzz.runner as runner_module
        from repro.fuzz import default_corpus_dir
        from repro.fuzz.oracles import Divergence

        def broken_oracle(spec, ctx):
            return [Divergence("stream_fused", "synthetic divergence")]

        monkeypatch.setattr(runner_module, "ORACLES",
                            (("stream_fused", broken_oracle),))
        with open(default_corpus_dir() / "bug_zero_cells.json") as handle:
            case = json.load(handle)
        case["divergences"] = [{"oracle": "stream_fused",
                                "message": "synthetic divergence",
                                "details": {}}]
        path = tmp_path / "divergent.json"
        path.write_text(json.dumps(case))
        assert main(["fuzz", "replay", str(path)]) == 1
        assert "synthetic divergence" in capsys.readouterr().out


class TestStreamCLI:
    """`repro stream run` — hermetic via --untrained — and the E14
    benchmark on the same model."""

    @pytest.fixture(scope="class")
    def untrained(self):
        from repro.cli import _stream_model_matcher

        return _stream_model_matcher(
            build_parser().parse_args(["stream", "run", "--untrained"]))

    def test_stream_run_smoke(self, capsys):
        assert main(["stream", "run", "--untrained", "--frames", "3",
                     "--grid", "2", "--motion-rate", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "stream run: task=roadside_hazards" in out
        assert "frame   0:" in out and "frame   2:" in out
        assert "delta gate:" in out and "hit rate" in out

    def test_stream_run_no_delta_gate(self, capsys):
        assert main(["stream", "run", "--untrained", "--frames", "2",
                     "--grid", "2", "--no-delta-gate"]) == 0
        out = capsys.readouterr().out
        assert "delta_gate=False" in out
        assert "delta gate:" not in out   # no gate summary when disabled

    def test_stream_bench_smoke(self, untrained):
        from benchmarks.bench_e14_stream import run_stream_bench

        for motion_rate in (0.0, 1.0):
            row = run_stream_bench(*untrained, num_cameras=1, num_frames=4,
                                   grid=2, motion_rate=motion_rate, seed=3)
            assert row["speedup"] > 0
            assert row["identical"] is True, row["mismatch"]

    def test_stream_bench_carryover_mode(self, untrained):
        from benchmarks.bench_e14_stream import run_stream_bench
        from repro.stream import TrackerConfig

        row = run_stream_bench(
            *untrained, num_cameras=1, num_frames=3, grid=2,
            motion_rate=0.5, tracker=TrackerConfig(refresh_every=2),
            gate=TrackerConfig(delta_gate=True, motion_threshold=0.05,
                               refresh_every=2),
            seed=3)
        # approximate gate: identity is not asserted
        assert row["exact_gate"] is False and row["identical"] is None
