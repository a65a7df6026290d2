"""Differential fuzzer: generators, oracles, shrinker, corpus, campaign.

The pre-fix reproduction tests re-introduce each fixed streaming bug as
a *legacy* implementation injected through the execution context, then
assert that the bug's committed corpus scenario trips the matching
oracle — the guarantee that reverting any of the four fixes turns the
seed corpus red.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.detect.pipeline import predict_windows, score_predictions
from repro.fuzz import (
    ModelCache,
    ScenarioSpec,
    build_context,
    generate_scenario,
    iter_corpus,
    load_case,
    replay_case,
    run_campaign,
    run_scenario,
    save_case,
    shrink_spec,
    spec_from_case,
)
from repro.fuzz.operators import all_operators
from repro.fuzz.runner import failing_oracles
from repro.fuzz.scenario import shift_deaths_early
from repro.fuzz.shrinker import candidate_shrinks
from repro.stream.metrics import StreamingMetrics
from repro.stream.sequence import FrameState
from repro.stream.tracker import StreamingDetector, Track


@pytest.fixture(scope="module")
def model_cache():
    """One model LRU shared across the module (construction is seeded)."""
    return ModelCache()


@pytest.fixture(scope="module")
def corpus():
    cases = list(iter_corpus())
    assert cases, "committed seed corpus is missing"
    return {path.stem: spec for path, spec in cases}


# ----------------------------------------------------------------------
# generator determinism and validity
# ----------------------------------------------------------------------
class TestGenerator:
    def test_same_seed_same_scenario(self):
        for seed in (0, 1, 17, 123):
            assert generate_scenario(seed) == generate_scenario(seed)

    def test_seeds_produce_diverse_scenarios(self):
        specs = {generate_scenario(seed) for seed in range(30)}
        assert len(specs) > 20

    def test_generated_specs_are_valid_and_materialize(self):
        for seed in range(25):
            spec = generate_scenario(seed)
            scenes = spec.build_scenes()
            frames = spec.build_frames()
            assert len(scenes) == spec.num_scenes
            assert len(frames) == spec.num_frames
            assert len(spec.frame_grids) == spec.num_frames

    def test_ops_provenance_recorded(self):
        spec = generate_scenario(5)
        names = {op.name for op in all_operators()}
        assert spec.ops and set(spec.ops) <= names

    def test_workloads_are_deterministic(self):
        a, b = generate_scenario(9), generate_scenario(9)
        for scene_a, scene_b in zip(a.build_scenes(), b.build_scenes()):
            np.testing.assert_array_equal(scene_a.image, scene_b.image)
        for frame_a, frame_b in zip(a.build_frames(), b.build_frames()):
            np.testing.assert_array_equal(frame_a.scene.image,
                                          frame_b.scene.image)
            assert frame_a.deaths == frame_b.deaths

    def test_spec_json_roundtrip(self):
        for seed in range(10):
            spec = generate_scenario(seed)
            payload = json.loads(json.dumps(spec.to_json_dict()))
            assert ScenarioSpec.from_json_dict(payload) == spec

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(num_frames=0)
        with pytest.raises(ValueError):
            ScenarioSpec(num_frames=2, grid_schedule=(1,))
        with pytest.raises(ValueError):
            ScenarioSpec(on_threshold=0.2, off_threshold=0.4)

    def test_shift_deaths_early(self):
        spec = ScenarioSpec(num_frames=3, grid_schedule=(1, 1, 1))
        frames = spec.build_frames()
        # independent frames: frame k's objects die on frame k itself
        for state in frames:
            assert set(state.object_ids) <= set(state.deaths)

    def test_shift_deaths_early_is_shape_preserving(self):
        states = [
            FrameState(index=i, scene=None, object_ids=[i],
                       births=[i], deaths=([i - 1] if i else []))
            for i in range(3)
        ]
        shifted = shift_deaths_early(states)
        assert [s.deaths for s in shifted] == [[0], [1], []]


# ----------------------------------------------------------------------
# shrinker
# ----------------------------------------------------------------------
class TestShrinker:
    def test_candidates_are_valid_specs(self):
        for seed in range(10):
            for candidate in candidate_shrinks(generate_scenario(seed)):
                assert isinstance(candidate, ScenarioSpec)

    def test_converges_to_minimal_failing_spec(self):
        spec = generate_scenario(2)
        spec = dataclasses.replace(spec, num_frames=6, grid_schedule=(),
                                   early_deaths=True, num_scenes=4)

        def still_fails(candidate):
            return candidate.num_frames >= 3 and candidate.early_deaths

        shrunk = shrink_spec(spec, still_fails)
        assert still_fails(shrunk)
        assert shrunk.num_frames == 3
        assert shrunk.num_scenes == 1
        assert shrunk.early_deaths

    def test_returns_input_when_nothing_shrinks(self):
        spec = generate_scenario(3)
        assert shrink_spec(spec, lambda candidate: False) == spec

    def test_terminates_within_check_budget(self):
        spec = generate_scenario(4)
        calls = []

        def always_fails(candidate):
            calls.append(candidate)
            return True

        shrink_spec(spec, always_fails, max_checks=25)
        assert len(calls) <= 25

    def test_deterministic(self):
        spec = generate_scenario(6)

        def still_fails(candidate):
            return candidate.num_frames >= 2

        assert shrink_spec(spec, still_fails) == shrink_spec(spec, still_fails)


# ----------------------------------------------------------------------
# corpus + oracle agreement
# ----------------------------------------------------------------------
BUG_CASES = ("bug_zero_cells", "bug_stale_aging", "bug_fused_aliasing",
             "bug_early_death_metrics", "bug_stale_specialist_graph",
             "bug_cls_only_gemv")


class TestCorpus:
    def test_bug_cases_present(self, corpus):
        assert set(BUG_CASES) <= set(corpus)

    def test_case_files_roundtrip(self, tmp_path, model_cache, corpus):
        result = run_scenario(corpus["bug_zero_cells"], cache=model_cache)
        path = save_case(tmp_path, result, name="roundtrip")
        case = load_case(path)
        assert spec_from_case(case) == corpus["bug_zero_cells"]
        assert case["divergences"] == []

    def test_save_case_never_overwrites(self, tmp_path, model_cache, corpus):
        result = run_scenario(corpus["bug_zero_cells"], cache=model_cache)
        first = save_case(tmp_path, result, name="dup")
        second = save_case(tmp_path, result, name="dup")
        assert first != second and first.exists() and second.exists()

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "spec": {}}))
        with pytest.raises(ValueError):
            load_case(path)

    @pytest.mark.parametrize("name", BUG_CASES)
    def test_seed_corpus_agrees_on_fixed_code(self, name, corpus, model_cache):
        """Every oracle passes on the committed bug scenarios today."""
        result = run_scenario(corpus[name], cache=model_cache)
        assert result.ok, [d.message for d in result.divergences]

    def test_coverage_cases_agree(self, corpus, model_cache):
        for name, spec in corpus.items():
            if name.startswith("coverage_"):
                result = run_scenario(spec, cache=model_cache)
                assert result.ok, (name,
                                   [d.message for d in result.divergences])

    def test_coverage_cases_match_generator(self, corpus):
        """coverage_seedN is exactly what the generator emits for seed N."""
        for name, spec in corpus.items():
            if name.startswith("coverage_seed"):
                seed = int(name.removeprefix("coverage_seed"))
                assert generate_scenario(seed) == spec


# ----------------------------------------------------------------------
# pre-fix reproduction: legacy implementations must trip the oracles
# ----------------------------------------------------------------------
class LegacyStackDetector(StreamingDetector):
    """Seed ``_cells_and_windows``: ``np.stack`` on a possibly-empty list."""

    @staticmethod
    def _cells_and_windows(scene):
        cells, windows = [], []
        for row, col, _bbox, window in scene.iter_cells():
            cells.append((row, col))
            windows.append(window)
        return cells, np.stack(windows)


class LegacyAgingDetector(StreamingDetector):
    """Seed ``_advance``: unobserved cells keep stale EMAs and never age."""

    def _advance(self, raw):
        self._frame += 1
        cfg = self.config
        for cell, score in raw.items():
            previous = self._ema.get(cell, score)
            self._ema[cell] = (cfg.smoothing * previous
                               + (1 - cfg.smoothing) * float(score))
        for cell, smoothed in self._ema.items():
            track = self._tracks.get(cell)
            if track is None or not track.active:
                if smoothed >= cfg.on_threshold:
                    track = Track(track_id=self._next_track_id, cell=cell,
                                  first_frame=self._frame,
                                  last_frame=self._frame, score=smoothed)
                    self._next_track_id += 1
                    self._tracks[cell] = track
                    self._history.append(track)
                continue
            track.score = smoothed
            if smoothed >= cfg.off_threshold:
                track.last_frame = self._frame
                track.missed = 0
            else:
                track.missed += 1
                if track.missed > cfg.max_missed_frames:
                    track.active = False
        return self.active_tracks()


class LegacyAliasDetector(StreamingDetector):
    """Seed ``update_many``: per-frame snapshots share mutable Tracks."""

    def update_many(self, scenes):
        scenes = list(scenes)
        if not scenes:
            return []
        per_frame_cells, parts = [], []
        for scene in scenes:
            cells, windows = self._cells_and_windows(scene)
            per_frame_cells.append(cells)
            parts.append(windows)
        nonempty = [p for p in parts if p.shape[0]]
        all_windows = (np.concatenate(nonempty, axis=0) if nonempty
                       else parts[0])
        predictions = predict_windows(self.model, all_windows)
        _, _, combined = score_predictions(predictions, self.matcher)
        snapshots, start = [], 0
        for cells in per_frame_cells:
            stop = start + len(cells)
            raw = dict(zip(cells, combined[start:stop]))
            snapshots.append(list(self._advance(raw)))  # aliased snapshot
            start = stop
        return snapshots


def legacy_evaluate_stream(detector, sequence, task, num_frames=40):
    """Seed ``evaluate_stream``: collects ``dead`` but never consults it."""
    correct = total = flips = 0
    previous, birth, detect = {}, {}, {}
    dead, relevant_ids = set(), set()
    for state in sequence.frames(num_frames):
        scene = state.scene
        fired = {t.cell for t in detector.update(scene)}
        relevant = {}
        for obj, obj_id in zip(scene.objects, state.object_ids):
            if task.matches(obj.profile):
                relevant[obj.cell] = obj_id
                relevant_ids.add(obj_id)
                birth.setdefault(obj_id, state.index)
        dead.update(state.deaths)
        for row in range(scene.grid):
            for col in range(scene.grid):
                cell = (row, col)
                decision = cell in fired
                correct += int(decision == (cell in relevant))
                total += 1
                if cell in previous and previous[cell] != decision:
                    flips += 1
                previous[cell] = decision
        for cell, obj_id in relevant.items():
            if cell in fired and obj_id not in detect:  # pre-fix: no dead check
                detect[obj_id] = state.index
    latencies = [detect[i] - birth[i] for i in detect if i in birth]
    return StreamingMetrics(
        frame_accuracy=correct / max(total, 1),
        mean_detection_latency=(float(np.mean(latencies)) if latencies
                                else float("nan")),
        detected_fraction=len(detect) / max(len(relevant_ids), 1),
        flicker_rate=flips / max(total, 1),
        frames=num_frames,
    )


class TestPreFixReproduction:
    """Each corpus bug scenario fails when its fix is reverted."""

    def _run_with_legacy(self, spec, model_cache, stream_cls=None,
                         evaluate_fn=None):
        context = build_context(spec, model_cache)
        if stream_cls is not None:
            context.stream_cls = stream_cls
        if evaluate_fn is not None:
            context.evaluate_fn = evaluate_fn
        return run_scenario(spec, context=context)

    def test_zero_cell_crash_reproduces(self, corpus, model_cache):
        result = self._run_with_legacy(corpus["bug_zero_cells"], model_cache,
                                       stream_cls=LegacyStackDetector)
        assert not result.ok
        assert any(d.message.startswith("crash:")
                   for d in result.divergences)

    def test_stale_aging_reproduces(self, corpus, model_cache):
        result = self._run_with_legacy(corpus["bug_stale_aging"], model_cache,
                                       stream_cls=LegacyAgingDetector)
        assert "stream_invariants" in failing_oracles(result)
        assert any("survives" in d.message for d in result.divergences)

    def test_fused_aliasing_reproduces(self, corpus, model_cache):
        result = self._run_with_legacy(corpus["bug_fused_aliasing"],
                                       model_cache,
                                       stream_cls=LegacyAliasDetector)
        assert "stream_fused" in failing_oracles(result)

    def test_post_death_metrics_reproduces(self, corpus, model_cache):
        result = self._run_with_legacy(corpus["bug_early_death_metrics"],
                                       model_cache,
                                       evaluate_fn=legacy_evaluate_stream)
        assert failing_oracles(result) == ("stream_metrics",)
        assert any(d.details.get("metric") == "detected_fraction"
                   for d in result.divergences)

    def test_stale_specialist_graph_reproduces(self, corpus, model_cache,
                                               monkeypatch):
        """Version-only mission fingerprints serve stale sessions.

        Neutering the graph content digest reverts the fingerprint to
        its legacy (name, version) form; the pinned scenario replaces a
        registered specialist graph with an equal-version different-
        content one and the pipeline_session oracle must catch the
        session cache serving the pre-replacement decision.
        """
        import repro.serve.session as serve_session

        monkeypatch.setattr(serve_session, "_graph_digest", lambda kg: "")
        result = run_scenario(corpus["bug_stale_specialist_graph"],
                              cache=model_cache)
        assert "pipeline_session" in failing_oracles(result)
        assert any("graph_replacement_invalidation" in d.message
                   for d in result.divergences)


# ----------------------------------------------------------------------
# campaign + replay
# ----------------------------------------------------------------------
class TestCampaignAndReplay:
    def test_small_campaign_is_clean(self):
        report = run_campaign(seed=0, budget=8, artifacts_dir=None)
        assert report.ok and report.executed == 8

    def test_replay_is_deterministic(self, corpus, model_cache):
        case = {"schema": 1, "spec": corpus["bug_stale_aging"].to_json_dict()}
        first = replay_case(case, cache=model_cache)
        second = replay_case(case, cache=model_cache)
        assert first.as_dict() == second.as_dict()
        assert first.ok

    def test_replay_respects_recorded_oracle_subset(self, corpus, model_cache):
        case = {"schema": 1,
                "spec": corpus["bug_zero_cells"].to_json_dict(),
                "oracles": ["stream_invariants"]}
        result = replay_case(case, cache=model_cache)
        assert result.oracles_run == ("stream_invariants",)

    def test_campaign_records_and_shrinks_divergences(self, tmp_path,
                                                      monkeypatch):
        """A failing oracle produces a shrunk, replayable case file."""
        import repro.fuzz.runner as runner_module

        def broken_oracle(spec, ctx):
            from repro.fuzz.oracles import Divergence
            if spec.num_frames >= 2:
                return [Divergence("broken", "synthetic failure")]
            return []

        monkeypatch.setattr(runner_module, "ORACLES",
                            (("broken", broken_oracle),))
        report = run_campaign(seed=0, budget=1,
                              artifacts_dir=str(tmp_path))
        assert not report.ok
        assert len(report.case_paths) == 1
        case = load_case(report.case_paths[0])
        assert case["divergences"][0]["oracle"] == "broken"
        # the shrinker drove the workload to its failure boundary
        shrunk = spec_from_case(case)
        assert shrunk.num_frames == 2
        assert shrunk.num_scenes == 1
        # and the recorded case replays to the same divergence
        replayed = replay_case(case)
        assert failing_oracles(replayed) == ("broken",)

    def test_crash_in_build_is_recorded_not_raised(self, monkeypatch):
        import repro.fuzz.runner as runner_module

        def exploding_context(spec, cache=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner_module, "build_context",
                            exploding_context)
        result = runner_module.run_scenario(generate_scenario(0))
        assert not result.ok
        assert result.divergences[0].oracle == "build"
        assert "boom" in result.divergences[0].message
