"""Streaming subsystem: sequences, tracker hysteresis, metrics, gating."""

import dataclasses

import numpy as np
import pytest

from repro.data import SceneConfig, get_task
from repro.stream import (
    SceneSequence,
    ScriptedSequence,
    SequenceConfig,
    StreamingDetector,
    TrackerConfig,
    evaluate_stream,
)
from repro.stream.tracker import GateStats, Track


class TestSequence:
    def test_deterministic(self):
        a = SceneSequence(seed=3)
        b = SceneSequence(seed=3)
        fa, fb = a.step(), b.step()
        np.testing.assert_array_equal(fa.scene.image, fb.scene.image)
        assert fa.object_ids == fb.object_ids

    def test_frame_indices_increase(self):
        seq = SceneSequence(seed=0)
        indices = [state.index for state in seq.frames(5)]
        assert indices == [0, 1, 2, 3, 4]

    def test_object_ids_align_with_objects(self):
        seq = SceneSequence(seed=1)
        state = seq.step()
        assert len(state.object_ids) == len(state.scene.objects)
        assert len(set(state.object_ids)) == len(state.object_ids)

    def test_persistence_across_frames(self):
        """With zero birth/death, the population is frozen."""
        config = SequenceConfig(birth_rate=0.0, death_rate=0.0)
        seq = SceneSequence(config, seed=2)
        first = seq.step()
        later = seq.step()
        assert set(first.object_ids) == set(later.object_ids)
        assert later.births == [] and later.deaths == []

    def test_high_death_rate_clears_scene(self):
        config = SequenceConfig(birth_rate=0.0, death_rate=1.0)
        seq = SceneSequence(config, seed=4)
        state = seq.step()
        assert state.scene.objects == []

    def test_births_fill_free_cells(self):
        config = SequenceConfig(birth_rate=1.0, death_rate=0.0)
        seq = SceneSequence(config, seed=5)
        state = seq.step()
        assert len(state.scene.objects) == config.scene.grid ** 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SequenceConfig(birth_rate=1.5)


class TestTrackerConfig:
    def test_threshold_ordering(self):
        with pytest.raises(ValueError):
            TrackerConfig(on_threshold=0.3, off_threshold=0.5)

    def test_smoothing_range(self):
        with pytest.raises(ValueError):
            TrackerConfig(smoothing=1.0)


class TestStreamingDetector:
    @pytest.fixture()
    def detector(self, student_vit):
        return StreamingDetector(student_vit, matcher=None,
                                 config=TrackerConfig(on_threshold=0.2,
                                                      off_threshold=0.1))

    def test_update_returns_tracks(self, detector):
        seq = SceneSequence(seed=6)
        tracks = detector.update(seq.step().scene)
        assert all(isinstance(t, Track) for t in tracks)
        for t in tracks:
            assert 0.0 <= t.score <= 1.0

    def test_track_ids_stable_on_static_scene(self, detector):
        config = SequenceConfig(birth_rate=0.0, death_rate=0.0)
        seq = SceneSequence(config, seed=7)
        first = {t.cell: t.track_id for t in detector.update(seq.step().scene)}
        second = {t.cell: t.track_id for t in detector.update(seq.step().scene)}
        for cell, track_id in second.items():
            if cell in first:
                assert first[cell] == track_id

    def test_reset(self, detector):
        seq = SceneSequence(seed=8)
        detector.update(seq.step().scene)
        detector.reset()
        assert detector.active_tracks() == []
        assert detector.all_tracks == []

    def test_hysteresis_keeps_track_through_dip(self, student_vit):
        """A smoothed score dipping between off and on thresholds must
        not drop the track."""
        detector = StreamingDetector(student_vit, matcher=None,
                                     config=TrackerConfig(
                                         smoothing=0.0, on_threshold=0.2,
                                         off_threshold=0.05,
                                         max_missed_frames=2))
        # drive with synthetic scores by monkeypatching the scorer
        cells = [(0, 0)]
        scores = iter([0.5, 0.1, 0.1, 0.5])
        detector._score_chunk = lambda scenes: [{cells[0]: next(scores)}
                                                 for _ in scenes]
        seq = SceneSequence(seed=9)
        scene = seq.step().scene
        for _ in range(4):
            tracks = detector.update(scene)
        assert len(tracks) == 1 and tracks[0].active


class TestEvaluateStream:
    def test_metrics_contract(self, student_vit):
        task = get_task("roadside_hazards")
        detector = StreamingDetector(student_vit, matcher=None)
        seq = SceneSequence(seed=10)
        metrics = evaluate_stream(detector, seq, task, num_frames=5)
        assert 0.0 <= metrics.frame_accuracy <= 1.0
        assert 0.0 <= metrics.flicker_rate <= 1.0
        assert 0.0 <= metrics.detected_fraction <= 1.0
        assert metrics.frames == 5
        assert set(metrics.as_dict()) == {
            "frame_accuracy", "mean_detection_latency", "detected_fraction",
            "flicker_rate", "frames",
        }


class _ScriptedDetector:
    """Minimal detector stub: fires a fixed cell set every frame."""

    def __init__(self, cells):
        self._cells = list(cells)
        self._next_id = 0

    def update(self, scene):
        tracks = [Track(track_id=i, cell=cell, first_frame=0, last_frame=0,
                        score=1.0)
                  for i, cell in enumerate(self._cells)]
        return tracks


class TestStreamFixRegressions:
    """One regression test per bug fixed in this PR (see ISSUE 6)."""

    # -- fix 1: zero-cell scenes must not crash ------------------------
    def test_update_on_zero_cell_scene(self, student_vit):
        from repro.data import SceneGenerator

        detector = StreamingDetector(student_vit, matcher=None)
        empty = SceneGenerator(SceneConfig(grid=0), seed=0).generate()
        assert detector.update(empty) == []

    def test_update_many_with_zero_cell_frames(self, student_vit):
        from repro.data import SceneGenerator

        scenes = [
            SceneGenerator(SceneConfig(grid=2), seed=1).generate(),
            SceneGenerator(SceneConfig(grid=0), seed=2).generate(),
            SceneGenerator(SceneConfig(grid=1), seed=3).generate(),
        ]
        config = TrackerConfig(on_threshold=0.05, off_threshold=0.02)
        fused = StreamingDetector(student_vit, matcher=None,
                                  config=config).update_many(scenes)
        sequential_detector = StreamingDetector(student_vit, matcher=None,
                                                config=config)
        sequential = [
            [Track(**vars(t)) for t in sequential_detector.update(scene)]
            for scene in scenes
        ]
        assert len(fused) == 3
        for fused_frame, seq_frame in zip(fused, sequential):
            assert ([(t.track_id, t.cell, t.last_frame, t.missed, t.score)
                     for t in fused_frame]
                    == [(t.track_id, t.cell, t.last_frame, t.missed, t.score)
                        for t in seq_frame])

    def test_all_zero_cell_chunk(self, student_vit):
        from repro.data import SceneGenerator

        empty = SceneGenerator(SceneConfig(grid=0), seed=4).generate()
        detector = StreamingDetector(student_vit, matcher=None)
        assert detector.update_many([empty, empty]) == [[], []]

    # -- fix 2: unobserved cells must decay and age --------------------
    def test_unobserved_track_ages_out(self, student_vit):
        detector = StreamingDetector(
            student_vit, matcher=None,
            config=TrackerConfig(smoothing=0.5, on_threshold=0.4,
                                 off_threshold=0.2, max_missed_frames=2))
        cell = (0, 0)
        tracks = detector._advance({cell: 0.9})
        assert len(tracks) == 1 and tracks[0].missed == 0
        # the cell is never observed again: the track must age out
        for expected_missed in (1, 2):
            tracks = detector._advance({})
            assert len(tracks) == 1
            assert tracks[0].missed == expected_missed
            assert tracks[0].last_frame == 0
        assert detector._advance({}) == []        # missed=3 > budget: dead

    def test_unobserved_cell_ema_decays(self, student_vit):
        detector = StreamingDetector(
            student_vit, matcher=None,
            config=TrackerConfig(smoothing=0.5, on_threshold=0.95,
                                 off_threshold=0.9))
        cell = (1, 1)
        detector._advance({cell: 0.8})
        assert detector._ema[cell] == pytest.approx(0.8)
        detector._advance({})
        assert detector._ema[cell] == pytest.approx(0.4)

    def test_no_birth_from_stale_ema(self, student_vit):
        detector = StreamingDetector(
            student_vit, matcher=None,
            config=TrackerConfig(smoothing=0.0, on_threshold=0.3,
                                 off_threshold=0.1))
        # high smoothed score left over from an earlier frame
        detector._ema[(2, 2)] = 0.99
        assert detector._advance({}) == []

    # -- fix 3: update_many snapshots must be frame-local copies -------
    def test_update_many_snapshots_are_isolated(self, student_vit):
        config = SequenceConfig(birth_rate=0.0, death_rate=0.0)
        seq = SceneSequence(config, seed=12)
        scenes = [seq.step().scene for _ in range(3)]
        detector = StreamingDetector(
            student_vit, matcher=None,
            config=TrackerConfig(on_threshold=0.05, off_threshold=0.02))
        snapshots = detector.update_many(scenes)
        first, last = snapshots[0], snapshots[-1]
        assert first, "expected tracks on frame 0 at this threshold"
        for track in first:
            assert track.last_frame == 0      # pre-fix: rewritten to 2
        shared = {id(t) for t in first} & {id(t) for t in last}
        assert not shared

    def test_update_many_matches_repeated_update(self, student_vit):
        seq = SceneSequence(SequenceConfig(), seed=13)
        scenes = [seq.step().scene for _ in range(3)]
        config = TrackerConfig(on_threshold=0.05, off_threshold=0.02)
        fused = StreamingDetector(student_vit, matcher=None,
                                  config=config).update_many(scenes)
        sequential_detector = StreamingDetector(student_vit, matcher=None,
                                                config=config)
        for scene, fused_frame in zip(scenes, fused):
            expected = sequential_detector.update(scene)
            assert ([(t.track_id, t.cell, t.first_frame, t.last_frame,
                      t.missed, t.active) for t in fused_frame]
                    == [(t.track_id, t.cell, t.first_frame, t.last_frame,
                         t.missed, t.active) for t in expected])
            assert ([t.score for t in fused_frame]
                    == [t.score for t in expected])

    # -- fix 4: evaluate_stream must not credit post-death detections --
    @staticmethod
    def _one_object_frames(deaths_on_frame0):
        from repro.data.ontology import sample_profile
        from repro.data.scenes import ObjectInstance, Scene
        from repro.stream.sequence import FrameState

        rng = np.random.default_rng(0)
        profile = sample_profile(rng).replace(
            color="red", shape="square", texture="solid")
        scene = Scene(
            image=np.zeros((3, 32, 32), dtype=np.float32),
            objects=[ObjectInstance(profile=profile, bbox=(0, 0, 32, 32),
                                    category=None, cell=(0, 0))],
            grid=1, cell_size=32)
        return [FrameState(index=0, scene=scene, object_ids=[7], births=[7],
                           deaths=([7] if deaths_on_frame0 else []))]

    def test_detection_after_death_not_credited(self):
        task = get_task("stop_control")
        detector = _ScriptedDetector([(0, 0)])
        states = self._one_object_frames(deaths_on_frame0=True)
        metrics = evaluate_stream(detector, ScriptedSequence(states), task,
                                  num_frames=1)
        assert metrics.detected_fraction == 0.0
        assert np.isnan(metrics.mean_detection_latency)

    def test_detection_while_alive_still_credited(self):
        task = get_task("stop_control")
        detector = _ScriptedDetector([(0, 0)])
        states = self._one_object_frames(deaths_on_frame0=False)
        metrics = evaluate_stream(detector, ScriptedSequence(states), task,
                                  num_frames=1)
        assert metrics.detected_fraction == 1.0
        assert metrics.mean_detection_latency == 0.0


# ----------------------------------------------------------------------
# frame-delta gating (incremental detection)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fuzz_model_pair():
    """Tiny deterministic float/quantized pair (16x16 cell windows)."""
    from repro.fuzz.runner import build_model_pair
    from repro.fuzz.scenario import ModelSpec

    return build_model_pair(ModelSpec())


def _gate_scenes(seed, num_frames=6, grid=3, motion_rate=0.25,
                 birth_rate=0.06, death_rate=0.04):
    """Frames at the fuzz models' 16px cell size, incremental rendering."""
    config = SequenceConfig(
        scene=SceneConfig(grid=grid, cell_size=16),
        birth_rate=birth_rate, death_rate=death_rate,
        motion_rate=motion_rate)
    return [state.scene
            for state in SceneSequence(config, seed=seed).frames(num_frames)]


def _run(model, scenes, config, matcher=None):
    detector = StreamingDetector(model, matcher=matcher, config=config)
    snapshots = [[dataclasses.replace(t) for t in detector.update(scene)]
                 for scene in scenes]
    return snapshots, detector


def _track_tuples(snapshots):
    return [[(t.track_id, t.cell, t.first_frame, t.last_frame, t.active,
              t.missed) for t in frame] for frame in snapshots]


def _scores(snapshots):
    return [[t.score for t in frame] for frame in snapshots]


class _AnySizeModel:
    """Stand-in model for any window size or dtype: class logits from
    each window's pixel max and min, elementwise, so a window's score
    does not depend on its batch."""

    WEIGHTS = np.linspace(-3.0, 3.0, 18, dtype=np.float32).reshape(2, 9)

    def infer(self, images):
        rows = images.reshape(len(images), -1)
        logits = (rows.max(axis=1, keepdims=True) * self.WEIGHTS[0]
                  + rows.min(axis=1, keepdims=True) * self.WEIGHTS[1])
        return {"class_logits": logits.astype(np.float32), "attributes": {}}


class TestDeltaGating:
    """Property: gated == full recompute (the correctness contract)."""

    BASE = dict(on_threshold=0.2, off_threshold=0.1)

    @pytest.mark.parametrize("tracker_kwargs,sequence_kwargs", [
        # default smoothing/hysteresis, mostly-static feed
        (dict(), dict(motion_rate=0.05)),
        # no smoothing, busy feed
        (dict(smoothing=0.0), dict(motion_rate=0.5)),
        # heavy smoothing + tight hysteresis + periodic refresh
        (dict(smoothing=0.8, on_threshold=0.3, off_threshold=0.28,
              refresh_every=2), dict(motion_rate=0.25)),
        # birth/death churn with aggressive aging
        (dict(max_missed_frames=0, refresh_every=4),
         dict(motion_rate=0.1, birth_rate=0.5, death_rate=0.5)),
        # fully static after births: every cell should gate
        (dict(), dict(motion_rate=0.0, birth_rate=0.0, death_rate=0.0)),
    ])
    def test_gated_bit_equal_to_full_quantized(self, fuzz_model_pair,
                                               tracker_kwargs,
                                               sequence_kwargs):
        _, quantized = fuzz_model_pair
        kwargs = {**self.BASE, **tracker_kwargs}
        scenes = _gate_scenes(seed=21, **sequence_kwargs)
        full, _ = _run(quantized, scenes,
                       TrackerConfig(delta_gate=False, **kwargs))
        gated, detector = _run(quantized, scenes,
                               TrackerConfig(delta_gate=True, **kwargs))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)  # bit-exact, not approx
        stats = detector.gate_stats
        assert stats.frames == len(scenes)
        assert stats.skipped + stats.recomputed > 0

    def test_gated_equals_full_float(self, fuzz_model_pair):
        """Float path: the fixed-shape GEMM tiles are batch-invariant,
        so gating is bit-exact here too."""
        float_model, _ = fuzz_model_pair
        config = dict(self.BASE)
        scenes = _gate_scenes(seed=22, motion_rate=0.2)
        full, _ = _run(float_model, scenes,
                       TrackerConfig(delta_gate=False, **config))
        gated, _ = _run(float_model, scenes,
                        TrackerConfig(delta_gate=True, **config))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)

    def test_gated_with_zero_cell_frames(self, fuzz_model_pair):
        """A zero-cell frame mid-stream must not corrupt the cache."""
        from repro.data import SceneGenerator

        _, quantized = fuzz_model_pair
        busy = _gate_scenes(seed=23, num_frames=2, motion_rate=0.0,
                            birth_rate=0.0, death_rate=0.0)
        empty = SceneGenerator(SceneConfig(grid=0, cell_size=16),
                               seed=5).generate()
        scenes = [busy[0], empty, busy[1]]
        kwargs = dict(self.BASE, max_missed_frames=3)
        full, _ = _run(quantized, scenes,
                       TrackerConfig(delta_gate=False, **kwargs))
        gated, _ = _run(quantized, scenes,
                        TrackerConfig(delta_gate=True, **kwargs))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)

    def test_gated_with_early_death_churn(self, fuzz_model_pair):
        """Tracks dying while their cell's cache entry is live must not
        resurrect with stale scores."""
        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=24, num_frames=8, motion_rate=0.1,
                              birth_rate=1.0, death_rate=1.0)
        kwargs = dict(self.BASE, max_missed_frames=0)
        full, _ = _run(quantized, scenes,
                       TrackerConfig(delta_gate=False, **kwargs))
        gated, _ = _run(quantized, scenes,
                        TrackerConfig(delta_gate=True, **kwargs))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)

    @staticmethod
    def _drive(model, scenes, config, chunk=None, edit_at=None):
        """One gated detector over ``scenes``: ``update`` per frame
        (``chunk=None``) or ``update_many`` in ``chunk``-frame chunks.
        With ``edit_at``, the detector matches against its own KG and
        one constraint is edited before that frame.  Returns the
        snapshots, the gate stats and the gate counters it recorded."""
        from repro.kg import GraphMatcher, SimulatedLLM
        from repro.obs import get_registry

        matcher = None
        if edit_at is not None:
            matcher = GraphMatcher(SimulatedLLM().generate_for_task(
                get_task("roadside_hazards")))
        detector = StreamingDetector(model, matcher=matcher, config=config)
        registry = get_registry()
        registry.reset()
        step = chunk or 1
        snapshots = []
        for start in range(0, len(scenes), step):
            if start == edit_at:
                constraint = matcher.kg.constraints[0]
                matcher.kg.replace_constraint(dataclasses.replace(
                    constraint, weight=constraint.weight * 0.5))
            part = scenes[start:start + step]
            if chunk is None:
                snapshots.append([dataclasses.replace(t)
                                  for t in detector.update(part[0])])
            else:
                snapshots.extend(detector.update_many(part))
        recorded = {name: counter.value
                    for name, counter in registry.counters.items()
                    if name.startswith("stream.cells.")}
        recorded["hit_rate"] = registry.distributions[
            "stream.delta_gate.hit_rate"].merge_state()
        registry.reset()
        return snapshots, detector.gate_stats, recorded

    @staticmethod
    def _revert_frames():
        """A A B A B B A A: one cell changes and reverts inside chunks."""
        [scene] = _gate_scenes(seed=32, num_frames=1, motion_rate=0.0,
                               birth_rate=1.0, death_rate=0.0)
        image = scene.image.copy()
        size = scene.cell_size
        image[:, :size, :size] += 0.25
        changed = dataclasses.replace(scene, image=image)
        return [scene if key == "A" else changed for key in "AABABBAA"]

    @pytest.mark.parametrize("case", [
        "refresh_every", "kg_edit", "churn", "zero_cell_frames",
        "revert_in_chunk"])
    def test_update_many_gated_equals_sequential_update(
            self, fuzz_model_pair, case):
        """Gated ``update_many`` is bit-equal to sequential ``update``,
        with equal gate stats and counters, whatever the chunking."""
        from repro.data import SceneGenerator

        _, quantized = fuzz_model_pair
        kwargs = dict(self.BASE)
        chunk, edit_at = 3, None
        if case == "refresh_every":
            kwargs["refresh_every"] = 3
            scenes = _gate_scenes(seed=25, num_frames=8, motion_rate=0.25)
        elif case == "kg_edit":
            chunk, edit_at = 4, 4
            scenes = _gate_scenes(seed=25, num_frames=8, motion_rate=0.1)
        elif case == "churn":
            kwargs["max_missed_frames"] = 0
            scenes = _gate_scenes(seed=24, num_frames=8, motion_rate=0.1,
                                  birth_rate=1.0, death_rate=1.0)
        elif case == "zero_cell_frames":
            busy = _gate_scenes(seed=23, num_frames=3, motion_rate=0.25)
            empty = SceneGenerator(SceneConfig(grid=0, cell_size=16),
                                   seed=5).generate()
            scenes = [busy[0], empty, busy[1], empty, empty, busy[2]]
        else:
            chunk = 4
            scenes = self._revert_frames()
        config = TrackerConfig(delta_gate=True, **kwargs)
        sequential, seq_stats, seq_counters = self._drive(
            quantized, scenes, config, edit_at=edit_at)
        fused, fused_stats, fused_counters = self._drive(
            quantized, scenes, config, chunk=chunk, edit_at=edit_at)
        assert _track_tuples(fused) == _track_tuples(sequential)
        assert _scores(fused) == _scores(sequential)  # bit-exact
        assert fused_stats == seq_stats
        assert fused_counters == seq_counters
        if case == "revert_in_chunk":
            # frames 2, 3, 4 and 6 change the cell and must each re-score
            # it; the reverts to A may not reuse frame 0's entry
            cells = scenes[0].grid ** 2
            assert seq_stats.recomputed == cells + 4

    def test_gated_chunk_scores_in_one_forward(self, fuzz_model_pair):
        """An 8-frame chunk's changed cells go through one forward."""
        from repro.obs import get_registry

        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=33, num_frames=8, motion_rate=0.25)
        config = TrackerConfig(delta_gate=True, **self.BASE)
        registry = get_registry()
        registry.reset()
        _, detector = _run(quantized, scenes, config)
        per_frame = registry.timers["detect.model_forward"].calls
        assert per_frame > 1  # the feed changes after frame 0
        registry.reset()
        fused = StreamingDetector(quantized, matcher=None, config=config)
        fused.update_many(scenes)
        assert registry.timers["detect.model_forward"].calls == 1
        assert fused.gate_stats == detector.gate_stats
        registry.reset()

    def test_static_sequence_gate_hit_rate(self, fuzz_model_pair):
        """Frozen feed: after frame 0 every cell reuses its cache."""
        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=26, num_frames=5, motion_rate=0.0,
                              birth_rate=0.0, death_rate=0.0)
        cells = scenes[0].grid ** 2
        _, detector = _run(quantized, scenes,
                           TrackerConfig(delta_gate=True, **self.BASE))
        stats = detector.gate_stats
        assert stats.recomputed == cells          # frame 0 only
        assert stats.skipped == cells * (len(scenes) - 1)
        assert stats.carried == 0                 # exact gate, no carryover
        assert stats.hit_rate == pytest.approx(4 / 5)

    def test_gate_counters_and_distribution_recorded(self, fuzz_model_pair):
        from repro.obs import get_registry

        _, quantized = fuzz_model_pair
        registry = get_registry()
        registry.reset()
        scenes = _gate_scenes(seed=27, num_frames=3, motion_rate=0.0,
                              birth_rate=0.0, death_rate=0.0)
        _run(quantized, scenes, TrackerConfig(delta_gate=True, **self.BASE))
        counters = registry.counters
        cells = scenes[0].grid ** 2
        assert counters["stream.cells.recomputed"].value == cells
        assert counters["stream.cells.skipped"].value == cells * 2
        hit_rate = registry.distributions["stream.delta_gate.hit_rate"]
        assert hit_rate.count == len(scenes)
        assert hit_rate.max == 1.0
        # the snapshot protocol (cross-shard merge) must carry the gate
        # metrics, not just the in-process view
        state = hit_rate.merge_state()
        assert state["count"] == len(scenes)
        assert counters["stream.cells.skipped"].merge_state()["value_fp"] > 0
        registry.reset()

    def test_reset_clears_gate_state(self, fuzz_model_pair):
        """After ``reset`` nothing is reused: the next frame re-scores
        every cell, and the replay is bit-equal to a fresh detector."""
        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=28, num_frames=2, motion_rate=0.0)
        cells = scenes[0].grid ** 2
        _, detector = _run(quantized, scenes,
                           TrackerConfig(delta_gate=True, **self.BASE))
        assert detector.gate_stats.skipped and detector.gate_stats.frames == 2
        detector.reset()
        assert detector.gate_stats == GateStats()
        replay = [[dataclasses.replace(t) for t in detector.update(scenes[0])]]
        assert detector.gate_stats == GateStats(frames=1, recomputed=cells)
        replay.append([dataclasses.replace(t)
                       for t in detector.update(scenes[1])])
        fresh, fresh_detector = _run(
            quantized, scenes, TrackerConfig(delta_gate=True, **self.BASE))
        assert _track_tuples(replay) == _track_tuples(fresh)
        assert _scores(replay) == _scores(fresh)
        assert detector.gate_stats == fresh_detector.gate_stats

    def test_one_ulp_pixel_change_rescores_exactly_that_cell(
            self, fuzz_model_pair, monkeypatch):
        """The gate compares bytes: a one-ulp nudge to one pixel sends
        exactly that cell's window through the forward, and reverting
        it does again; the tracks stay bit-equal to full recompute."""
        import repro.stream.tracker as tracker

        _, quantized = fuzz_model_pair
        [scene] = _gate_scenes(seed=34, num_frames=1, motion_rate=0.0,
                               birth_rate=1.0, death_rate=0.0)
        size = scene.cell_size
        image = scene.image.copy()
        y, x = 1 * size + 5, 2 * size + 7  # cell (1, 2)
        image[1, y, x] = np.nextafter(image[1, y, x], np.float32(np.inf))
        nudged = dataclasses.replace(scene, image=image)
        scenes = [scene, nudged, nudged, scene]
        forwarded = []

        def recording(model, windows, *args, **kwargs):
            forwarded.append(windows.copy())
            return score_windows(model, windows, *args, **kwargs)

        score_windows = tracker.score_windows
        monkeypatch.setattr(tracker, "score_windows", recording)
        gated, detector = _run(quantized, scenes,
                               TrackerConfig(delta_gate=True, **self.BASE))
        full, _ = _run(quantized, scenes,
                       TrackerConfig(delta_gate=False, **self.BASE))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)
        cells = scene.grid ** 2
        assert detector.gate_stats == GateStats(
            frames=4, skipped=3 * cells - 2, recomputed=cells + 2)
        window = (slice(None), slice(size, 2 * size), slice(2 * size, 3 * size))
        assert [len(w) for w in forwarded[:3]] == [cells, 1, 1]
        np.testing.assert_array_equal(forwarded[1][0], image[window])
        np.testing.assert_array_equal(forwarded[2][0], scene.image[window])

    def test_failed_forward_leaves_no_stale_reference(self, fuzz_model_pair,
                                                      monkeypatch):
        """The reference takes a changed cell's pixels before the forward
        runs; a forward that raises must not leave them behind without
        their score, or the next frame would reuse the stale one."""
        import repro.stream.tracker as tracker

        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=35, num_frames=4, motion_rate=0.5)
        config = TrackerConfig(delta_gate=True, **self.BASE)
        full, _ = _run(quantized, scenes,
                       dataclasses.replace(config, delta_gate=False))
        detector = StreamingDetector(quantized, matcher=None, config=config)
        snapshots = [[dataclasses.replace(t)
                      for t in detector.update(scenes[0])]]

        def failing(*args, **kwargs):
            raise RuntimeError("forward failed")

        with monkeypatch.context() as patch:
            patch.setattr(tracker, "score_windows", failing)
            with pytest.raises(RuntimeError):
                detector.update(scenes[1])
        for scene in scenes[1:]:
            snapshots.append([dataclasses.replace(t)
                              for t in detector.update(scene)])
        assert _track_tuples(snapshots) == _track_tuples(full)
        assert _scores(snapshots) == _scores(full)

    def test_layout_changes_inside_an_update_many_chunk(self):
        """Grid 3 -> 2 -> 3, a zero-cell frame, a cell-size change and a
        dtype change, each starting a fresh cache mid-chunk: gated
        ``update_many``, sequential ``update`` and full recompute agree
        bit for bit, with equal gate stats."""
        from repro.data import SceneGenerator

        def scene(grid, cell_size=16, seed=0):
            return SceneGenerator(SceneConfig(grid=grid, cell_size=cell_size),
                                  seed=seed).generate()

        three, two, small = scene(3), scene(2, seed=1), scene(3, 12, seed=2)
        wide = dataclasses.replace(three, image=three.image.astype(np.float64))
        scenes = [three, three, two, two, three, scene(0), three, small,
                  small, three, wide, wide, three]
        model = _AnySizeModel()
        config = TrackerConfig(delta_gate=True, **self.BASE)
        full, _ = _run(model, scenes,
                       dataclasses.replace(config, delta_gate=False))
        sequential, detector = _run(model, scenes, config)
        for chunk in (len(scenes), 4):
            fused = StreamingDetector(model, matcher=None, config=config)
            snapshots = [snapshot for start in range(0, len(scenes), chunk)
                         for snapshot in fused.update_many(
                             scenes[start:start + chunk])]
            assert _track_tuples(snapshots) == _track_tuples(full)
            assert _scores(snapshots) == _scores(full)
            assert fused.gate_stats == detector.gate_stats
        assert _track_tuples(sequential) == _track_tuples(full)
        assert _scores(sequential) == _scores(full)
        # every layout change re-scores its frame; repeats reuse it all
        assert detector.gate_stats == GateStats(
            frames=13, skipped=9 + 4 + 9 + 9 + 9,
            recomputed=9 + 4 + 9 + 9 + 9 + 9 + 9)

    def test_kg_edit_invalidates_cached_scores(self, fuzz_model_pair):
        """Cache entries are keyed on the KG version: a constraint edit
        must force a full re-score even on unchanged pixels."""
        from repro.kg import GraphMatcher, SimulatedLLM

        _, quantized = fuzz_model_pair
        matcher = GraphMatcher(
            SimulatedLLM().generate_for_task(get_task("roadside_hazards")))
        scenes = _gate_scenes(seed=29, num_frames=2, motion_rate=0.0,
                              birth_rate=0.0, death_rate=0.0)
        cells = scenes[0].grid ** 2
        detector = StreamingDetector(
            quantized, matcher=matcher,
            config=TrackerConfig(delta_gate=True, **self.BASE))
        detector.update(scenes[0])
        detector.update(scenes[1])
        assert detector.gate_stats.skipped == cells
        constraint = matcher.kg.constraints[0]
        matcher.kg.replace_constraint(
            dataclasses.replace(constraint,
                                weight=constraint.weight * 0.5))
        detector.update(scenes[1])  # identical pixels, edited graph
        assert detector.gate_stats.recomputed == cells * 2
        assert detector.gate_stats.skipped == cells


class TestCarryover:
    """Tracker-prior carryover: approximate reuse under tiny jitter."""

    BASE = dict(on_threshold=0.2, off_threshold=0.1, smoothing=0.0)

    @staticmethod
    def _jittered_frames(base_scene, count, amplitude, seed=0):
        """Copies of one scene with per-frame sub-threshold pixel noise."""
        rng = np.random.default_rng(seed)
        frames = []
        for _ in range(count):
            noise = rng.uniform(-amplitude, amplitude,
                                base_scene.image.shape).astype(np.float32)
            frames.append(dataclasses.replace(
                base_scene, image=base_scene.image + noise))
        return frames

    def test_subthreshold_jitter_is_carried(self, fuzz_model_pair):
        _, quantized = fuzz_model_pair
        [scene] = _gate_scenes(seed=30, num_frames=1, motion_rate=0.0,
                               birth_rate=1.0, death_rate=0.0)
        frames = [scene] + self._jittered_frames(scene, 3, amplitude=0.005)
        config = TrackerConfig(delta_gate=True, motion_threshold=0.05,
                               **self.BASE)
        detector = StreamingDetector(quantized, matcher=None, config=config)
        for frame in frames:
            tracks = detector.update(frame)
        # jittered cells holding active tracks reuse the cached score
        assert detector.gate_stats.carried > 0
        assert tracks, "carryover should keep the confirmed tracks alive"

    def test_zero_threshold_never_carries(self, fuzz_model_pair):
        _, quantized = fuzz_model_pair
        [scene] = _gate_scenes(seed=30, num_frames=1, motion_rate=0.0,
                               birth_rate=1.0, death_rate=0.0)
        frames = [scene] + self._jittered_frames(scene, 3, amplitude=0.005)
        config = TrackerConfig(delta_gate=True, motion_threshold=0.0,
                               **self.BASE)
        detector = StreamingDetector(quantized, matcher=None, config=config)
        for frame in frames:
            detector.update(frame)
        assert detector.gate_stats.carried == 0
        assert detector.gate_stats.skipped == 0  # every frame changed pixels

    def test_refresh_every_one_degenerates_to_full(self, fuzz_model_pair):
        """refresh_every=1 re-scores every frame: carryover can never
        trigger and the output is bit-equal to full recompute."""
        _, quantized = fuzz_model_pair
        scenes = _gate_scenes(seed=31, num_frames=5, motion_rate=0.5)
        kwargs = dict(self.BASE, motion_threshold=0.05)
        full, _ = _run(quantized, scenes,
                       TrackerConfig(delta_gate=False, **kwargs))
        gated, detector = _run(
            quantized, scenes,
            TrackerConfig(delta_gate=True, refresh_every=1, **kwargs))
        assert _track_tuples(gated) == _track_tuples(full)
        assert _scores(gated) == _scores(full)
        assert detector.gate_stats.skipped == 0
        assert detector.gate_stats.carried == 0


class TestStreamBenchHelpers:
    def test_compare_snapshots_equal_and_mismatch(self):
        from repro.stream import compare_snapshots

        track = Track(track_id=0, cell=(0, 0), first_frame=0, last_frame=1,
                      score=0.5)
        # nesting: cameras -> frames -> tracks
        reference = [[[track]]]
        same = [[[dataclasses.replace(track)]]]
        assert compare_snapshots(reference, same) is None
        drifted = [[[dataclasses.replace(track, score=0.5 + 1e-3)]]]
        assert "score" in compare_snapshots(reference, drifted)
        rebirth = [[[dataclasses.replace(track, track_id=1)]]]
        assert "track_id" in compare_snapshots(reference, rebirth)

    #: One static 2x2 camera at the fuzz models' 16px cells: every frame
    #: after the first is a full gate hit.
    STATIC = dict(num_cameras=1, num_frames=4, grid=2, cell_size=16,
                  motion_rate=0.0, birth_rate=0.0, death_rate=0.0, seed=6)

    def test_run_stream_bench_row_contract(self, fuzz_model_pair):
        from benchmarks.bench_e14_stream import run_stream_bench

        _, quantized = fuzz_model_pair
        task = get_task("roadside_hazards")
        row = run_stream_bench(quantized, None, task, replay_chunk=3,
                               **self.STATIC)
        assert row["identical"] is True
        assert row["mismatch"] is None
        assert row["replay_identical"] is True
        assert row["replay_mismatch"] is None and row["replay_fps"] > 0
        assert row["max_quality_delta"] == 0.0
        assert row["hit_rate"] > 0.5
        assert row["full_fps"] > 0 and row["gated_fps"] > 0

    def test_run_stream_bench_flags_a_wrong_cached_score(
            self, fuzz_model_pair, monkeypatch):
        """A gate that reuses a wrong score must read ``identical=False``."""
        from benchmarks.bench_e14_stream import run_stream_bench

        score_chunk = StreamingDetector._score_chunk

        def corrupting(detector, scenes):
            raw = score_chunk(detector, scenes)
            if detector._scores is not None:  # the gated pass's cache
                detector._scores = 1.0 - detector._scores
            return raw

        monkeypatch.setattr(StreamingDetector, "_score_chunk", corrupting)
        _, quantized = fuzz_model_pair
        row = run_stream_bench(quantized, None, get_task("roadside_hazards"),
                               **self.STATIC)
        assert row["hit_rate"] > 0.5
        assert row["identical"] is False and row["mismatch"] is not None
