"""Multi-camera feeds and the streaming contract's track oracle.

:func:`materialize_cameras` pre-renders N independent camera sequences
at a configurable motion density, so timing excludes rendering.
:func:`compare_snapshots` is the oracle of the streaming contract: with
exact gating (``motion_threshold == 0``) a gated pass must reproduce the
full-recompute tracks *bit for bit*, on either model configuration.
The E14 benchmark (``benchmarks/bench_e14_stream.py``) and the
end-to-end streaming workloads (``benchmarks/e2e``) use both; the
differential fuzzer shares :data:`TRACK_FIELDS`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.data.scenes import SceneConfig
from repro.stream.sequence import FrameState, SceneSequence, SequenceConfig
from repro.stream.tracker import Track

#: Per-camera seed stride (any constant works; primes read well).
CAMERA_SEED_STRIDE = 7907

#: The ``Track`` fields two runs must agree on exactly (scores are
#: compared separately, also bitwise).
TRACK_FIELDS = ("track_id", "cell", "first_frame", "last_frame", "active",
                "missed")


def materialize_cameras(
    num_cameras: int,
    num_frames: int,
    scene: SceneConfig,
    *,
    motion_rate: float = 0.05,
    birth_rate: float = 0.02,
    death_rate: float = 0.01,
    seed: int = 0,
) -> List[List[FrameState]]:
    """N independent camera feeds, pre-rendered so timing excludes rendering."""
    cameras: List[List[FrameState]] = []
    for camera in range(num_cameras):
        sequence = SceneSequence(
            SequenceConfig(scene=scene, birth_rate=birth_rate,
                           death_rate=death_rate, motion_rate=motion_rate),
            seed=seed + CAMERA_SEED_STRIDE * camera)
        cameras.append(list(sequence.frames(num_frames)))
    return cameras


def compare_snapshots(
    reference: Sequence[Sequence[Sequence[Track]]],
    candidate: Sequence[Sequence[Sequence[Track]]],
) -> Optional[str]:
    """First mismatch between two per-camera snapshot sets, or ``None``.

    Structural fields (ids, cells, lifecycle frames, missed counts) and
    scores must match exactly.
    """
    if len(reference) != len(candidate):
        return f"camera count {len(reference)} != {len(candidate)}"
    for cam, (ref_cam, cand_cam) in enumerate(zip(reference, candidate)):
        if len(ref_cam) != len(cand_cam):
            return f"camera {cam}: frame count differs"
        for frame, (ref, cand) in enumerate(zip(ref_cam, cand_cam)):
            ref_sorted = sorted(ref, key=lambda t: t.track_id)
            cand_sorted = sorted(cand, key=lambda t: t.track_id)
            if len(ref_sorted) != len(cand_sorted):
                return (f"camera {cam} frame {frame}: "
                        f"{len(ref_sorted)} vs {len(cand_sorted)} tracks")
            for r, c in zip(ref_sorted, cand_sorted):
                for field in TRACK_FIELDS:
                    if getattr(r, field) != getattr(c, field):
                        return (f"camera {cam} frame {frame} track "
                                f"{r.track_id}: {field} "
                                f"{getattr(r, field)!r} != "
                                f"{getattr(c, field)!r}")
                if r.score != c.score:
                    return (f"camera {cam} frame {frame} track "
                            f"{r.track_id}: score {r.score!r} != "
                            f"{c.score!r}")
    return None
