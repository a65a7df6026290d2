"""Multi-camera feeds and the streaming contract's track oracle.

:func:`materialize_cameras` pre-renders N independent camera sequences
at a configurable motion density, so timing excludes rendering.
:func:`compare_snapshots` is the oracle of the streaming contract: with
exact gating (``motion_threshold == 0``) a gated pass must reproduce the
full-recompute tracks *bit for bit*, on either model configuration.
The E14 benchmark (``benchmarks/bench_e14_stream.py``) and the
end-to-end streaming workloads (``benchmarks/e2e``) use both; the
differential fuzzer checks each frame with :func:`frame_mismatch`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.data.scenes import SceneConfig
from repro.stream.sequence import FrameState, SceneSequence, SequenceConfig
from repro.stream.tracker import Track

#: Per-camera seed stride (any constant works; primes read well).
CAMERA_SEED_STRIDE = 7907

#: The ``Track`` fields two runs must agree on exactly, besides the
#: score (also bitwise).
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


def frame_mismatch(reference: Sequence[Track],
                   candidate: Sequence[Track]) -> Optional[str]:
    """First mismatch between one frame's two track lists, or ``None``.

    Tracks pair up by id; :data:`TRACK_FIELDS` and the score must match
    bitwise.  The message continues a frame label: ``": 2 vs 3 tracks"``
    or ``" track 4: score 0.5 != 0.25"``.
    """
    ref_sorted = sorted(reference, key=lambda t: t.track_id)
    cand_sorted = sorted(candidate, key=lambda t: t.track_id)
    if len(ref_sorted) != len(cand_sorted):
        return f": {len(ref_sorted)} vs {len(cand_sorted)} tracks"
    for r, c in zip(ref_sorted, cand_sorted):
        for field in TRACK_FIELDS + ("score",):
            if getattr(r, field) != getattr(c, field):
                return (f" track {r.track_id}: {field} "
                        f"{getattr(r, field)!r} != {getattr(c, field)!r}")
    return None


def compare_snapshots(
    reference: Sequence[Sequence[Sequence[Track]]],
    candidate: Sequence[Sequence[Sequence[Track]]],
) -> Optional[str]:
    """First mismatch between two per-camera snapshot sets, or ``None``
    (each frame checked by :func:`frame_mismatch`)."""
    if len(reference) != len(candidate):
        return f"camera count {len(reference)} != {len(candidate)}"
    for cam, (ref_cam, cand_cam) in enumerate(zip(reference, candidate)):
        if len(ref_cam) != len(cand_cam):
            return f"camera {cam}: frame count differs"
        for frame, (ref, cand) in enumerate(zip(ref_cam, cand_cam)):
            mismatch = frame_mismatch(ref, cand)
            if mismatch is not None:
                return f"camera {cam} frame {frame}{mismatch}"
    return None
