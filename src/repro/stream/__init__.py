"""Streaming detection: the paper's real-time sensing deployment.

iTask's accelerator exists to process continuous sensor streams.  This
package provides the temporal substrate: scene *sequences* in which
objects persist across frames (with appearance jitter, births and
deaths), a streaming detector with per-cell score smoothing and
hysteresis (suppressing single-frame flicker), and streaming metrics —
per-frame accuracy, detection latency in frames, and flicker rate.

Incremental detection (``TrackerConfig.delta_gate``) adds frame-delta
gating and tracker-prior carryover so per-frame cost scales with scene
*change*.  :mod:`repro.stream.bench` holds the contract's oracle:
:func:`compare_snapshots` checks gated tracks against full recompute.
"""

from repro.stream.sequence import (
    FrameState,
    SceneSequence,
    ScriptedSequence,
    SequenceConfig,
)
from repro.stream.tracker import (
    GateStats,
    StreamingDetector,
    Track,
    TrackerConfig,
)
from repro.stream.metrics import StreamingMetrics, evaluate_stream, metrics_delta
from repro.stream.bench import compare_snapshots

__all__ = [
    "FrameState",
    "SceneSequence",
    "ScriptedSequence",
    "SequenceConfig",
    "GateStats",
    "StreamingDetector",
    "Track",
    "TrackerConfig",
    "StreamingMetrics",
    "evaluate_stream",
    "metrics_delta",
    "compare_snapshots",
]
