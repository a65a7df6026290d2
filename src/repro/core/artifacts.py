"""Artifact cache: train once, reuse across examples and benchmarks.

Teacher training plus eight specialist distillations take a few minutes
of single-core CPU; the benchmarks regenerating the paper's tables
should not each pay that.  :class:`ArtifactBuilder` memoizes trained
models in a :class:`~repro.core.registry.ModelRegistry` under the repo's
``.artifacts/`` directory (override with ``REPRO_ARTIFACT_DIR``), keyed
by a schema-version string so stale caches invalidate themselves when
training recipes change.

The cache is *self-healing*: every lookup runs the registry's integrity
checks, and a damaged entry (orphaned meta, truncated or bit-flipped
``.npz``, key-set drift) is quarantined to ``.artifacts/quarantine/``
and transparently retrained instead of crashing the benchmark.  Setting
``REPRO_ARTIFACT_STRICT=1`` (or ``strict=True``) flips that policy for
CI: corruption raises :class:`~repro.core.registry.CorruptArtifactError`
naming the damaged files.  A per-key :class:`~repro.core.locks.FileLock`
makes concurrent builders safe — two processes requesting the same
uncached key produce exactly one training run; the loser blocks, then
loads the winner's checkpoint.

Cache traffic is observable through the process-wide
:mod:`repro.obs` registry::

    artifacts.cache.hit / .miss / .corrupt / .quarantined / .rebuild

plus ``artifacts.load`` / ``artifacts.train`` timers, so a benchmark's
``registry.report()`` shows exactly what the cache did.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.configurations import (
    QuantizedConfiguration,
    TaskSpecificConfiguration,
    build_multitask_student,
    build_quantized_configuration,
    build_teacher,
    distill_task_student,
)
from repro.core.locks import FileLock
from repro.core.registry import CorruptArtifactError, ModelRegistry
from repro.data.tasks import TaskDefinition, get_task
from repro.nn import VisionTransformer
from repro.obs import get_registry as get_obs_registry

SCHEMA_VERSION = "v2"

_COUNTERS = ("hit", "miss", "corrupt", "quarantined", "rebuild")


def default_artifact_dir() -> str:
    override = os.environ.get("REPRO_ARTIFACT_DIR")
    if override:
        return override
    package_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(package_root, ".artifacts")


def strict_mode_default() -> bool:
    """Read ``REPRO_ARTIFACT_STRICT`` (truthy: 1/true/yes/on)."""
    raw = os.environ.get("REPRO_ARTIFACT_STRICT", "")
    return raw.strip().lower() in {"1", "true", "yes", "on"}


class ArtifactBuilder:
    """Build-or-load trained models (self-healing; see module docs)."""

    def __init__(self, root: Optional[str] = None, seed: int = 0,
                 teacher_epochs: int = 25, student_epochs: int = 20,
                 specialist_epochs: int = 30, verbose: bool = True,
                 strict: Optional[bool] = None,
                 lock_timeout: float = 900.0) -> None:
        self.registry = ModelRegistry(root or default_artifact_dir())
        self.seed = seed
        self.teacher_epochs = teacher_epochs
        self.student_epochs = student_epochs
        self.specialist_epochs = specialist_epochs
        self.verbose = verbose
        self.strict = strict
        self.lock_timeout = lock_timeout

    def _key(self, name: str) -> str:
        return (f"{SCHEMA_VERSION}-s{self.seed}"
                f"-e{self.teacher_epochs}x{self.student_epochs}-{name}")

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[artifacts] {message}")

    def _strict(self) -> bool:
        # Resolved per call so tests/CI can toggle the env var after
        # construction (builders are long-lived module singletons).
        return strict_mode_default() if self.strict is None else self.strict

    # ------------------------------------------------------------------
    def _get_or_build(self, name: str,
                      build: Callable[[], VisionTransformer],
                      extra: Dict) -> VisionTransformer:
        """The cache protocol: lock -> validate -> load | quarantine -> train."""
        key = self._key(name)
        obs = get_obs_registry()
        for counter in _COUNTERS:  # materialize so reports always show them
            obs.counter(f"artifacts.cache.{counter}")
        with FileLock(self.registry.lock_path(key), timeout=self.lock_timeout):
            status = self.registry.validate(key)
            if status.ok:
                try:
                    with obs.span("artifacts.load"):
                        model = self.registry.load(key)
                except CorruptArtifactError as exc:
                    # validate() passed but deep load checks did not
                    status.ok, status.problems = False, exc.problems
                else:
                    obs.count("artifacts.cache.hit")
                    return model
            if status.corrupt:
                obs.count("artifacts.cache.corrupt")
                if self._strict():
                    raise CorruptArtifactError(
                        key, status.problems,
                        [status.meta_path, status.weights_path])
                moved = self.registry.quarantine(key)
                obs.count("artifacts.cache.quarantined")
                self._log(
                    f"quarantined corrupt artifact {key!r} "
                    f"({'; '.join(status.problems)}) -> "
                    f"{self.registry.quarantine_root}; retraining "
                    f"[{len(moved)} file(s) preserved]")
            else:
                obs.count("artifacts.cache.miss")
            obs.count("artifacts.cache.rebuild")
            with obs.span("artifacts.train"):
                model = build()
            self.registry.save(key, model, extra=extra)
            return model

    # ------------------------------------------------------------------
    def teacher(self) -> VisionTransformer:
        def build() -> VisionTransformer:
            self._log(f"training teacher ({self.teacher_epochs} epochs)...")
            return build_teacher(epochs=self.teacher_epochs, seed=self.seed)

        return self._get_or_build("teacher", build, {"role": "teacher"})

    def multitask_student(self) -> VisionTransformer:
        def build() -> VisionTransformer:
            teacher = self.teacher()
            self._log(f"distilling multi-task student "
                      f"({self.student_epochs} epochs)...")
            return build_multitask_student(
                teacher, epochs=self.student_epochs, seed=self.seed + 1,
            )

        return self._get_or_build("student-multitask", build,
                                  {"role": "student-multitask"})

    def task_student(self, task: TaskDefinition) -> TaskSpecificConfiguration:
        def build() -> VisionTransformer:
            teacher = self.teacher()
            self._log(f"distilling specialist for {task.name!r}...")
            configuration = distill_task_student(
                teacher, task, epochs=self.specialist_epochs,
                seed=self.seed + 2, num_positive=300, num_negative=360,
            )
            return configuration.student

        model = self._get_or_build(
            f"specialist{self.specialist_epochs}-{task.name}", build,
            {"role": "student-task", "task": task.name})
        return TaskSpecificConfiguration(
            name=f"task-specific:{task.name}", kind="task_specific",
            student=model, task_name=task.name,
        )

    def task_student_by_name(self, task_name: str) -> TaskSpecificConfiguration:
        return self.task_student(get_task(task_name))

    def quantized(self, weight_bits: int = 8,
                  act_bits: int = 8) -> QuantizedConfiguration:
        """Quantize the cached multi-task student (PTQ is fast, not cached)."""
        student = self.multitask_student()
        return build_quantized_configuration(
            student, weight_bits=weight_bits, act_bits=act_bits,
            seed=self.seed + 3,
        )
