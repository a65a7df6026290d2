"""Teacher → student distillation.

Three signal paths, each individually switchable (the E8 ablation turns
them off one at a time):

* **soft targets** — KL between temperature-softened teacher and student
  class logits (Hinton et al.), mixed with the hard-label CE by ``alpha``;
* **feature hints** — the student's CLS embedding is regressed (through a
  learned projection) onto the teacher's CLS embedding (FitNets);
* **attention transfer** — head-averaged attention maps of matched layers
  are aligned with an MSE loss (Zagoruyko & Komodakis); token grids must
  agree, head counts may differ.

Attribute heads are distilled with per-family soft targets as well, since
the KG matcher consumes attribute distributions — transferring *soft*
attribute knowledge is what keeps the student's attribute calibration
close to the teacher's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.data.datasets import WindowDataset, batch_iterator
from repro.nn import Linear, VisionTransformer, cross_entropy, kl_divergence, mse_loss
from repro.nn.losses import accuracy
from repro.obs import traced
from repro.optim import AdamW, WarmupCosineSchedule, clip_grad_norm
from repro.tensor import Tensor, no_grad


@dataclasses.dataclass
class DistillationConfig:
    """Distillation hyper-parameters."""

    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    temperature: float = 2.0
    alpha: float = 0.7                    # KD vs hard-label mix
    feature_weight: float = 0.5           # FitNets hint loss
    attention_weight: float = 0.0         # attention transfer (optional)
    attribute_weight: float = 0.5         # soft attribute distillation
    attribute_hard_weight: float = 0.0    # masked hard-label attribute CE
    task_label_weight: float = 0.0        # task-head CE (task-specific config)
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


class Distiller:
    """Distill ``teacher`` into ``student`` on a window dataset."""

    def __init__(
        self,
        teacher: VisionTransformer,
        student: VisionTransformer,
        config: DistillationConfig = DistillationConfig(),
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if teacher.config.image_size != student.config.image_size:
            raise ValueError("teacher and student must share the input size")
        self.teacher = teacher
        self.student = student
        self.config = config
        self.history: List[Dict[str, float]] = []
        rng = rng or np.random.default_rng(config.seed)
        # Learned projection for the feature-hint loss (student dim may
        # differ from teacher dim).
        self.hint_projection = Linear(
            student.config.dim, teacher.config.dim, rng=rng
        )
        if config.attention_weight > 0.0:
            if teacher.config.num_tokens != student.config.num_tokens:
                raise ValueError(
                    "attention transfer requires matching token grids"
                )
            self._enable_attention_capture()

    def _enable_attention_capture(self) -> None:
        for block in self.teacher.encoder.blocks:
            block.attn.store_attention = True
        for block in self.student.encoder.blocks:
            block.attn.store_attention = True

    def _layer_map(self) -> List[tuple]:
        """Match student layer i to teacher layer round((i+1)·T/S)−1."""
        s_depth = self.student.config.depth
        t_depth = self.teacher.config.depth
        return [
            (i, min(t_depth - 1, int(round((i + 1) * t_depth / s_depth)) - 1))
            for i in range(s_depth)
        ]

    def _attention_loss(self) -> Optional[Tensor]:
        """Head-averaged attention alignment over the matched layers."""
        if self.config.attention_weight == 0.0:
            return None
        total: Optional[Tensor] = None
        for s_idx, t_idx in self._layer_map():
            student_attn = self.student.encoder.blocks[s_idx].attn.last_attention_tensor
            teacher_attn = self.teacher.encoder.blocks[t_idx].attn.last_attention
            if student_attn is None or teacher_attn is None:
                continue
            student_mean = student_attn.mean(axis=1)       # (B, T, T)
            teacher_mean = teacher_attn.mean(axis=1)       # ndarray
            term = mse_loss(student_mean, teacher_mean)
            total = term if total is None else total + term
        if total is None:
            return None
        return total * (self.config.attention_weight / len(self._layer_map()))

    def _teacher_targets(self, images: np.ndarray) -> Dict[str, object]:
        """The teacher's outputs as numpy arrays.

        They come from the inference forward, except under attention
        transfer: only the autograd modules capture the attention maps
        that :meth:`_attention_loss` reads.
        """
        if self.config.attention_weight == 0.0:
            return self.teacher.infer(images)
        with no_grad():
            out = self.teacher(Tensor(images))
        return {
            "class_logits": out["class_logits"].data,
            "cls_embedding": out["cls_embedding"].data,
            "attributes": {k: v.data for k, v in out["attributes"].items()},
        }

    # ------------------------------------------------------------------
    @traced("distill.fit")
    def distill(self, dataset: WindowDataset,
                val_dataset: Optional[WindowDataset] = None) -> List[Dict[str, float]]:
        cfg = self.config
        steps_per_epoch = max(1, int(np.ceil(len(dataset) / cfg.batch_size)))
        total_steps = steps_per_epoch * cfg.epochs
        trainable = list(self.student.parameters())
        if cfg.feature_weight > 0.0:
            trainable += list(self.hint_projection.parameters())
        optimizer = AdamW(trainable, lr=cfg.learning_rate,
                          weight_decay=cfg.weight_decay)
        schedule = WarmupCosineSchedule(
            cfg.learning_rate, total_steps,
            warmup_steps=int(total_steps * cfg.warmup_fraction),
        )
        self.teacher.eval()
        self.student.train()
        shared_attrs = [
            family for family in self.student.attribute_names
            if family in self.teacher.attribute_names
        ]
        step = 0
        for epoch in range(cfg.epochs):
            epoch_loss, epoch_acc, batches = 0.0, 0.0, 0
            for batch in batch_iterator(dataset, cfg.batch_size,
                                        seed=cfg.seed + epoch):
                teacher_out = self._teacher_targets(batch.images)
                schedule.apply(optimizer, step)
                student_out = self.student(Tensor(batch.images))

                kd = kl_divergence(
                    student_out["class_logits"],
                    teacher_out["class_logits"],
                    temperature=cfg.temperature,
                )
                ce = cross_entropy(student_out["class_logits"], batch.class_labels)
                loss = kd * cfg.alpha + ce * (1.0 - cfg.alpha)

                if cfg.feature_weight > 0.0:
                    hint = mse_loss(
                        self.hint_projection(student_out["cls_embedding"]),
                        teacher_out["cls_embedding"],
                    )
                    loss = loss + hint * cfg.feature_weight

                if cfg.attribute_weight > 0.0 and shared_attrs:
                    attr_total: Optional[Tensor] = None
                    for family in shared_attrs:
                        term = kl_divergence(
                            student_out["attributes"][family],
                            teacher_out["attributes"][family],
                            temperature=cfg.temperature,
                        )
                        attr_total = term if attr_total is None else attr_total + term
                    loss = loss + attr_total * (cfg.attribute_weight / len(shared_attrs))

                if cfg.attribute_hard_weight > 0.0:
                    from repro.distill.trainer import _masked_attribute_loss

                    hard_attr = _masked_attribute_loss(
                        student_out, batch, cfg.attribute_hard_weight)
                    if hard_attr is not None:
                        loss = loss + hard_attr

                if (cfg.task_label_weight > 0.0
                        and "task_logits" in student_out
                        and batch.task_labels is not None):
                    # The mission's relevance labels supervise the task
                    # head — this is how the knowledge graph's decision
                    # gets distilled into the specialist.
                    task_targets = (batch.task_labels > 0.5).astype(np.int64)
                    loss = loss + cross_entropy(
                        student_out["task_logits"], task_targets
                    ) * cfg.task_label_weight

                attn_loss = self._attention_loss()
                if attn_loss is not None:
                    loss = loss + attn_loss

                self.student.zero_grad()
                self.hint_projection.zero_grad()
                loss.backward()
                if cfg.grad_clip > 0:
                    clip_grad_norm(trainable, cfg.grad_clip)
                optimizer.step()

                epoch_loss += loss.item()
                epoch_acc += accuracy(student_out["class_logits"], batch.class_labels)
                batches += 1
                step += 1
            record = {
                "epoch": epoch,
                "loss": epoch_loss / batches,
                "train_accuracy": epoch_acc / batches,
            }
            if val_dataset is not None:
                from repro.distill.trainer import evaluate_model

                record.update(evaluate_model(self.student, val_dataset))
            self.history.append(record)
        self.student.eval()
        return self.history
