"""Supervised ViT training on window datasets.

The loss is a weighted sum of the class-head cross-entropy and one masked
cross-entropy per attribute head (background windows carry attribute label
``-1`` and are excluded from the attribute terms).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.datasets import WindowDataset, batch_iterator
from repro.nn import VisionTransformer, cross_entropy
from repro.nn.losses import accuracy
from repro.obs import get_registry
from repro.optim import AdamW, WarmupCosineSchedule, clip_grad_norm
from repro.tensor import Tensor


@dataclasses.dataclass
class TrainingConfig:
    """Hyper-parameters of a supervised training run."""

    epochs: int = 8
    batch_size: int = 32
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    warmup_fraction: float = 0.1
    attribute_loss_weight: float = 0.5
    label_smoothing: float = 0.0
    grad_clip: float = 1.0
    seed: int = 0
    log_every: int = 0  # 0 disables progress printing


def _masked_attribute_loss(model_out: Dict, batch: WindowDataset,
                           weight: float) -> Optional[Tensor]:
    """Sum of attribute-head cross-entropies over labelled rows."""
    if weight == 0.0:
        return None
    total: Optional[Tensor] = None
    for family, logits in model_out["attributes"].items():
        labels = batch.attribute_labels[family]
        valid = np.flatnonzero(labels >= 0)
        if valid.size == 0:
            continue
        term = cross_entropy(logits[valid], labels[valid])
        total = term if total is None else total + term
    if total is None:
        return None
    return total * weight


class ModelTrainer:
    """Train a :class:`VisionTransformer` on a window dataset."""

    def __init__(self, model: VisionTransformer,
                 config: TrainingConfig = TrainingConfig()) -> None:
        self.model = model
        self.config = config
        self.history: List[Dict[str, float]] = []

    def fit(self, dataset: WindowDataset,
            val_dataset: Optional[WindowDataset] = None) -> List[Dict[str, float]]:
        cfg = self.config
        steps_per_epoch = max(1, int(np.ceil(len(dataset) / cfg.batch_size)))
        total_steps = steps_per_epoch * cfg.epochs
        optimizer = AdamW(self.model.parameters(), lr=cfg.learning_rate,
                          weight_decay=cfg.weight_decay)
        schedule = WarmupCosineSchedule(
            cfg.learning_rate, total_steps,
            warmup_steps=int(total_steps * cfg.warmup_fraction),
        )
        step = 0
        self.model.train()
        obs = get_registry()
        with obs.span("train.fit", epochs=cfg.epochs, examples=len(dataset),
                      batch_size=cfg.batch_size):
            for epoch in range(cfg.epochs):
                epoch_loss, epoch_acc, batches = 0.0, 0.0, 0
                with obs.span("train.epoch", epoch=epoch) as epoch_span:
                    for batch in batch_iterator(dataset, cfg.batch_size,
                                                seed=cfg.seed + epoch):
                        schedule.apply(optimizer, step)
                        out = self.model(Tensor(batch.images))
                        loss = cross_entropy(out["class_logits"], batch.class_labels,
                                             label_smoothing=cfg.label_smoothing)
                        attr_loss = _masked_attribute_loss(
                            out, batch, cfg.attribute_loss_weight)
                        if attr_loss is not None:
                            loss = loss + attr_loss
                        self.model.zero_grad()
                        loss.backward()
                        if cfg.grad_clip > 0:
                            clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                        optimizer.step()
                        epoch_loss += loss.item()
                        epoch_acc += accuracy(out["class_logits"], batch.class_labels)
                        batches += 1
                        step += 1
                    obs.count("train.steps", batches)
                    epoch_span.set_attr(loss=epoch_loss / batches)
                record = {
                    "epoch": epoch,
                    "loss": epoch_loss / batches,
                    "train_accuracy": epoch_acc / batches,
                }
                if val_dataset is not None:
                    record.update(evaluate_model(self.model, val_dataset))
                self.history.append(record)
                if cfg.log_every and (epoch % cfg.log_every == 0):
                    print(f"[trainer] epoch {epoch}: {record}")
        self.model.eval()
        return self.history


def evaluate_model(model: VisionTransformer, dataset: WindowDataset,
                   batch_size: int = 64) -> Dict[str, float]:
    """Class accuracy plus mean attribute accuracy over labelled rows."""
    correct, total = 0, 0
    attr_correct: Dict[str, int] = {}
    attr_total: Dict[str, int] = {}
    with get_registry().span("train.evaluate", examples=len(dataset)):
        for batch in batch_iterator(dataset, batch_size, shuffle=False):
            out = model.infer(batch.images)
            pred = out["class_logits"].argmax(axis=-1)
            correct += int((pred == batch.class_labels).sum())
            total += len(batch)
            for family, logits in out["attributes"].items():
                labels = batch.attribute_labels[family]
                valid = labels >= 0
                if valid.any():
                    hits = (logits.argmax(axis=-1)[valid] == labels[valid])
                    attr_correct[family] = attr_correct.get(family, 0) + int(hits.sum())
                    attr_total[family] = attr_total.get(family, 0) + int(valid.sum())
    metrics = {"val_accuracy": correct / max(total, 1)}
    if attr_total:
        per_family = [attr_correct[f] / attr_total[f] for f in attr_total]
        metrics["val_attribute_accuracy"] = float(np.mean(per_family))
        for family in attr_total:
            metrics[f"val_attr_{family}"] = attr_correct[family] / attr_total[family]
    return metrics
