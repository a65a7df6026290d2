"""Quantization-aware training (QAT).

PTQ is enough at 8 bits (E6), but at 4 bits and below accuracy collapses;
QAT recovers most of it.  The flow mirrors deployment exactly:

1. wrap every GEMM site of a trained ViT with fake quantization on both
   its input activations and its weights (:class:`QATLinear`);
2. calibrate the activation observers with a few forward batches;
3. freeze quantization parameters and fine-tune with the straight-through
   estimator;
4. export with :func:`repro.quant.quantize_vit`-compatible integer
   kernels via :meth:`QATVisionTransformer.export`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.data.datasets import WindowDataset, batch_iterator
from repro.nn import Linear, VisionTransformer, cross_entropy
from repro.nn.inference import _site_linear, _site_owner, gemm_sites
from repro.nn.module import Module
from repro.optim import AdamW, clip_grad_norm
from repro.quant.fake_quant import FakeQuantize, fake_quantize
from repro.quant.linear import QuantizedLinear
from repro.quant.observers import MinMaxObserver, MovingAverageObserver
from repro.quant.qparams import QuantSpec, channel_minmax, compute_qparams
from repro.quant.vit import QuantizedVisionTransformer
from repro.tensor import Tensor, no_grad


class QATLinear(Module):
    """A Linear layer with fake-quantized weights and input activations.

    The wrapped float layer's parameters are trained; weight quantization
    parameters are recomputed from the live weights every forward (per
    standard QAT practice), activation parameters come from the attached
    observer and are frozen after calibration.
    """

    def __init__(self, inner: Linear, weight_spec: QuantSpec,
                 act_observer: FakeQuantize) -> None:
        super().__init__()
        self.inner = inner
        self.weight_spec = weight_spec
        self.act_fq = act_observer

    def _weight_params(self):
        weight = self.inner.weight.data
        if self.weight_spec.per_channel:
            lo, hi = channel_minmax(weight, self.weight_spec.axis)
        else:
            lo, hi = weight.min(), weight.max()
        return compute_qparams(lo, hi, self.weight_spec)

    def forward(self, x: Tensor) -> Tensor:
        x = self.act_fq(x)
        weight_q = fake_quantize(self.inner.weight, self._weight_params())
        out = x @ weight_q.T
        if self.inner.bias is not None:
            out = out + self.inner.bias
        return out


@dataclasses.dataclass
class QATConfig:
    epochs: int = 5
    batch_size: int = 48
    learning_rate: float = 5e-4
    weight_decay: float = 0.0
    grad_clip: float = 1.0
    calibration_batches: int = 4
    seed: int = 0


class QATVisionTransformer(Module):
    """A trained ViT with every GEMM site wrapped for QAT."""

    def __init__(self, model: VisionTransformer,
                 weight_spec: QuantSpec = QuantSpec(bits=4, symmetric=True,
                                                    per_channel=True, axis=0),
                 act_spec: QuantSpec = QuantSpec(bits=8, symmetric=False)) -> None:
        super().__init__()
        self.model = model
        self.weight_spec = weight_spec
        self.act_spec = act_spec
        self._sites = gemm_sites(model.config)
        for site in self._sites:
            setattr(*_site_owner(model, site), QATLinear(
                _site_linear(model, site), weight_spec,
                FakeQuantize(MovingAverageObserver(act_spec)),
            ))

    def forward(self, images: Tensor):
        return self.model(images)

    # ------------------------------------------------------------------
    def calibrate(self, images: np.ndarray, batches: int = 4,
                  batch_size: int = 48) -> None:
        """Feed calibration batches, then freeze activation parameters."""
        with no_grad():
            for start in range(0, min(batches * batch_size, images.shape[0]),
                               batch_size):
                self.model(Tensor(images[start:start + batch_size]))
        for site in self._sites:
            _site_linear(self.model, site).act_fq.freeze()

    def export(self) -> QuantizedVisionTransformer:
        """Unwrap and convert to true-integer inference."""
        wrappers: Dict[str, QATLinear] = {}
        for site in self._sites:
            wrapper: QATLinear = _site_linear(self.model, site)
            if wrapper.act_fq.params is None:
                raise RuntimeError("export before calibrate()")
            wrappers[site] = wrapper
        layers: Dict[str, QuantizedLinear] = {}
        for site, wrapper in wrappers.items():
            layers[site] = QuantizedLinear.from_linear(
                wrapper.inner, wrapper.act_fq.params, self.weight_spec)
            setattr(*_site_owner(self.model, site), wrapper.inner)  # unwrap
        return QuantizedVisionTransformer(model=self.model, layers=layers)


def train_qat(
    model: VisionTransformer,
    dataset: WindowDataset,
    weight_spec: QuantSpec = QuantSpec(bits=4, symmetric=True,
                                       per_channel=True, axis=0),
    act_spec: QuantSpec = QuantSpec(bits=8, symmetric=False),
    config: QATConfig = QATConfig(),
) -> QuantizedVisionTransformer:
    """Full QAT flow: wrap → calibrate → fine-tune → export.

    ``model`` is fine-tuned in place (its weights move); export restores
    the plain Linear layers and returns the integer model.
    """
    qat = QATVisionTransformer(model, weight_spec=weight_spec,
                               act_spec=act_spec)
    qat.calibrate(dataset.images, batches=config.calibration_batches,
                  batch_size=config.batch_size)
    optimizer = AdamW(model.parameters(), lr=config.learning_rate,
                      weight_decay=config.weight_decay)
    model.train()
    for epoch in range(config.epochs):
        for batch in batch_iterator(dataset, config.batch_size,
                                    seed=config.seed + epoch):
            out = model(Tensor(batch.images))
            loss = cross_entropy(out["class_logits"], batch.class_labels)
            model.zero_grad()
            loss.backward()
            if config.grad_clip > 0:
                clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
    model.eval()
    return qat.export()
