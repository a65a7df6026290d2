"""Whole-model quantization of the Vision Transformer.

The quantized configuration runs every weight GEMM (patch projection,
QKV, attention output, MLP, heads) in integer arithmetic via
:class:`~repro.quant.QuantizedLinear`, while LayerNorm, softmax, GELU
and the two per-head attention products (``scores`` = q·kᵀ and
``context`` = softmax·v, on the dequantized qkv) stay in float — the
standard int8 ViT deployment recipe.  The hardware accelerator splits
the work the same way for the weight GEMMs (systolic array) and the
vector ops (vector unit), but not for attention: ``Compiler.compile``
prices ``scores`` and ``context`` as 8-bit GEMMs on the systolic array,
which no CPU forward computes (see "The accelerator computes what it
prices" in ROADMAP.md).

Calibration and quantized inference both run the one ViT inference
forward, :func:`repro.nn.inference._vit_forward`: calibration with float
projections and observers at every GEMM input, inference with the
integer projections.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import numpy as np

from repro.nn import VisionTransformer
from repro.nn.inference import (
    ProjFn,
    _site_linear,
    _vit_forward,
    float_projections,
    gemm_sites,
)
from repro.obs import get_registry
from repro.quant.linear import QuantizedLinear
from repro.quant.observers import make_observer
from repro.quant.qparams import QuantParams, QuantSpec


def _traced_proj(site: str, kernel: ProjFn) -> ProjFn:
    """Wrap a projection so each call records a ``quant.forward.<site>``
    span (a child of whatever span the caller holds, e.g. the detect
    pipeline's ``detect.model_forward``)."""
    stage = f"quant.forward.{site}"

    def apply(x: np.ndarray) -> np.ndarray:
        with get_registry().span(stage):
            return kernel(x)

    return apply


def calibrate_observers(
    model: VisionTransformer,
    calibration_images: np.ndarray,
    act_spec: QuantSpec = QuantSpec(bits=8, symmetric=False),
    observer_kind: str = "minmax",
    batch_size: int = 64,
) -> Dict[str, QuantParams]:
    """Run float inference over the calibration set, observing every GEMM
    input, and return frozen activation quantization parameters."""
    sites = gemm_sites(model.config)
    with get_registry().span(
        "quant.calibrate", sites=len(sites), observer=observer_kind,
        images=int(calibration_images.shape[0]),
    ):
        observers = {site: make_observer(observer_kind, act_spec) for site in sites}
        projections = float_projections(model)
        for start in range(0, calibration_images.shape[0], batch_size):
            chunk = calibration_images[start:start + batch_size]
            _vit_forward(model, chunk, projections, observers)
        return {site: obs.compute() for site, obs in observers.items()}


@dataclasses.dataclass
class QuantizedVisionTransformer:
    """Inference-only quantized ViT (the paper's quantized configuration).

    The projection table handed to :func:`_vit_forward` is built once at
    construction (each site wrapped in a ``quant.forward.<site>`` span),
    not per forward — the integer kernels are frozen, so there is
    nothing to rebuild on the hot path.
    """

    model: VisionTransformer                 # float parameters for LN/pos/cls
    layers: Dict[str, QuantizedLinear]       # site -> integer kernel

    def __post_init__(self) -> None:
        self._projections: Dict[str, ProjFn] = {
            site: _traced_proj(site, layer)
            for site, layer in self.layers.items()
        }

    def __call__(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        images = np.asarray(images, np.float32)
        with get_registry().span("quant.forward", batch=int(images.shape[0])):
            return _vit_forward(self.model, images, self._projections)

    def infer(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """The contract of :meth:`repro.nn.VisionTransformer.infer`.

        Dispatches through ``__call__``, so a wrapper installed on the
        class's call sees every forward.
        """
        return self(images)

    def classify(self, images: np.ndarray) -> np.ndarray:
        return self(images)["class_logits"].argmax(axis=-1)

    @property
    def config(self):
        return self.model.config

    @property
    def attribute_names(self) -> List[str]:
        return self.model.attribute_names

    def weight_bits(self) -> int:
        return next(iter(self.layers.values())).weight_bits

    def model_size_bytes(self) -> int:
        """Deployed parameter footprint: packed int weights + float aux.

        Sub-byte weights (2/4-bit) pack multiple codes per byte, so each
        layer contributes ``ceil(size · bits / 8)`` bytes — rounding up
        the trailing partial byte a real container would still ship.
        """
        total = 0
        for layer in self.layers.values():
            total += (layer.weight_q.size * layer.weight_bits + 7) // 8
            if layer.bias is not None:
                total += layer.bias.size * 4
        # LayerNorm / cls / pos parameters stay fp32 (they are tiny).
        quantized_names = {"weight", "bias"}
        for name, param in self.model.named_parameters():
            leaf = name.rsplit(".", 1)[-1]
            if leaf not in quantized_names or "norm" in name:
                total += param.size * 4
        return total


def quantize_vit(
    model: VisionTransformer,
    calibration_images: np.ndarray,
    weight_spec: QuantSpec = QuantSpec(bits=8, symmetric=True,
                                       per_channel=True, axis=0),
    act_spec: QuantSpec = QuantSpec(bits=8, symmetric=False),
    observer_kind: str = "minmax",
) -> QuantizedVisionTransformer:
    """Post-training quantization: calibrate, convert every GEMM."""
    act_params = calibrate_observers(
        model, np.asarray(calibration_images, np.float32),
        act_spec=act_spec, observer_kind=observer_kind,
    )
    sites = gemm_sites(model.config)
    with get_registry().span("quant.convert", sites=len(sites),
                             weight_bits=weight_spec.bits):
        layers = {
            site: QuantizedLinear.from_linear(
                _site_linear(model, site), act_params[site], weight_spec,
            )
            for site in sites
        }
    return QuantizedVisionTransformer(model=model, layers=layers)
