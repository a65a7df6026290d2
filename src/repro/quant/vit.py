"""Whole-model quantization of the Vision Transformer.

The quantized configuration runs every GEMM (patch projection, QKV,
attention output, MLP, heads) in integer arithmetic via
:class:`~repro.quant.QuantizedLinear`, while LayerNorm, softmax, and GELU
stay in float — the standard int8 ViT deployment recipe, and exactly the
split the hardware accelerator implements (GEMMs on the systolic array,
the rest on the vector unit).

One forward implementation (:func:`_vit_forward`) serves both calibration
(float projections + observers at every GEMM input) and quantized
inference (integer projections), so the calibration points can never
drift from the deployed graph.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
from scipy import special as _special

from repro.nn import Linear, VisionTransformer
from repro.obs import get_registry
from repro.quant.linear import QuantizedLinear
from repro.quant.observers import Observer, make_observer
from repro.quant.qparams import QuantParams, QuantSpec

_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

ProjFn = Callable[[np.ndarray], np.ndarray]


def _row_sum(flat: np.ndarray) -> np.ndarray:
    # Row sums over a short trailing axis.  ``einsum`` is within 2x of a
    # BLAS matvec here and — unlike GEMV, whose accumulation order
    # changes with the row *count* — reduces each row in an order that
    # depends only on the row length, so fused batches stay bit-identical
    # to per-scene execution (asserted by the batch-invariance tests).
    # Native ``sum(axis=-1)`` pays one C call per row: ~4x slower.
    return np.einsum("ij->i", flat)


def _layernorm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               eps: float = 1e-5) -> np.ndarray:
    # In-place on the fresh ``centered`` temporary; all reductions are
    # row-wise (batch-invariant), with 1-D/column broadcasts — several
    # times faster than ``keepdims`` reductions over a short trailing
    # axis.
    dim = x.shape[-1]
    flat = x.reshape(-1, dim)
    mean = _row_sum(flat) / dim
    centered = flat - mean[:, None]
    # einsum contracts the squares without materialising centered²
    # (row-local reduction order, so still batch-invariant).
    var = np.einsum("ij,ij->i", centered, centered) / dim
    centered /= np.sqrt(var + eps)[:, None]
    centered *= weight
    centered += bias
    return centered.reshape(x.shape)


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax computed **in place** on ``x`` (callers here always pass a
    fresh scores buffer that is dead after the call)."""
    if axis != -1:
        shifted = x - x.max(axis=axis, keepdims=True)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        return shifted
    # Row-wise over the trailing axis with 1-D/column broadcasts (several
    # times faster than ``keepdims`` reductions over a short trailing
    # axis); the max reduce and the ``_row_sum`` normalizer are both
    # row-local, keeping fused batches bit-identical to per-scene runs.
    flat = x.reshape(-1, x.shape[-1])
    flat -= flat.max(axis=1)[:, None]
    np.exp(flat, out=flat)
    flat /= _row_sum(flat)[:, None]
    return flat.reshape(x.shape)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """tanh-approximated GELU — matches the hardware vector unit's LUT."""
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _SQRT_2_OVER_PI
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= x
    inner *= 0.5
    return inner


def gemm_sites(depth: int, attribute_names: List[str],
               with_task_head: bool = False) -> List[str]:
    """Names of every GEMM input site, in execution order."""
    sites = ["patch_proj"]
    for i in range(depth):
        sites += [f"block{i}.qkv", f"block{i}.proj", f"block{i}.fc1", f"block{i}.fc2"]
    sites.append("head")
    sites += [f"attr_head_{name}" for name in attribute_names]
    if with_task_head:
        sites += ["task_head.fc1", "task_head.fc2"]
    return sites


def _model_sites(model: VisionTransformer) -> List[str]:
    return gemm_sites(model.config.depth, model.attribute_names,
                      with_task_head=model.task_head is not None)


def _float_proj(linear: Linear) -> ProjFn:
    # Prepack the transposed weight contiguously once — calibration runs
    # many batches through every site, and a C-contiguous operand keeps
    # each GEMM on the fastest BLAS route.
    weight_t = np.ascontiguousarray(linear.weight.data.T)
    bias = None if linear.bias is None else linear.bias.data

    def apply(x: np.ndarray) -> np.ndarray:
        y = x @ weight_t
        return y if bias is None else y + bias

    return apply


def _traced_proj(site: str, kernel: ProjFn) -> ProjFn:
    """Wrap a projection so each call records a ``quant.forward.<site>``
    span (a child of whatever span the caller holds, e.g. the detect
    pipeline's ``detect.model_forward``)."""
    stage = f"quant.forward.{site}"

    def apply(x: np.ndarray) -> np.ndarray:
        with get_registry().time(stage):
            return kernel(x)

    return apply


def _vit_forward(
    model: VisionTransformer,
    images: np.ndarray,
    projections: Mapping[str, ProjFn],
    observers: Optional[Mapping[str, Observer]] = None,
) -> Dict[str, np.ndarray]:
    """Shared ViT inference over pluggable projection kernels.

    The heads read only the CLS token, so at inference (no
    ``observers``) the last encoder block attends from the CLS row
    alone over every token's keys and values, and its
    ``proj``/``fc1``/``fc2`` GEMMs see ``batch`` rows instead of
    ``batch × num_tokens``.  Every op after the attention is row-wise
    and the integer GEMMs are exact, so the outputs are bit-identical
    to the full-sequence forward.
    Calibration (``observers`` given — an empty mapping runs the
    full-sequence forward unobserved) keeps every token, so activation
    ranges are observed over the whole sequence.
    """
    cfg = model.config
    batch = images.shape[0]
    grid = cfg.image_size // cfg.patch_size

    def project(site: str, x: np.ndarray) -> np.ndarray:
        if observers is not None and site in observers:
            observers[site].observe(x)
        return projections[site](x)

    patches = images.reshape(
        batch, cfg.in_channels, grid, cfg.patch_size, grid, cfg.patch_size
    ).transpose(0, 2, 4, 1, 3, 5).reshape(batch, grid * grid, cfg.patch_dim)
    tokens = project("patch_proj", patches)

    x = np.empty((batch, cfg.num_tokens, cfg.dim), dtype=tokens.dtype)
    x[:, :1] = model.cls_token.data.reshape(1, 1, cfg.dim)
    x[:, 1:] = tokens
    x += model.pos_embed.data

    num_heads, head_dim = cfg.num_heads, cfg.dim // cfg.num_heads
    scale = 1.0 / np.sqrt(head_dim)
    seq = cfg.num_tokens
    blocks = model.encoder.blocks
    cls_only_block = len(blocks) - 1 if observers is None else -1

    for i, block in enumerate(blocks):
        normed = _layernorm(x, block.norm1.weight.data, block.norm1.bias.data)
        qkv = project(f"block{i}.qkv", normed)
        qkv = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scores = q @ k.transpose(0, 1, 3, 2)
        if i == cls_only_block:
            # Both attention GEMMs keep their full-sequence shapes (a
            # 1-row product may take another BLAS route and round
            # differently), and row 0 of a product reads only row 0 of
            # its left operand.  So scale and softmax (row-local) just
            # the CLS row; the raw rows below it are never read.
            cls = scores[:, :, :1]
            cls *= scale
            scores[:, :, :1] = _softmax(cls)
            context, x = (scores @ v)[:, :, :1], x[:, :1]
        else:
            scores *= scale
            context = _softmax(scores) @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, -1, cfg.dim)
        x += project(f"block{i}.proj", context)

        normed = _layernorm(x, block.norm2.weight.data, block.norm2.bias.data)
        hidden = _gelu_tanh(project(f"block{i}.fc1", normed))
        x += project(f"block{i}.fc2", hidden)

    # Only the CLS token feeds the heads: normalize that row alone
    # (LayerNorm is row-wise, so this is bit-identical to normalizing
    # the full sequence and slicing afterwards).
    cls_embedding = _layernorm(x[:, 0], model.norm.weight.data,
                               model.norm.bias.data)
    out: Dict[str, np.ndarray] = {
        "class_logits": project("head", cls_embedding),
        "cls_embedding": cls_embedding,
    }
    out["attributes"] = {
        name: project(f"attr_head_{name}", cls_embedding)
        for name in model.attribute_names
    }
    if model.task_head is not None:
        hidden = _gelu_tanh(project("task_head.fc1", cls_embedding))
        out["task_logits"] = project("task_head.fc2", hidden)
    return out


def _site_linear(model: VisionTransformer, site: str) -> Linear:
    """Resolve a GEMM site name to the model's Linear layer."""
    if site == "patch_proj":
        return model.patch_embed.proj
    if site == "head":
        return model.head
    if site.startswith("task_head."):
        if model.task_head is None:
            raise KeyError("model has no task head")
        return getattr(model.task_head, site.split(".", 1)[1])
    if site.startswith("attr_head_"):
        return model._modules[site]
    block_name, layer = site.split(".")
    block = model.encoder._modules[block_name]
    if layer == "qkv":
        return block.attn.qkv
    if layer == "proj":
        return block.attn.proj
    if layer in ("fc1", "fc2"):
        return getattr(block.mlp, layer)
    raise KeyError(f"unknown GEMM site {site!r}")


def calibrate_observers(
    model: VisionTransformer,
    calibration_images: np.ndarray,
    act_spec: QuantSpec = QuantSpec(bits=8, symmetric=False),
    observer_kind: str = "minmax",
    batch_size: int = 64,
) -> Dict[str, QuantParams]:
    """Run float inference over the calibration set, observing every GEMM
    input, and return frozen activation quantization parameters."""
    sites = _model_sites(model)
    with get_registry().span(
        "quant.calibrate", sites=len(sites), observer=observer_kind,
        images=int(calibration_images.shape[0]),
    ):
        observers = {site: make_observer(observer_kind, act_spec) for site in sites}
        projections = {site: _float_proj(_site_linear(model, site)) for site in sites}
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

    def forward(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        images = np.asarray(images, np.float32)
        with get_registry().span("quant.forward", batch=int(images.shape[0])):
            return _vit_forward(self.model, images, self._projections)

    __call__ = forward

    def classify(self, images: np.ndarray) -> np.ndarray:
        return self.forward(images)["class_logits"].argmax(axis=-1)

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
    sites = _model_sites(model)
    with get_registry().span("quant.convert", sites=len(sites),
                             weight_bits=weight_spec.bits):
        layers = {
            site: QuantizedLinear.from_linear(
                _site_linear(model, site), act_params[site], weight_spec,
            )
            for site in sites
        }
        for site, layer in layers.items():
            # Hidden-site outputs die inside one ``_vit_forward`` pass,
            # so those kernels may hand out reusable scratch buffers.
            # Head outputs are returned to the caller (and accumulated
            # across chunked forwards by the detect path) — they must
            # stay freshly allocated.
            layer.reuse_output = site.startswith(("patch_proj", "block"))
    return QuantizedVisionTransformer(model=model, layers=layers)
