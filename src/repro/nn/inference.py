"""The Vision Transformer's one inference forward.

Both model configurations are the same network with different GEMM
kernels, so one numpy forward (:func:`_vit_forward`) runs over a table
of per-site projection kernels and serves all three inference uses:

* float inference (:meth:`repro.nn.VisionTransformer.infer`) — float
  projections and exact-erf GELU, the activation the float models are
  trained with;
* calibration (:func:`repro.quant.calibrate_observers`) — float
  projections, observers at every GEMM input, and tanh GELU;
* quantized inference (:class:`repro.quant.QuantizedVisionTransformer`)
  — integer projections and tanh GELU, matching the hardware vector
  unit's LUT.

The calibration points therefore cannot drift from the deployed graph.
:func:`site_plan` lists the forward's work for the accelerator compiler
and the MAC count.
The autograd modules in :mod:`repro.nn` are for training only; their
forward is this module's test oracle.
"""

from __future__ import annotations

import functools
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Tuple)

import numpy as np
from scipy import special as _special

from repro.obs import get_registry

if TYPE_CHECKING:
    from repro.nn.layers import Linear
    from repro.nn.module import Module
    from repro.nn.vit import ViTConfig, VisionTransformer
    from repro.quant.observers import Observer

_SQRT_2 = float(np.sqrt(2.0))
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))

#: Rows per float GEMM (:func:`_float_proj`): every float projection
#: runs as GEMMs of this one shape, which makes float inference
#: batch-invariant.
FLOAT_TILE_ROWS = 16

ProjFn = Callable[[np.ndarray], np.ndarray]
ActFn = Callable[[np.ndarray], np.ndarray]


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


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the trailing axis, computed **in place** on ``x``
    (callers here always pass a fresh scores buffer that is dead after
    the call)."""
    # Row-wise with 1-D/column broadcasts (several times faster than
    # ``keepdims`` reductions over a short trailing axis); the max
    # reduce and the ``_row_sum`` normalizer are both row-local, keeping
    # fused batches bit-identical to per-scene runs.  The row max reads
    # a column-major copy, so its reduce runs one long elementwise
    # maximum per key column instead of a 17-element reduce per row
    # (about 3x faster in two calls).  A maximum is exact in any order:
    # only the sign of a tied zero can differ, and x − (±0) then exp
    # give the same bits.
    flat = x.reshape(-1, x.shape[-1])
    flat -= np.maximum.reduce(np.asfortranarray(flat), axis=1)[:, None]
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


def _gelu_erf(x: np.ndarray) -> np.ndarray:
    """Exact-erf GELU — the activation the float models are trained with
    (:func:`repro.tensor.gelu`'s elementwise operations, in place on one
    temporary)."""
    out = x / _SQRT_2
    _special.erf(out, out=out)
    out += 1.0
    out *= 0.5
    out *= x
    return out


class PlanOp(NamedTuple):
    """One step of the forward: a ``"gemm"`` of ``(m × k)·(k × n)`` (at
    weight layer ``site``; attention products have none), or a pass over
    ``elements`` scalars — the input ``"load"``, the output ``"store"``
    or a vector op: layernorm, softmax, gelu, add, quantize."""

    name: str
    kind: str
    elements: int = 0
    m: int = 0
    k: int = 0
    n: int = 0
    site: Optional[str] = None

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n


def _cls_only_block(depth: int, calibrate: bool) -> int:
    """The block that runs past its attention on the CLS row alone (-1:
    none).  The heads read only the CLS token; calibration keeps every
    token, so activation ranges cover the whole sequence."""
    return -1 if calibrate else depth - 1


def _quantize_name(site: str) -> str:
    if site == "patch_proj":
        return "quantize_input"
    prefix, dot, layer = site.rpartition(".")
    return f"{prefix}{dot}quant_{layer}"


@functools.lru_cache(maxsize=None)
def site_plan(config: "ViTConfig", batch: int = 1,
              calibrate: bool = False) -> Tuple[PlanOp, ...]:
    """The ordered work of one :func:`_vit_forward` over ``batch`` images.

    Every weight GEMM is preceded by the quantize of its ``m × k`` input
    (each integer kernel quantizes on its own).  The CLS-only block's
    ``proj``/``fc1``/``fc2`` and the vector ops around them run at one
    row per image, and its softmax covers the CLS rows only; its
    ``scores``/``context`` products keep their full-sequence shapes, as
    :func:`_attention` does for bit-exactness.  ``calibrate`` plans the
    calibration forward, which keeps every token.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    tokens, dim, heads = config.num_tokens, config.dim, config.num_heads
    head_dim = dim // heads
    hidden = int(dim * config.mlp_ratio)
    plan: List[PlanOp] = []

    def vector(name: str, kind: str, elements: int) -> None:
        plan.append(PlanOp(name, kind, batch * elements))

    def gemm(site: str, m: int, k: int, n: int) -> None:
        vector(_quantize_name(site), "quantize", m * k)
        plan.append(PlanOp(site, "gemm", m=batch * m, k=k, n=n, site=site))

    vector("load_image", "load",
           config.in_channels * config.image_size ** 2)
    gemm("patch_proj", config.num_patches, config.patch_dim, dim)
    vector("add_pos_embed", "add", tokens * dim)
    cls_only_block = _cls_only_block(config.depth, calibrate)
    for i in range(config.depth):
        prefix = f"block{i}"
        rows = 1 if i == cls_only_block else tokens
        vector(f"{prefix}.ln1", "layernorm", tokens * dim)
        gemm(f"{prefix}.qkv", tokens, dim, 3 * dim)
        # attention products per head, at activation precision
        plan += [PlanOp(f"{prefix}.scores.h{h}", "gemm", m=batch * tokens,
                        k=head_dim, n=tokens) for h in range(heads)]
        vector(f"{prefix}.softmax", "softmax", heads * rows * tokens)
        plan += [PlanOp(f"{prefix}.context.h{h}", "gemm", m=batch * tokens,
                        k=tokens, n=head_dim) for h in range(heads)]
        gemm(f"{prefix}.proj", rows, dim, dim)
        vector(f"{prefix}.residual1", "add", rows * dim)
        vector(f"{prefix}.ln2", "layernorm", rows * dim)
        gemm(f"{prefix}.fc1", rows, dim, hidden)
        vector(f"{prefix}.gelu", "gelu", rows * hidden)
        gemm(f"{prefix}.fc2", rows, hidden, dim)
        vector(f"{prefix}.residual2", "add", rows * dim)

    vector("final_ln", "layernorm", dim)
    gemm("head", 1, dim, config.num_classes)
    logits = config.num_classes
    for name, cardinality in config.attribute_heads:
        gemm(f"attr_head_{name}", 1, dim, cardinality)
        logits += cardinality
    if config.with_task_head:
        gemm("task_head.fc1", 1, dim, dim)
        vector("task_head.gelu", "gelu", dim)
        gemm("task_head.fc2", 1, dim, 2)
        logits += 2
    vector("store_logits", "store", logits)
    return tuple(plan)


def gemm_sites(config: "ViTConfig") -> List[str]:
    """Names of every GEMM input site, in execution order."""
    return [op.site for op in site_plan(config) if op.site is not None]


def _site_owner(model: "VisionTransformer", site: str) -> Tuple["Module", str]:
    """Resolve a GEMM site name to ``(module, attribute)`` holding its
    Linear layer."""
    if site == "patch_proj":
        return model.patch_embed, "proj"
    if site == "head" or site.startswith("attr_head_"):
        return model, site
    if site.startswith("task_head."):
        if model.task_head is None:
            raise KeyError("model has no task head")
        return model.task_head, site.split(".", 1)[1]
    block_name, _, layer = site.partition(".")
    block = model.encoder._modules[block_name]
    if layer in ("qkv", "proj"):
        return block.attn, layer
    if layer in ("fc1", "fc2"):
        return block.mlp, layer
    raise KeyError(f"unknown GEMM site {site!r}")


def _site_linear(model: "VisionTransformer", site: str) -> "Linear":
    """Resolve a GEMM site name to the model's Linear layer."""
    return getattr(*_site_owner(model, site))


def _float_proj(linear: "Linear") -> ProjFn:
    # Prepack the transposed weight contiguously once — calibration runs
    # many batches through every site, and a C-contiguous operand keeps
    # each GEMM on the fastest BLAS route.
    weight_t = np.ascontiguousarray(linear.weight.data.T)
    bias = None if linear.bias is None else linear.bias.data

    def apply(x: np.ndarray) -> np.ndarray:
        # BLAS picks its kernel, and with it the rounding, by operand
        # shape, so a plain GEMM over all rows rounds a row differently
        # at different batch sizes.  Every GEMM here is FLOAT_TILE_ROWS
        # rows instead: one stacked matmul over a (tiles,
        # FLOAT_TILE_ROWS, in) view, with only the ragged last tile
        # zero-padded.  A row's result then depends on that row alone.
        flat = x.reshape(-1, x.shape[-1])
        rows = flat.shape[0]
        tiles = -(-rows // FLOAT_TILE_ROWS)
        if rows != tiles * FLOAT_TILE_ROWS:
            padded = np.empty((tiles * FLOAT_TILE_ROWS, flat.shape[1]),
                              dtype=flat.dtype)
            padded[:rows] = flat
            padded[rows:] = 0
            flat = padded
        y = np.matmul(flat.reshape(tiles, FLOAT_TILE_ROWS, flat.shape[1]),
                      weight_t)
        y = y.reshape(-1, y.shape[-1])[:rows]
        if bias is not None:
            y += bias
        return y.reshape(*x.shape[:-1], y.shape[-1])

    return apply


def float_projections(model: "VisionTransformer") -> Dict[str, ProjFn]:
    """A float kernel for every GEMM site of ``model``, read from its
    current weights."""
    return {site: _float_proj(_site_linear(model, site))
            for site in gemm_sites(model.config)}


def _attention(qkv: np.ndarray, num_heads: int, cls_only: bool) -> np.ndarray:
    """Multi-head attention over a ``(batch, seq, 3·dim)`` qkv
    projection; ``(batch, seq, dim)`` context, or ``(batch, 1, dim)``
    for the CLS row alone when ``cls_only``."""
    batch, seq, width = qkv.shape
    head_dim = width // (3 * num_heads)
    scale = 1.0 / np.sqrt(head_dim)
    q, k, v = qkv.reshape(batch, seq, 3, num_heads, head_dim).transpose(2, 0, 3, 1, 4)
    scores = q @ k.transpose(0, 1, 3, 2)
    if cls_only:
        # Both attention GEMMs keep their full-sequence shapes (a 1-row
        # product may take another BLAS route and round differently),
        # and row 0 of a product reads only row 0 of its left operand.
        # So scale and softmax (row-local) just the CLS row; the raw
        # rows below it are never read.
        cls = scores[:, :, :1]
        cls *= scale
        scores[:, :, :1] = _softmax(cls)
        context = (scores @ v)[:, :, :1]
    else:
        scores *= scale
        context = _softmax(scores) @ v
    return context.transpose(0, 2, 1, 3).reshape(batch, -1, num_heads * head_dim)


def _vit_forward(
    model: "VisionTransformer",
    images: np.ndarray,
    projections: Mapping[str, ProjFn],
    observers: Optional[Mapping[str, "Observer"]] = None,
    gelu: ActFn = _gelu_tanh,
) -> Dict[str, np.ndarray]:
    """Shared ViT inference over pluggable projection kernels and GELU.

    Its work is :func:`site_plan`'s.  At inference (no ``observers``)
    the CLS-only block (:func:`_cls_only_block`, the last one) attends
    from the CLS row alone over every token's keys and values, and its
    ``proj``/``fc1``/``fc2`` GEMMs see ``batch`` rows instead of
    ``batch × num_tokens``.  Every op after the attention is row-wise,
    and every projection kernel (exact integer; fixed-shape float tiles)
    computes a row independently of the rows beside it, so the outputs
    are bit-identical to the full-sequence forward.
    Calibration (``observers`` given — an empty mapping runs the
    full-sequence forward unobserved) keeps every token, so activation
    ranges are observed over the whole sequence.

    Each call adds the weight-GEMM multiply-accumulates it ran to the
    ``nn.forward.macs`` counter.
    """
    cfg = model.config
    batch = images.shape[0]
    grid = cfg.image_size // cfg.patch_size
    macs = 0

    def project(site: str, x: np.ndarray) -> np.ndarray:
        nonlocal macs
        if observers is not None and site in observers:
            observers[site].observe(x)
        y = projections[site](x)
        # Counted from the rows this call ran, not from the plan, so a
        # forward that strays from its plan changes the count.
        macs += y.size * x.shape[-1]
        return y

    # Every temporary dies once consumed (nested calls, ``_attention``'s
    # locals): the peak, not the total, decides whether the allocator
    # hands the heap back to the OS after each forward and page-faults
    # it in again on the next.
    tokens = project("patch_proj", images.reshape(
        batch, cfg.in_channels, grid, cfg.patch_size, grid, cfg.patch_size
    ).transpose(0, 2, 4, 1, 3, 5).reshape(batch, grid * grid, cfg.patch_dim))
    x = np.empty((batch, cfg.num_tokens, cfg.dim), dtype=tokens.dtype)
    x[:, :1] = model.cls_token.data.reshape(1, 1, cfg.dim)
    x[:, 1:] = tokens
    del tokens
    x += model.pos_embed.data

    blocks = model.encoder.blocks
    cls_only_block = _cls_only_block(len(blocks), observers is not None)
    for i, block in enumerate(blocks):
        cls_only = i == cls_only_block
        context = _attention(
            project(f"block{i}.qkv", _layernorm(
                x, block.norm1.weight.data, block.norm1.bias.data)),
            cfg.num_heads, cls_only)
        if cls_only:
            x = x[:, :1]
        x += project(f"block{i}.proj", context)
        del context
        x += project(f"block{i}.fc2", gelu(project(f"block{i}.fc1", _layernorm(
            x, block.norm2.weight.data, block.norm2.bias.data))))

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
        hidden = gelu(project("task_head.fc1", cls_embedding))
        out["task_logits"] = project("task_head.fc2", hidden)
    get_registry().count("nn.forward.macs", macs)
    return out
