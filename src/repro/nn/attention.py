"""Multi-head self-attention.

Implemented exactly as in the original ViT: a fused qkv projection, scaled
dot-product attention per head, and an output projection.  The attention
probabilities of the last forward pass can be retained for the
attention-transfer distillation loss (:mod:`repro.distill`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module
from repro.tensor import Tensor, softmax


class MultiHeadSelfAttention(Module):
    """Self-attention over token sequences of shape ``(batch, tokens, dim)``.

    Parameters
    ----------
    dim:
        Embedding dimension; must be divisible by ``num_heads``.
    num_heads:
        Number of attention heads.
    attn_dropout / proj_dropout:
        Dropout on attention probabilities / output projection.
    store_attention:
        When True, the attention probability tensor of the most recent
        forward pass is kept in ``last_attention`` (detached) — consumed by
        the attention-transfer distillation loss.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        attn_dropout: float = 0.0,
        proj_dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        store_attention: bool = False,
    ) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)
        self.attn_drop = Dropout(attn_dropout, rng=rng)
        self.proj_drop = Dropout(proj_dropout, rng=rng)
        self.store_attention = store_attention
        self.last_attention: Optional[np.ndarray] = None
        self.last_attention_tensor: Optional[Tensor] = None

    def forward(self, x: Tensor) -> Tensor:
        batch, tokens, dim = x.shape
        qkv = self.qkv(x)  # (B, T, 3*D)
        qkv = qkv.reshape(batch, tokens, 3, self.num_heads, self.head_dim)
        qkv = qkv.permute(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]

        scores = (q @ k.transpose(-2, -1)) * self.scale  # (B, H, T, T)
        attn = softmax(scores, axis=-1)
        if self.store_attention:
            self.last_attention = attn.data.copy()
            self.last_attention_tensor = attn
        attn = self.attn_drop(attn)

        context = attn @ v  # (B, H, T, hd)
        context = context.transpose(1, 2).reshape(batch, tokens, dim)
        out = self.proj(context)
        return self.proj_drop(out)

    def __repr__(self) -> str:
        return f"MultiHeadSelfAttention(dim={self.dim}, heads={self.num_heads})"
