"""Transformer encoder blocks (pre-norm, as in ViT)."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module
from repro.tensor import Tensor, gelu


class FeedForward(Module):
    """Two-layer MLP with GELU, the standard transformer FFN."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)
        self.drop = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.drop(self.fc2(self.drop(gelu(self.fc1(x)))))


class TransformerBlock(Module):
    """Pre-norm encoder block: x + MHSA(LN(x)), then x + FFN(LN(x))."""

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        dropout: float = 0.0,
        attn_dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        store_attention: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(
            dim,
            num_heads,
            attn_dropout=attn_dropout,
            proj_dropout=dropout,
            rng=rng,
            store_attention=store_attention,
        )
        self.norm2 = LayerNorm(dim)
        self.mlp = FeedForward(dim, int(dim * mlp_ratio), dropout=dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        x = x + self.mlp(self.norm2(x))
        return x


class TransformerEncoder(Module):
    """A stack of :class:`TransformerBlock`."""

    def __init__(
        self,
        depth: int,
        dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        dropout: float = 0.0,
        attn_dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        store_attention: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.depth = depth
        for i in range(depth):
            setattr(
                self,
                f"block{i}",
                TransformerBlock(
                    dim,
                    num_heads,
                    mlp_ratio=mlp_ratio,
                    dropout=dropout,
                    attn_dropout=attn_dropout,
                    rng=rng,
                    store_attention=store_attention,
                ),
            )

    @property
    def blocks(self) -> List[TransformerBlock]:
        return [self._modules[f"block{i}"] for i in range(self.depth)]

    def forward(self, x: Tensor) -> Tensor:
        for block in self.blocks:
            x = block(x)
        return x
