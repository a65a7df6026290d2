"""Elementary layers: Linear, LayerNorm, Dropout, Embedding, Sequential."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, dropout_mask, sqrt
from repro.tensor.ops import embedding as embedding_op


class Identity(Module):
    """Pass-through layer, useful as a configurable no-op."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine projection ``y = x @ W^T + b``.

    Weight shape is ``(out_features, in_features)`` to match the layout the
    quantizer and the accelerator compiler expect (per-output-channel rows).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias: Optional[Parameter] = Parameter(
                init.uniform((out_features,), rng, -bound, bound)
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered / sqrt(var + self.eps)
        return normalized * self.weight + self.bias

    def __repr__(self) -> str:
        return f"LayerNorm(dim={self.dim}, eps={self.eps})"


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode or with p == 0."""

    def __init__(self, p: float = 0.1, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        mask = dropout_mask(x.shape, 1.0 - self.p, rng=self._rng)
        return x * mask

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Embedding(Module):
    """Lookup table mapping integer ids to learned vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(init.truncated_normal((num_embeddings, dim), rng))

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_op(self.weight, indices)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
        self._order = [f"layer{i}" for i in range(len(modules))]

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x

    def __iter__(self):
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]
