"""Vision Transformer.

The iTask models classify fixed-size image windows (region proposals from
:mod:`repro.detect`) and additionally predict the *attribute profile* of
the window content — one classification head per attribute family (shape,
color, size, texture, border).  The attribute logits are what the
knowledge-graph matcher consumes; the object-class head is used by the
data-only baseline and for evaluation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.inference import _gelu_erf, _vit_forward, float_projections, site_plan
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.module import Module, Parameter
from repro.nn.transformer import TransformerEncoder
from repro.tensor import Tensor, cat, gelu


class TaskHead(Module):
    """Two-layer task-relevance head for the task-specific configuration.

    A linear probe on the CLS embedding is too weak for the near-miss
    boundary decisions that define a "specific scenario"; one hidden
    layer is enough.  Kept as two named Linear layers so the quantizer
    and the accelerator compiler can address each GEMM individually.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.fc1 = Linear(dim, dim, rng=rng)
        self.fc2 = Linear(dim, 2, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


@dataclasses.dataclass(frozen=True)
class ViTConfig:
    """Hyper-parameters of a :class:`VisionTransformer`.

    The teacher/student pairs of the paper differ only in ``depth``,
    ``dim`` and ``num_heads``; presets below mirror that relationship at a
    laptop-friendly scale.
    """

    image_size: int = 32
    patch_size: int = 8
    in_channels: int = 3
    dim: int = 96
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 2.0
    num_classes: int = 8
    attribute_heads: Tuple[Tuple[str, int], ...] = ()
    dropout: float = 0.0
    attn_dropout: float = 0.0
    # Task-specific configuration: adds a binary task-relevance head that
    # the distiller trains on mission labels — the knowledge graph "baked
    # into" the specialist (paper's task-specific ViT).
    with_task_head: bool = False

    def __post_init__(self) -> None:
        if self.image_size % self.patch_size != 0:
            raise ValueError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.dim % self.num_heads != 0:
            raise ValueError(f"dim {self.dim} not divisible by num_heads {self.num_heads}")

    @property
    def num_patches(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def num_tokens(self) -> int:
        return self.num_patches + 1  # patches + [CLS]

    @property
    def patch_dim(self) -> int:
        return self.in_channels * self.patch_size * self.patch_size

    @staticmethod
    def teacher(num_classes: int, attribute_heads=()) -> "ViTConfig":
        """Large model used as the distillation teacher.

        Sized so that teacher training stays in the minutes range on a
        single CPU core while keeping a ~6× compute gap to the student —
        the same ratio regime as the paper's teacher/student pair.
        """
        return ViTConfig(
            dim=96, depth=4, num_heads=6, mlp_ratio=3.0,
            num_classes=num_classes, attribute_heads=tuple(attribute_heads),
        )

    @staticmethod
    def student(num_classes: int, attribute_heads=()) -> "ViTConfig":
        """Compact model deployed on the edge device."""
        return ViTConfig(
            dim=48, depth=2, num_heads=4, mlp_ratio=2.0,
            num_classes=num_classes, attribute_heads=tuple(attribute_heads),
        )

    @staticmethod
    def tiny(num_classes: int, attribute_heads=()) -> "ViTConfig":
        """Very small model for fast unit tests."""
        return ViTConfig(
            image_size=16, patch_size=8, dim=32, depth=2, num_heads=2,
            mlp_ratio=2.0, num_classes=num_classes,
            attribute_heads=tuple(attribute_heads),
        )


class PatchEmbedding(Module):
    """Split ``(B, C, H, W)`` images into flattened patches and project.

    Implemented as reshape + linear, which is mathematically identical to
    the strided-convolution formulation and maps directly onto the
    accelerator's GEMM unit.
    """

    def __init__(self, config: ViTConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.config = config
        self.proj = Linear(config.patch_dim, config.dim, rng=rng)

    def extract_patches(self, images: Tensor) -> Tensor:
        """Rearrange ``(B, C, H, W)`` into ``(B, num_patches, patch_dim)``."""
        cfg = self.config
        batch = images.shape[0]
        grid = cfg.image_size // cfg.patch_size
        x = images.reshape(batch, cfg.in_channels, grid, cfg.patch_size, grid, cfg.patch_size)
        x = x.permute(0, 2, 4, 1, 3, 5)  # (B, gy, gx, C, p, p)
        return x.reshape(batch, grid * grid, cfg.patch_dim)

    def forward(self, images: Tensor) -> Tensor:
        return self.proj(self.extract_patches(images))


class VisionTransformer(Module):
    """ViT classifier with auxiliary attribute heads.

    ``forward`` (autograd, for training) returns a dict of Tensors, and
    ``infer`` the same dict of numpy arrays::

        {"class_logits": (B, num_classes),
         "attributes": {name: (B, cardinality), ...},
         "cls_embedding": (B, dim),
         "task_logits": (B, 2)}   # with a task head only
    """

    def __init__(self, config: ViTConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.config = config
        self.patch_embed = PatchEmbedding(config, rng=rng)
        self.cls_token = Parameter(init.truncated_normal((1, 1, config.dim), rng))
        self.pos_embed = Parameter(
            init.truncated_normal((1, config.num_tokens, config.dim), rng)
        )
        self.drop = Dropout(config.dropout, rng=rng)
        self.encoder = TransformerEncoder(
            depth=config.depth,
            dim=config.dim,
            num_heads=config.num_heads,
            mlp_ratio=config.mlp_ratio,
            dropout=config.dropout,
            attn_dropout=config.attn_dropout,
            rng=rng,
        )
        self.norm = LayerNorm(config.dim)
        self.head = Linear(config.dim, config.num_classes, rng=rng)
        self._attribute_names: List[str] = []
        for name, cardinality in config.attribute_heads:
            setattr(self, f"attr_head_{name}", Linear(config.dim, cardinality, rng=rng))
            self._attribute_names.append(name)
        if config.with_task_head:
            self.task_head: Optional[TaskHead] = TaskHead(config.dim, rng=rng)
        else:
            self.task_head = None

    @property
    def attribute_names(self) -> List[str]:
        return list(self._attribute_names)

    def embed(self, images: Tensor) -> Tensor:
        """Everything before the heads: returns normalized CLS embedding."""
        tokens = self.patch_embed(images)  # (B, P, D)
        batch = tokens.shape[0]
        cls = self.cls_token.reshape(1, 1, self.config.dim)
        cls = cls + Tensor(np.zeros((batch, 1, self.config.dim), dtype=np.float32))
        x = cat([cls, tokens], axis=1) + self.pos_embed
        x = self.drop(x)
        x = self.encoder(x)
        x = self.norm(x)
        return x[:, 0]

    def forward(self, images: Tensor) -> Dict[str, object]:
        cls_embedding = self.embed(images)
        out: Dict[str, object] = {
            "class_logits": self.head(cls_embedding),
            "cls_embedding": cls_embedding,
        }
        attributes: Dict[str, Tensor] = {}
        for name in self._attribute_names:
            attributes[name] = self._modules[f"attr_head_{name}"](cls_embedding)
        out["attributes"] = attributes
        if self.task_head is not None:
            out["task_logits"] = self.task_head(cls_embedding)
        return out

    def infer(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """Float inference: :meth:`forward`'s outputs as numpy arrays,
        computed by the shared numpy forward
        (:func:`repro.nn.inference._vit_forward`) with exact-erf GELU.

        The projections are read from the live weights on every call
        (they are tiny), so no cached copy can go stale while the model
        trains.
        """
        return _vit_forward(self, np.asarray(images, np.float32),
                            float_projections(self), gelu=_gelu_erf)

    def classify(self, images: np.ndarray) -> np.ndarray:
        """Hard class predictions (inference helper)."""
        return self.infer(images)["class_logits"].argmax(axis=-1)

    def flops_per_image(self) -> int:
        """Multiply-accumulate count of one inference forward (and of
        its compiled accelerator program): the site plan's at batch 1."""
        return sum(op.macs for op in site_plan(self.config))
