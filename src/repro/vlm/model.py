"""CLIP-style two-tower vision-language model."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.nn import Embedding, LayerNorm, Linear, TransformerEncoder, VisionTransformer, ViTConfig
from repro.nn import init as nn_init
from repro.nn.inference import _float_proj
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, no_grad, sqrt
from repro.vlm.tokenizer import Tokenizer


@dataclasses.dataclass(frozen=True)
class VLMConfig:
    """Two-tower hyper-parameters.

    The image tower is deliberately *larger* than the iTask student —
    matching the paper's framing that VLMs are the heavyweight option.
    """

    joint_dim: int = 64
    # text tower
    text_dim: int = 64
    text_depth: int = 2
    text_heads: int = 4
    max_length: int = 40
    # image tower (ViT backbone)
    image_dim: int = 96
    image_depth: int = 4
    image_heads: int = 6
    image_size: int = 32
    patch_size: int = 8

    def image_vit_config(self) -> ViTConfig:
        return ViTConfig(
            image_size=self.image_size, patch_size=self.patch_size,
            dim=self.image_dim, depth=self.image_depth,
            num_heads=self.image_heads, mlp_ratio=3.0,
            num_classes=2,  # unused head; the backbone embedding is what matters
        )


def _l2_normalize(x: Tensor, eps: float = 1e-8) -> Tensor:
    norm = sqrt((x * x).sum(axis=-1, keepdims=True) + eps)
    return x / norm


class TextEncoder(Module):
    """Token embedding + positional embedding + transformer + mean pool."""

    def __init__(self, vocab_size: int, config: VLMConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.token_embed = Embedding(vocab_size, config.text_dim, rng=rng)
        self.pos_embed = Parameter(
            nn_init.truncated_normal((1, config.max_length, config.text_dim), rng)
        )
        self.encoder = TransformerEncoder(
            depth=config.text_depth, dim=config.text_dim,
            num_heads=config.text_heads, mlp_ratio=2.0, rng=rng,
        )
        self.norm = LayerNorm(config.text_dim)
        self.proj = Linear(config.text_dim, config.joint_dim, rng=rng)
        self.pad_id: int = 0

    def forward(self, token_ids: np.ndarray) -> Tensor:
        mask = (np.asarray(token_ids) != self.pad_id).astype(np.float32)
        x = self.token_embed(token_ids) + self.pos_embed
        x = self.encoder(x)
        x = self.norm(x)
        # masked mean pool over non-pad tokens
        mask_t = Tensor(mask[..., None])
        pooled = (x * mask_t).sum(axis=1) / Tensor(
            np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        return self.proj(pooled)


class ImageEncoder(Module):
    """ViT backbone + projection into the joint space."""

    def __init__(self, config: VLMConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.backbone = VisionTransformer(config.image_vit_config(), rng=rng)
        self.proj = Linear(config.image_dim, config.joint_dim, rng=rng)

    def forward(self, images: Tensor) -> Tensor:
        return self.proj(self.backbone.embed(images))


class TwoTowerVLM(Module):
    """The full contrastive model."""

    def __init__(self, tokenizer: Tokenizer, config: VLMConfig = VLMConfig(),
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.config = config
        self.tokenizer = tokenizer
        self.text_encoder = TextEncoder(tokenizer.vocab_size, config, rng=rng)
        self.text_encoder.pad_id = tokenizer.pad_id
        self.image_encoder = ImageEncoder(config, rng=rng)
        # learnable inverse temperature, initialized at 1/0.07 (CLIP)
        self.logit_scale = Parameter(np.array([np.log(1.0 / 0.07)], np.float32))

    # ------------------------------------------------------------------
    def encode_images(self, images: Tensor) -> Tensor:
        return _l2_normalize(self.image_encoder(images))

    def encode_texts(self, token_ids: np.ndarray) -> Tensor:
        return _l2_normalize(self.text_encoder(token_ids))

    def similarity_logits(self, images: Tensor,
                          token_ids: np.ndarray) -> Tensor:
        """(B_img, B_txt) scaled cosine similarities."""
        from repro.tensor import exp

        image_emb = self.encode_images(images)
        text_emb = self.encode_texts(token_ids)
        scale = exp(self.logit_scale)
        return (image_emb @ text_emb.T) * scale

    # ------------------------------------------------------------------
    # zero-shot task scoring
    # ------------------------------------------------------------------
    def mission_embedding(self, mission_text: str) -> np.ndarray:
        with no_grad():
            emb = self.encode_texts(self.tokenizer.encode_batch([mission_text]))
        return emb.data[0]

    def score_windows(self, windows: np.ndarray, mission_text: str,
                      batch_size: int = 64) -> np.ndarray:
        """Cosine similarity of each window to the mission, in [-1, 1].

        The image tower runs the backbone's inference forward, then
        :meth:`encode_images`' projection and L2 normalization in numpy.
        """
        text_emb = self.mission_embedding(mission_text)
        backbone = self.image_encoder.backbone
        proj = _float_proj(self.image_encoder.proj)
        scores = []
        for start in range(0, windows.shape[0], batch_size):
            chunk = windows[start:start + batch_size]
            image_emb = proj(backbone.infer(chunk)["cls_embedding"])
            image_emb /= np.sqrt(
                (image_emb * image_emb).sum(axis=-1, keepdims=True) + 1e-8)
            scores.append(image_emb @ text_emb)
        return np.concatenate(scores)

    def flops_per_query(self) -> int:
        """MACs for scoring one window against a cached mission embedding."""
        cfg = self.config
        backbone = self.image_encoder.backbone.flops_per_image()
        return backbone + cfg.image_dim * cfg.joint_dim + cfg.joint_dim
