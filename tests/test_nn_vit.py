"""Vision Transformer: config validation, shapes, attention, determinism."""

import numpy as np
import pytest

from repro.nn import (
    MultiHeadSelfAttention,
    PatchEmbedding,
    TransformerBlock,
    TransformerEncoder,
    VisionTransformer,
    ViTConfig,
)
from repro.tensor import Tensor, check_gradient, randn


class TestViTConfig:
    def test_divisibility_checks(self):
        with pytest.raises(ValueError):
            ViTConfig(image_size=30, patch_size=8)
        with pytest.raises(ValueError):
            ViTConfig(dim=50, num_heads=4)

    def test_token_accounting(self):
        cfg = ViTConfig(image_size=32, patch_size=8)
        assert cfg.num_patches == 16
        assert cfg.num_tokens == 17
        assert cfg.patch_dim == 3 * 64

    def test_presets_ordering(self):
        teacher = ViTConfig.teacher(4)
        student = ViTConfig.student(4)
        assert teacher.dim > student.dim
        assert teacher.depth > student.depth


class TestPatchEmbedding:
    def test_patch_extraction_shape(self, tiny_vit_config):
        pe = PatchEmbedding(tiny_vit_config, rng=np.random.default_rng(0))
        images = randn(2, 3, 16, 16, rng=np.random.default_rng(1))
        patches = pe.extract_patches(images)
        assert patches.shape == (2, tiny_vit_config.num_patches,
                                 tiny_vit_config.patch_dim)

    def test_patch_content_is_rearrangement(self, tiny_vit_config):
        pe = PatchEmbedding(tiny_vit_config, rng=np.random.default_rng(0))
        images = randn(1, 3, 16, 16, rng=np.random.default_rng(2))
        patches = pe.extract_patches(images).data
        # first patch = top-left 8x8 block, channel-major
        manual = images.data[0, :, :8, :8].reshape(-1)
        np.testing.assert_allclose(patches[0, 0], manual, rtol=1e-6)

    def test_projection_shape(self, tiny_vit_config):
        pe = PatchEmbedding(tiny_vit_config, rng=np.random.default_rng(0))
        images = randn(2, 3, 16, 16, rng=np.random.default_rng(1))
        out = pe(images)
        assert out.shape == (2, tiny_vit_config.num_patches, tiny_vit_config.dim)


class TestAttention:
    def test_output_shape(self):
        attn = MultiHeadSelfAttention(16, 4, rng=np.random.default_rng(0))
        x = randn(2, 5, 16, rng=np.random.default_rng(1))
        assert attn(x).shape == (2, 5, 16)

    def test_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_attention_rows_sum_to_one(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0),
                                      store_attention=True)
        x = randn(1, 4, 8, rng=np.random.default_rng(1))
        attn(x)
        probs = attn.last_attention
        assert probs.shape == (1, 2, 4, 4)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)

    def test_gradient_through_attention(self):
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        x = randn(1, 3, 8, rng=np.random.default_rng(1), requires_grad=True)
        ok, err = check_gradient(lambda t: attn(t), [x], atol=2e-2)
        assert ok, err

    def test_permutation_equivariance(self):
        """Self-attention without position info commutes with token permutation."""
        attn = MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        attn.eval()
        x = randn(1, 5, 8, rng=np.random.default_rng(1))
        perm = np.array([3, 0, 4, 1, 2])
        out = attn(x).data
        out_permuted = attn(Tensor(x.data[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_permuted, atol=1e-5)


class TestTransformerBlocks:
    def test_block_shape_preserved(self):
        block = TransformerBlock(16, 4, rng=np.random.default_rng(0))
        x = randn(2, 6, 16, rng=np.random.default_rng(1))
        assert block(x).shape == (2, 6, 16)

    def test_encoder_depth(self):
        enc = TransformerEncoder(3, 16, 4, rng=np.random.default_rng(0))
        assert len(enc.blocks) == 3


class TestVisionTransformer:
    def test_forward_contract(self, tiny_vit):
        x = randn(3, 3, 16, 16, rng=np.random.default_rng(0))
        out = tiny_vit(x)
        assert out["class_logits"].shape == (3, tiny_vit.config.num_classes)
        assert out["cls_embedding"].shape == (3, tiny_vit.config.dim)
        for name, card in tiny_vit.config.attribute_heads:
            assert out["attributes"][name].shape == (3, card)

    def test_deterministic_given_seed(self, tiny_vit_config):
        a = VisionTransformer(tiny_vit_config, rng=np.random.default_rng(5))
        b = VisionTransformer(tiny_vit_config, rng=np.random.default_rng(5))
        x = randn(1, 3, 16, 16, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(
            a(x)["class_logits"].data, b(x)["class_logits"].data
        )

    def test_classify(self, tiny_vit):
        x = randn(4, 3, 16, 16, rng=np.random.default_rng(0))
        preds = tiny_vit.classify(x.data)
        assert preds.shape == (4,)
        assert preds.dtype.kind == "i"

    def test_flops_positive_and_ordered(self):
        t = VisionTransformer(ViTConfig.teacher(4), rng=np.random.default_rng(0))
        s = VisionTransformer(ViTConfig.student(4), rng=np.random.default_rng(0))
        assert t.flops_per_image() > s.flops_per_image() > 0

    def test_gradient_flows_to_all_parameters(self, tiny_vit):
        tiny_vit.train()
        x = randn(2, 3, 16, 16, rng=np.random.default_rng(0))
        out = tiny_vit(x)
        loss = out["class_logits"].sum()
        for attr in out["attributes"].values():
            loss = loss + attr.sum()
        tiny_vit.zero_grad()
        loss.backward()
        missing = [name for name, p in tiny_vit.named_parameters() if p.grad is None]
        assert not missing, f"no gradient reached: {missing}"


def _softmax_row_max_oracle(x):
    """The softmax with a ``max(axis=1)`` row max, as the inference
    forward computed it before the column-major row max."""
    flat = x.reshape(-1, x.shape[-1])
    flat -= flat.max(axis=1)[:, None]
    np.exp(flat, out=flat)
    flat /= np.einsum("ij->i", flat)[:, None]
    return flat.reshape(x.shape)


class TestInferenceSoftmax:
    """``repro.nn.inference._softmax`` equals the ``max(axis=1)``
    formulation bit for bit, NaN positions included."""

    @staticmethod
    def _assert_same(x):
        from repro.nn.inference import _softmax

        with np.errstate(invalid="ignore"):
            expected = _softmax_row_max_oracle(x.copy())
            actual = _softmax(x.copy())
        np.testing.assert_array_equal(actual, expected)
        assert np.array_equal(np.signbit(actual), np.signbit(expected))

    @pytest.mark.parametrize("cols", [1, 17])
    def test_random_rows(self, cols):
        x = np.random.default_rng(cols).normal(
            scale=4.0, size=(2, 4, 17, cols)).astype(np.float32)
        self._assert_same(x)

    def test_ties_zeros_infinities_and_nan(self):
        x = np.random.default_rng(3).normal(size=(8, 17)).astype(np.float32)
        x[0] = 1.5                       # every column ties
        x[1, [2, 9, 16]] = x[1].max() + 1.0   # a tied maximum
        x[2] = 0.0
        x[2, ::2] = -0.0                 # signed zeros tie at the max
        x[3, 5] = -np.inf                # one -inf
        x[4] = -np.inf                   # a row of -inf
        x[5, 7] = np.nan                 # one NaN
        x[6, 0] = np.inf                 # a +inf maximum
        self._assert_same(x)

    def test_strided_cls_rows(self):
        # The CLS-only block hands softmax a non-contiguous row view.
        scores = np.random.default_rng(4).normal(
            size=(3, 4, 17, 17)).astype(np.float32)
        expected = scores.copy()
        expected[:, :, :1] = _softmax_row_max_oracle(expected[:, :, :1])
        from repro.nn.inference import _softmax

        scores[:, :, :1] = _softmax(scores[:, :, :1])
        np.testing.assert_array_equal(scores, expected)
