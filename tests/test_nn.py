import tracemalloc

import numpy as np
import pytest

from pillardet import nn
from pillardet.errors import ValidationError
from pillardet.nn import (
    BNParams,
    ConvParams,
    RepBlockParams,
    batchnorm,
    bn_fold,
    conv2d,
    fuse_rep_block,
    fused_forward,
    maxpool2,
    passthrough_rep_block,
    random_rep_block,
    rep_forward,
    upsample_nearest2,
)


def naive_conv2d(x, p):
    """Reference cross-correlation: six explicit loops."""
    ci, h, w = x.shape
    k, pad, s = p.ksize, p.padding, p.stride
    ho = (h + 2 * pad - k) // s + 1
    wo = (w + 2 * pad - k) // s + 1
    xp = np.zeros((ci, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad : pad + h, pad : pad + w] = x
    out = np.zeros((p.out_channels, ho, wo), dtype=np.float64)
    for o in range(p.out_channels):
        for i in range(ho):
            for j in range(wo):
                acc = float(p.bias[o])
                for c in range(ci):
                    for u in range(k):
                        for v in range(k):
                            acc += float(p.kernel[o, c, u, v]) * float(xp[c, i * s + u, j * s + v])
                out[o, i, j] = acc
    return out


def rel_discrepancy(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-6)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / scale


class TestConv2d:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5, 5)).astype(np.float32)
        p = ConvParams(np.eye(3).reshape(3, 3, 1, 1), np.zeros(3))
        np.testing.assert_array_equal(conv2d(x, p), x)

    def test_zero_kernel_constant_bias(self):
        x = np.random.default_rng(1).normal(size=(2, 4, 4)).astype(np.float32)
        p = ConvParams(np.zeros((3, 2, 3, 3)), np.array([1.5, -2.0, 0.25]))
        out = conv2d(x, p)
        for o, b in enumerate([1.5, -2.0, 0.25]):
            np.testing.assert_array_equal(out[o], np.full((4, 4), b, dtype=np.float32))

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
    def test_matches_naive_loops(self, k, stride):
        rng = np.random.default_rng(2 + k + stride)
        x = rng.normal(size=(3, 8, 8)).astype(np.float32)
        p = ConvParams(rng.normal(size=(4, 3, k, k)) * 0.3, rng.normal(size=4) * 0.1, stride=stride)
        got = conv2d(x, p)
        want = naive_conv2d(x, p)
        assert got.shape == want.shape
        assert rel_discrepancy(got, want) < 1e-6

    @pytest.mark.parametrize("k", [1, 3])
    def test_stride2_on_odd_input_matches_naive_loops(self, k):
        rng = np.random.default_rng(10 + k)
        x = rng.normal(size=(3, 7, 9)).astype(np.float32)
        p = ConvParams(rng.normal(size=(4, 3, k, k)) * 0.3, rng.normal(size=4) * 0.1, stride=2)
        got = conv2d(x, p)
        want = naive_conv2d(x, p)
        assert got.shape == want.shape == (4, 4, 5)
        assert rel_discrepancy(got, want) < 1e-6

    def test_wide_columns_match_naive_loops(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(16, 6, 5)).astype(np.float32)  # c_in * 9 = 144 column rows
        p = ConvParams(rng.normal(size=(5, 16, 3, 3)) / 12.0, rng.normal(size=5) * 0.1)
        assert rel_discrepancy(conv2d(x, p), naive_conv2d(x, p)) < 1e-6

    @pytest.mark.parametrize(
        "k,stride,h,w,band_rows",
        [
            (3, 1, 9, 7, 2),  # four 2-row bands and a 1-row tail
            (3, 1, 9, 7, 1),
            (3, 2, 11, 9, 4),  # ho = 6: one 4-row band and a 2-row tail
            (3, 2, 11, 9, 1),
            (1, 2, 9, 7, 2),  # ho = 5: 2, 2 and a 1-row tail
        ],
    )
    def test_row_bands_match_naive_loops(self, monkeypatch, k, stride, h, w, band_rows):
        rng = np.random.default_rng(20 + k + stride + band_rows)
        x = rng.normal(size=(3, h, w)).astype(np.float32)
        p = ConvParams(rng.normal(size=(4, 3, k, k)) * 0.3, rng.normal(size=4) * 0.1, stride=stride)
        wo = (w + 2 * p.padding - k) // stride + 1
        row_bytes = 3 * k * k * wo * 4
        assert p.kernel.nbytes <= row_bytes  # so the kernel-size floor never widens a band here
        # a budget of band_rows column rows, or less than one row for 1-row bands
        budget = band_rows * row_bytes if band_rows > 1 else 1
        monkeypatch.setattr(nn, "COLUMN_BLOCK_BYTES", budget)
        got = conv2d(x, p)
        want = naive_conv2d(x, p)
        assert got.shape == want.shape
        assert rel_discrepancy(got, want) < 1e-6

    def test_peak_memory_is_input_output_and_one_band(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(64, 96, 96)).astype(np.float32)
        p = ConvParams(rng.normal(size=(64, 64, 3, 3)) / 24.0, np.zeros(64))
        padded_bytes = 64 * 98 * 98 * 4
        out_bytes = 64 * 96 * 96 * 4
        slack = 64 * 1024  # small arrays, views and the interpreter's own allocations
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            conv2d(x, p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # the whole (576, 96*96) column matrix alone would take 21 MB
        assert peak <= padded_bytes + out_bytes + max(nn.COLUMN_BLOCK_BYTES, p.kernel.nbytes) + slack

    @pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
    def test_output_is_a_fresh_contiguous_float32_tensor(self, k, stride):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 6, 7)).astype(np.float32)
        before = x.copy()
        p = ConvParams(rng.normal(size=(3, 3, k, k)), rng.normal(size=3), stride=stride)
        out = conv2d(x, p)
        assert out.dtype == np.float32 and out.flags.c_contiguous
        assert not np.shares_memory(out, x)
        # the fused forward rectifies the conv output in place, never its input
        fused_forward(x, p)
        np.testing.assert_array_equal(x, before)

    def test_output_dims(self):
        x = np.zeros((1, 7, 9), dtype=np.float32)
        assert conv2d(x, ConvParams(np.zeros((1, 1, 3, 3)), np.zeros(1), stride=2)).shape == (1, 4, 5)
        assert conv2d(x, ConvParams(np.zeros((1, 1, 1, 1)), np.zeros(1), stride=2)).shape == (1, 4, 5)

    def test_channel_mismatch(self):
        with pytest.raises(ValidationError):
            conv2d(np.zeros((2, 4, 4), dtype=np.float32), ConvParams(np.zeros((1, 3, 3, 3)), np.zeros(1)))

    def test_kernel_size_validation(self):
        with pytest.raises(ValidationError):
            ConvParams(np.zeros((1, 1, 5, 5)), np.zeros(1))


class TestBNFold:
    def test_neutral_statistics_identity(self):
        rng = np.random.default_rng(3)
        conv = ConvParams(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4))
        folded = bn_fold(conv, BNParams.neutral(4))
        np.testing.assert_array_equal(folded.kernel, conv.kernel)
        np.testing.assert_array_equal(folded.bias, conv.bias)

    def test_pure_scale(self):
        rng = np.random.default_rng(4)
        conv = ConvParams(rng.normal(size=(2, 2, 3, 3)), np.zeros(2))
        neutral = BNParams.neutral(2)
        bn = BNParams(gamma=2.0 * neutral.gamma, beta=np.zeros(2), mean=np.zeros(2),
                      var=neutral.var)
        folded = bn_fold(conv, bn)
        np.testing.assert_array_equal(folded.kernel, conv.kernel * np.float32(2.0))

    def test_equivalence_probe(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            conv = ConvParams(rng.normal(size=(3, 2, 3, 3)) * 0.5, rng.normal(size=3) * 0.1)
            bn = BNParams(gamma=rng.uniform(0.5, 1.5, 3), beta=rng.normal(size=3),
                          mean=rng.normal(size=3), var=rng.uniform(0.5, 1.5, 3))
            x = rng.normal(size=(2, 6, 6)).astype(np.float32)
            direct = batchnorm(conv2d(x, conv), bn)
            assert np.max(np.abs(direct - conv2d(x, bn_fold(conv, bn)))) < 1e-5


class TestFuseRepBlock:
    def test_zero_branches_neutral_identity_is_dirac(self):
        fused = fuse_rep_block(passthrough_rep_block(3, 3))
        dirac = np.zeros((3, 3, 3, 3), dtype=np.float32)
        dirac[np.arange(3), np.arange(3), 1, 1] = 1.0
        np.testing.assert_array_equal(fused.kernel, dirac)
        np.testing.assert_array_equal(fused.bias, np.zeros(3, dtype=np.float32))

    def test_only_3x3_branch_active(self):
        rng = np.random.default_rng(9)
        conv3 = ConvParams(rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4))
        block = RepBlockParams(
            conv3=conv3,
            bn3=BNParams.neutral(4),
            conv1=ConvParams(np.zeros((4, 2, 1, 1)), np.zeros(4), stride=1),
            bn1=BNParams.neutral(4),
            bn_id=None,
        )
        fused = fuse_rep_block(block)
        np.testing.assert_array_equal(fused.kernel, conv3.kernel)
        np.testing.assert_array_equal(fused.bias, conv3.bias)

    @pytest.mark.parametrize("ci,co,stride", [(3, 3, 1), (2, 4, 1), (4, 4, 2), (3, 5, 2)])
    def test_fusion_equivalence(self, ci, co, stride):
        rng = np.random.default_rng(10 + ci * co + stride)
        for _ in range(10):
            block = random_rep_block(rng, ci, co, stride)
            x = rng.normal(size=(ci, 8, 8)).astype(np.float32)
            train = rep_forward(x, block)
            fused = fused_forward(x, fuse_rep_block(block))
            assert rel_discrepancy(train, fused) < 1e-5

    def test_bytes_equal_three_helper_fold(self):
        """The fold is byte for byte the older one that padded the 1x1 branch to a
        zero 3x3 kernel and folded a full Dirac 3x3 conv for the identity branch.
        Zero and negative gammas and +/-0 kernel entries put -0.0 in the folded
        branches, so adding the 1x1 branch on the centre tap alone fails here."""

        def three_helper_fold(b):
            k1 = bn_fold(b.conv1, b.bn1)
            padded = np.zeros((b.out_channels, b.in_channels, 3, 3), dtype=np.float32)
            padded[:, :, 1, 1] = k1.kernel[:, :, 0, 0]
            f3, f1 = bn_fold(b.conv3, b.bn3), ConvParams(padded, k1.bias, stride=k1.stride)
            kernel = f3.kernel.astype(np.float64) + f1.kernel.astype(np.float64)
            bias = f3.bias.astype(np.float64) + f1.bias.astype(np.float64)
            if b.bn_id is not None:
                dirac = np.zeros((b.out_channels, b.out_channels, 3, 3), dtype=np.float32)
                dirac[np.arange(b.out_channels), np.arange(b.out_channels), 1, 1] = 1.0
                fid = bn_fold(ConvParams(dirac, np.zeros(b.out_channels)), b.bn_id)
                kernel += fid.kernel.astype(np.float64)
                bias += fid.bias.astype(np.float64)
            return ConvParams(kernel, bias, stride=b.stride)

        rng = np.random.default_rng(15)

        def signed_zeros(a):
            pick = rng.random(a.shape)
            return np.where(pick < 0.15, 0.0, np.where(pick < 0.3, -0.0, a))

        def bn(c):
            gamma = rng.choice([0.0, -0.0, -1.0, 1.0], size=c) * rng.uniform(0.5, 1.5, c)
            return BNParams(gamma, rng.normal(0.0, 0.2, c), rng.normal(0.0, 0.2, c), rng.uniform(0.5, 1.5, c))

        negative_zeros = 0
        for _ in range(400):
            ci, co, stride = rng.integers(1, 7), rng.integers(1, 7), rng.choice([1, 2])
            if rng.random() < 0.5:
                co = ci
            with_identity = bool(nn.has_identity(ci, co, stride) and rng.random() < 0.8)
            conv3, conv1 = (
                ConvParams(signed_zeros(rng.normal(size=(co, ci, k, k))), signed_zeros(rng.normal(size=co)), stride)
                for k in (3, 1)
            )
            block = RepBlockParams(
                conv3=conv3,
                bn3=bn(co),
                conv1=conv1,
                bn1=bn(co),
                bn_id=bn(co) if with_identity else None,
            )
            got, want = fuse_rep_block(block), three_helper_fold(block)
            assert got.stride == want.stride
            assert got.kernel.tobytes() == want.kernel.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()
            negative_zeros += bool(np.signbit(got.kernel[got.kernel == 0]).any())
        assert negative_zeros > 50  # the draws do reach the signed-zero cases

    def test_identity_branch_shape_rules(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValidationError):
            random_rep_block(rng, 2, 4, 1, with_identity=True)
        with pytest.raises(ValidationError):
            random_rep_block(rng, 4, 4, 2, with_identity=True)


class TestPooling:
    def test_maxpool2(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        np.testing.assert_array_equal(maxpool2(x)[0], [[5.0, 7.0], [13.0, 15.0]])

    def test_maxpool2_bytes_equal_reshape_max(self):
        rng = np.random.default_rng(14)
        specials = np.array([0.0, -0.0, np.nan, 1.0, 1.0, -2.0], dtype=np.float32)
        x = np.where(rng.random((10, 10, 14)) < 0.7,
                     rng.choice(specials, size=(10, 10, 14)),
                     rng.normal(size=(10, 10, 14))).astype(np.float32)
        want = x.reshape(10, 5, 2, 7, 2).max(axis=(2, 4))
        got = maxpool2(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_maxpool2_odd_rejected(self):
        with pytest.raises(ValidationError):
            maxpool2(np.zeros((1, 3, 4), dtype=np.float32))

    def test_upsample_value(self):
        x = np.array([[[7.0]]], dtype=np.float32)
        np.testing.assert_array_equal(upsample_nearest2(x)[0], np.full((2, 2), 7.0))

    def test_upsample_blocks(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        up = upsample_nearest2(x)[0]
        np.testing.assert_array_equal(up[:2, :2], np.full((2, 2), 1.0))
        np.testing.assert_array_equal(up[2:, 2:], np.full((2, 2), 4.0))
