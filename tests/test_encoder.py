import math
from dataclasses import replace

import numpy as np
import pytest

from pillardet.encoder import (
    EncoderParams,
    attention_pool,
    encode_pillar,
    encode_points,
    encoder_backward,
    max_pool,
)
from pillardet.errors import ValidationError


def naive_encode(aug, p):
    """Independent per-element reimplementation of the point lift."""
    n, d_in = aug.shape
    d = p.weight.shape[0]
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            z = p.bias[j]
            for k in range(d_in):
                z += p.weight[j, k] * aug[i, k]
            y = p.norm.gamma[j] * (z - p.norm.mean[j]) / math.sqrt(p.norm.var[j] + 1e-5) + p.norm.beta[j]
            out[i, j] = y if y > 0.0 else 0.0
    return out


def stable_instance(seed, n_max=8, d_max=16, relu_margin=1e-2, max_gap=1e-3):
    """Random (aug, params) away from rectifier kinks and max-pool ties."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(1, n_max + 1))
        d = int(rng.integers(1, d_max + 1))
        aug = rng.normal(0.0, 1.0, (n, 11))
        p = EncoderParams.random(rng, d)
        z = aug @ p.weight.T + p.bias
        y = (z - p.norm.mean) * p.norm.gamma / np.sqrt(p.norm.var + 1e-5) + p.norm.beta
        if np.min(np.abs(y)) < relu_margin:
            continue
        pe = np.maximum(y, 0.0)
        if n > 1:
            top2 = np.sort(pe, axis=0)[-2:]
            if np.min(top2[1] - top2[0]) < max_gap:
                continue
        return aug, p
    raise AssertionError("could not build a kink-free instance")


class TestEncodePoints:
    def test_identity_configuration(self):
        p = EncoderParams.identity()
        aug = np.abs(np.random.default_rng(0).normal(size=(4, 11)))
        np.testing.assert_allclose(encode_points(aug, p), aug, atol=1e-12)

    def test_zero_input_zero_bias(self):
        p = EncoderParams.identity()
        out = encode_points(np.zeros((3, 11)), p)
        assert not out.any()

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            aug = rng.normal(size=(int(rng.integers(1, 9)), 11))
            p = EncoderParams.random(rng, int(rng.integers(1, 17)))
            np.testing.assert_allclose(encode_points(aug, p), naive_encode(aug, p), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            encode_points(np.zeros((2, 7)), EncoderParams.identity())

    def test_empty_pillar_rejected(self):
        with pytest.raises(ValidationError):
            encode_points(np.zeros((0, 11)), EncoderParams.identity())


class TestMaxPool:
    def test_small_case(self):
        np.testing.assert_array_equal(max_pool(np.array([[1.0, 5.0], [3.0, 2.0]])), [3.0, 5.0])

    def test_single_point_identity(self):
        row = np.array([[0.3, 0.1, 4.0]])
        np.testing.assert_array_equal(max_pool(row), row[0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pe = rng.normal(size=(6, 5))
        base = max_pool(pe)
        for _ in range(10):
            np.testing.assert_array_equal(max_pool(pe[rng.permutation(6)]), base)


class TestAttentionPool:
    def test_single_point_forces_unit_scores(self):
        rng = np.random.default_rng(3)
        p = EncoderParams.random(rng, 4)
        pe = rng.normal(size=(1, 4))
        f, s = attention_pool(pe, p)
        np.testing.assert_allclose(s, 1.0)
        np.testing.assert_allclose(f, pe[0])

    def test_equal_logits_mean(self):
        p = EncoderParams.identity(3)  # zero score affine -> equal logits
        pe = np.array([[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
        f, s = attention_pool(pe, p)
        np.testing.assert_allclose(s, 0.5)
        np.testing.assert_allclose(f, pe.mean(axis=0))

    def test_scores_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pe = rng.normal(size=(int(rng.integers(1, 12)), 6))
            p = EncoderParams.random(rng, 6)
            _, s = attention_pool(pe, p)
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-6)
            assert np.all(s > 0.0) and np.all(s <= 1.0)

    def test_convex_combination(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pe = rng.normal(size=(int(rng.integers(2, 10)), 4))
            p = EncoderParams.random(rng, 4)
            f, _ = attention_pool(pe, p)
            assert np.all(f >= pe.min(axis=0) - 1e-12)
            assert np.all(f <= pe.max(axis=0) + 1e-12)


class TestEncodePillar:
    def test_combine_arithmetic(self):
        # two points with features [4] and [0] and equal scores: max 4, att 2
        p = EncoderParams.identity(1)
        weight = np.zeros((1, 11))
        weight[0, 0] = 1.0
        p = EncoderParams(
            weight=weight, bias=p.bias, norm=p.norm, score_weight=p.score_weight,
            score_bias=p.score_bias,
        )
        aug = np.zeros((2, 11))
        aug[0, 0] = 4.0
        feat = encode_pillar(aug, p)
        np.testing.assert_allclose(feat.f_max, [4.0])
        np.testing.assert_allclose(feat.f_att, [2.0])
        np.testing.assert_allclose(feat.f, [3.0])

    def test_exact_mean_of_pools(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            aug = rng.normal(size=(int(rng.integers(1, 10)), 11))
            p = EncoderParams.random(rng, 8)
            feat = encode_pillar(aug, p)
            assert np.array_equal(feat.f, (feat.f_max + feat.f_att) / 2.0)

    def test_degenerate_single_point(self):
        rng = np.random.default_rng(7)
        aug = rng.normal(size=(1, 11))
        p = EncoderParams.random(rng, 5)
        feat = encode_pillar(aug, p)
        np.testing.assert_array_equal(feat.f_max, feat.f_att)
        np.testing.assert_array_equal(feat.f, feat.encoded[0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(2, 16))
            aug = rng.normal(size=(n, 11))
            p = EncoderParams.random(rng, 12)
            base = encode_pillar(aug, p).f
            for _ in range(5):
                perm = encode_pillar(aug[rng.permutation(n)], p).f
                np.testing.assert_allclose(perm, base, atol=1e-6)


class TestBackward:
    def test_zero_upstream(self):
        aug, p = stable_instance(0)
        g = encoder_backward(aug, p, np.zeros(p.dim))
        for arr in (g.weight, g.bias, g.score_weight, g.score_bias, g.inputs):
            assert not arr.any()

    def test_identity_chain_single_point(self):
        # one point, feature = x coordinate; gradient w.r.t. x is the upstream
        weight = np.zeros((1, 11))
        weight[0, 0] = 1.0
        base = EncoderParams.identity(1)
        p = EncoderParams(
            weight=weight, bias=base.bias, norm=base.norm, score_weight=base.score_weight,
            score_bias=base.score_bias,
        )
        aug = np.zeros((1, 11))
        aug[0, 0] = 2.5
        g = encoder_backward(aug, p, np.array([1.7]))
        assert math.isclose(g.inputs[0, 0], 1.7, rel_tol=1e-12)
        assert np.allclose(g.inputs[0, 1:], 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_finite_differences(self, seed):
        aug, p = stable_instance(seed + 100)
        rng = np.random.default_rng(seed)
        upstream = rng.normal(size=p.dim)
        g = encoder_backward(aug, p, upstream)

        def loss(params, inputs):
            return float(upstream @ encode_pillar(inputs, params).f)

        h = 1e-4
        checks = [
            ("weight", g.weight), ("bias", g.bias), ("norm_gamma", g.norm_gamma),
            ("norm_beta", g.norm_beta), ("score_weight", g.score_weight), ("score_bias", g.score_bias),
        ]
        worst = 0.0
        for name, analytic in checks:
            fd = np.zeros_like(analytic)
            base = _param(p, name)
            for idx in np.ndindex(base.shape):
                for sign in (1.0, -1.0):
                    bumped = base.copy()
                    bumped[idx] += sign * h
                    fd[idx] += sign * loss(_replace(p, name, bumped), aug)
            fd /= 2 * h
            worst = max(worst, _rel_err(analytic, fd))
        fd_in = np.zeros_like(aug)
        for idx in np.ndindex(aug.shape):
            for sign in (1.0, -1.0):
                bumped = aug.copy()
                bumped[idx] += sign * h
                fd_in[idx] += sign * loss(p, bumped)
        fd_in /= 2 * h
        worst = max(worst, _rel_err(g.inputs, fd_in))
        assert worst < 1e-4


def _param(p: EncoderParams, name):
    """A parameter by its gradient name: ``norm_gamma`` is ``p.norm.gamma``."""
    return getattr(p.norm, name[len("norm_"):]) if name.startswith("norm_") else getattr(p, name)


def _replace(p: EncoderParams, name, value):
    if name.startswith("norm_"):
        return replace(p, norm=replace(p.norm, **{name[len("norm_"):]: value}))
    return replace(p, **{name: value})


def _rel_err(analytic, fd):
    scale = max(float(np.max(np.abs(fd))), 1e-6)
    return float(np.max(np.abs(analytic - fd))) / scale
