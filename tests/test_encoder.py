import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from pillardet.encoder import EncoderParams, encode_pillar, encoder_backward
from pillardet.errors import ValidationError

# sha256 over every forward field and every gradient of ``encoder_cases()``;
# a change to the encoder's float order moves it, and says why.
ENCODER_DIGEST = "5aaaf36ce734b8fb577f867d7f4a1ed2183c40d84a74c3ebef0228e57396b403"


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


def pool(pe, rng=None):
    """``encode_pillar`` of points whose lifted features are exactly ``pe``.

    ``pe`` is (N, D) with D <= 11 and non-negative, so the identity lift
    passes it through; ``rng`` draws a random score affine, else it is zero.
    """
    pe = np.asarray(pe, dtype=np.float64)
    n, d = pe.shape
    p = EncoderParams.identity(d)
    if rng is not None:
        p = replace(p, score_weight=rng.normal(0.0, 0.4, (d, d)), score_bias=rng.normal(0.0, 0.2, d))
    aug = np.zeros((n, 11))
    aug[:, :d] = pe
    feat = encode_pillar(aug, p)
    assert np.array_equal(feat.encoded, pe)
    return feat


def encoder_cases(seed=40, count=2000):
    """Seeded (aug, params, upstream): dims and point counts 1-64; every third
    case has identity params, half of those with non-negative input."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, d = (int(v) for v in rng.integers(1, 65, 2))
        aug = rng.normal(0.0, 1.0, (n, 11))
        if i % 3 == 0:
            p = EncoderParams.identity(d)
            aug = np.abs(aug) if i % 2 else aug
        else:
            p = EncoderParams.random(rng, d)
        yield aug, p, rng.normal(0.0, 1.0, d)


def test_forward_and_gradient_bits_are_pinned():
    h = hashlib.sha256()
    for aug, p, upstream in encoder_cases():
        full = encode_pillar(aug, p)
        lean = encode_pillar(aug, p, keep_intermediates=False)
        assert lean.f_max is None and lean.f_att is None and lean.scores is None and lean.encoded is None
        g = encoder_backward(aug, p, upstream)
        for a in (
            full.f, full.f_max, full.f_att, full.scores, full.encoded, lean.f,
            g.weight, g.bias, g.norm_gamma, g.norm_beta, g.score_weight, g.score_bias, g.inputs,
        ):
            h.update(a.tobytes())
    assert h.hexdigest() == ENCODER_DIGEST


class TestEncodePoints:
    def test_identity_configuration(self):
        p = EncoderParams.identity()
        aug = np.abs(np.random.default_rng(0).normal(size=(4, 11)))
        np.testing.assert_allclose(encode_pillar(aug, p).encoded, aug, atol=1e-12)

    def test_zero_input_zero_bias(self):
        p = EncoderParams.identity()
        out = encode_pillar(np.zeros((3, 11)), p).encoded
        assert not out.any()

    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            aug = rng.normal(size=(int(rng.integers(1, 9)), 11))
            p = EncoderParams.random(rng, int(rng.integers(1, 17)))
            np.testing.assert_allclose(encode_pillar(aug, p).encoded, naive_encode(aug, p), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            encode_pillar(np.zeros((2, 7)), EncoderParams.identity())

    def test_empty_pillar_rejected(self):
        with pytest.raises(ValidationError):
            encode_pillar(np.zeros((0, 11)), EncoderParams.identity())


class TestMaxPool:
    def test_small_case(self):
        np.testing.assert_array_equal(pool([[1.0, 5.0], [3.0, 2.0]]).f_max, [3.0, 5.0])

    def test_single_point_identity(self):
        row = np.array([[0.3, 0.1, 4.0]])
        np.testing.assert_array_equal(pool(row).f_max, row[0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pe = np.abs(rng.normal(size=(6, 5)))
        base = pool(pe).f_max
        for _ in range(10):
            np.testing.assert_array_equal(pool(pe[rng.permutation(6)]).f_max, base)


class TestAttentionPool:
    def test_single_point_forces_unit_scores(self):
        rng = np.random.default_rng(3)
        pe = np.abs(rng.normal(size=(1, 4)))
        feat = pool(pe, rng)
        np.testing.assert_allclose(feat.scores, 1.0)
        np.testing.assert_allclose(feat.f_att, pe[0])

    def test_equal_logits_mean(self):
        pe = np.array([[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
        feat = pool(pe)  # zero score affine -> equal logits
        np.testing.assert_allclose(feat.scores, 0.5)
        np.testing.assert_allclose(feat.f_att, pe.mean(axis=0))

    def test_scores_sum_to_one_and_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            aug = rng.normal(size=(int(rng.integers(1, 12)), 11))
            s = encode_pillar(aug, EncoderParams.random(rng, 6)).scores
            np.testing.assert_allclose(s.sum(axis=0), 1.0, atol=1e-6)
            assert np.all(s > 0.0) and np.all(s <= 1.0)

    def test_convex_combination(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            aug = rng.normal(size=(int(rng.integers(2, 10)), 11))
            feat = encode_pillar(aug, EncoderParams.random(rng, 4))
            assert np.all(feat.f_att >= feat.encoded.min(axis=0) - 1e-12)
            assert np.all(feat.f_att <= feat.encoded.max(axis=0) + 1e-12)


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

    def test_lift_is_kept_and_feeds_the_features(self):
        rng = np.random.default_rng(9)
        aug = rng.normal(size=(5, 11))
        p = EncoderParams.random(rng, 7)
        feat = encode_pillar(aug, p)
        assert np.array_equal(feat.z, aug @ p.weight.T + p.bias)
        assert np.array_equal(feat.encoded, np.maximum((feat.z - p.norm.mean) * p.norm.scale + p.norm.beta, 0.0))
        assert encode_pillar(aug, p, keep_intermediates=False).z is None

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
