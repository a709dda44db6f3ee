"""Pillar feature encoder: per-point MLP, max pooling, attention pooling.

Each pillar's points are lifted to D dims by an affine map with folded
normalization statistics and a rectifier, then reduced two ways: a channel
max, and a per-channel softmax-weighted sum over the points (scores sum to 1
per channel). The pillar feature is the mean of the two reductions.
``encode_pillar`` is the one forward, on a pillar or a stack of pillars with equal
point counts, and computes each stage once; ``encoder_backward`` gives one pillar's
exact analytic gradients from that forward's intermediates (the lift included), with
no affine of its own. Everything is a pure function of its inputs, so pillars can be
encoded concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .nn import BN_EPS, BNParams, _freeze
from .pillars import AUGMENTED_DIM


@dataclass(frozen=True)
class EncoderParams:
    """Point-lift affine and its normalization, and the score affine."""

    weight: np.ndarray  # (D, AUGMENTED_DIM)
    bias: np.ndarray  # (D,)
    norm: BNParams  # (D,) channels
    score_weight: np.ndarray  # (D, D)
    score_bias: np.ndarray  # (D,)

    def __post_init__(self):
        d = np.shape(self.weight)[0]
        shapes = {"weight": (d, AUGMENTED_DIM), "bias": (d,), "score_weight": (d, d), "score_bias": (d,)}
        for name, shape in shapes.items():
            a = _freeze(getattr(self, name), dtype=np.float64)
            if a.shape != shape:
                raise ValidationError(f"encoder {name} must have shape {shape}, got {a.shape}")
            object.__setattr__(self, name, a)
        if self.norm.channels != d:
            raise ValidationError(f"encoder norm must have {d} channels, got {self.norm.channels}")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @classmethod
    def identity(cls, dim: int = AUGMENTED_DIM) -> "EncoderParams":
        """Unit affine (input channels cycled where dim != AUGMENTED_DIM) with
        neutral normalization and zero score logits."""
        weight = np.zeros((dim, AUGMENTED_DIM))
        weight[np.arange(dim), np.arange(dim) % AUGMENTED_DIM] = 1.0
        return cls(
            weight=weight,
            bias=np.zeros(dim),
            norm=BNParams.neutral(dim),
            score_weight=np.zeros((dim, dim)),
            score_bias=np.zeros(dim),
        )

    @classmethod
    def random(cls, rng: np.random.Generator, dim: int) -> "EncoderParams":
        return cls(
            weight=rng.normal(0.0, 0.4, (dim, AUGMENTED_DIM)),
            bias=rng.normal(0.0, 0.2, dim),
            norm=BNParams.random(rng, dim),
            score_weight=rng.normal(0.0, 0.4, (dim, dim)),
            score_bias=rng.normal(0.0, 0.2, dim),
        )


@dataclass(frozen=True)
class PillarFeature:
    """Encoded pillar feature with optional per-stage intermediates."""

    f: np.ndarray
    f_max: np.ndarray | None = None
    f_att: np.ndarray | None = None
    scores: np.ndarray | None = None
    encoded: np.ndarray | None = None
    z: np.ndarray | None = None  # the point lift before normalization


def encode_pillar(aug: np.ndarray, params: EncoderParams, keep_intermediates: bool = True) -> PillarFeature:
    """Full pillar encoding of ([P,] N_v, AUGMENTED_DIM) points: f = (max-pooled + attention-pooled) / 2.

    The points are lifted to rectifier(normalize(affine(aug))); f_max is the
    channel max over points, and f_att the sum of points weighted by a
    per-channel softmax over points of the score-affine logits. A (P, N_v, 11)
    stack of pillars with equal point counts gives each pillar's own bits.
    """
    aug = np.asarray(aug, dtype=np.float64)
    if aug.ndim not in (2, 3) or aug.shape[-1] != AUGMENTED_DIM:
        raise ValidationError(f"augmented points must be ([P,] N, {AUGMENTED_DIM}), got {aug.shape}")
    if aug.shape[-2] < 1:
        raise ValidationError("cannot encode an empty pillar")
    norm = params.norm
    z = aug @ params.weight.T + params.bias
    pe = np.maximum((z - norm.mean) * norm.scale + norm.beta, 0.0)
    f_max = pe.max(axis=-2)
    logits = pe @ params.score_weight.T + params.score_bias
    e = np.exp(logits - logits.max(axis=-2, keepdims=True))
    scores = e / e.sum(axis=-2, keepdims=True)
    f_att = (scores * pe).sum(axis=-2)
    f = (f_max + f_att) / 2.0
    if keep_intermediates:
        return PillarFeature(f=f, f_max=f_max, f_att=f_att, scores=scores, encoded=pe, z=z)
    return PillarFeature(f=f)


@dataclass(frozen=True)
class EncoderGrads:
    weight: np.ndarray
    bias: np.ndarray
    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    score_weight: np.ndarray
    score_bias: np.ndarray
    inputs: np.ndarray


def encoder_backward(aug: np.ndarray, params: EncoderParams, upstream: np.ndarray) -> EncoderGrads:
    """Exact gradients of upstream . f w.r.t. parameters and inputs.

    The max branch routes through the first maximizing point per channel; the
    rectifier uses the y > 0 subgradient.
    """
    aug = np.asarray(aug, dtype=np.float64)
    if aug.ndim != 2:
        raise ValidationError(f"encoder_backward takes one pillar's (N, {AUGMENTED_DIM}) points, got {aug.shape}")
    fwd = encode_pillar(aug, params)
    pe, s, f_att, z = fwd.encoded, fwd.scores, fwd.f_att, fwd.z
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (params.dim,):
        raise ValidationError(f"upstream gradient must have shape ({params.dim},)")

    norm = params.norm

    half = upstream / 2.0
    d_pe = np.zeros_like(pe)
    d_pe[pe.argmax(axis=0), np.arange(params.dim)] += half  # max branch
    d_pe += s * half  # attention branch, direct term
    d_logits = s * (pe - f_att) * half  # softmax-weighted sum term
    d_pe += d_logits @ params.score_weight

    d_score_weight = d_logits.T @ pe
    d_score_bias = d_logits.sum(axis=0)

    d_y = d_pe * (pe > 0.0)  # pe = max(y, 0) is positive exactly where y is
    d_gamma = (d_y * (z - norm.mean)).sum(axis=0) / np.sqrt(norm.var + BN_EPS)
    d_beta = d_y.sum(axis=0)
    d_z = d_y * norm.scale
    return EncoderGrads(
        weight=d_z.T @ aug,
        bias=d_z.sum(axis=0),
        norm_gamma=d_gamma,
        norm_beta=d_beta,
        score_weight=d_score_weight,
        score_bias=d_score_bias,
        inputs=d_z @ params.weight,
    )
