"""Minimal NCHW float32 compute: conv, batchnorm, rectifier, pooling, and the
three-branch reparameterizable block with its exact single-conv fusion.

A conv is a GEMM on unrolled columns (the im2col scheme of Caffe, Jia et
al. 2014): k*k strided plane copies of the padded input fill (c_in*k*k, rows)
columns, and the kernel, reshaped to (c_out, c_in*k*k), multiplies them from
the left, so the product is already NCHW output. The columns are filled and
multiplied one band of output rows at a time, each band at most
COLUMN_BLOCK_BYTES or the kernel's own size if that is larger, so a conv needs
its padded input, its output and one band rather than the whole
(c_in*k*k, ho*wo) matrix. A 1x1 stride-1 conv multiplies its input directly,
since that is already its column matrix.

A rep unit trains as Conv3x3-BN + Conv1x1-BN (+ Identity-BN when shapes
allow), with the rectifier applied after the branch sum. Fusion folds each
BN into its branch, aligns every branch to a 3x3 kernel, and sums; fused and
train-time forwards agree up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

FLOAT = np.float32

# Bytes of unrolled columns one band of output rows may hold: half of a 2 MiB
# L2, so a band stays cached from its fill through its GEMM.
COLUMN_BLOCK_BYTES = 1 << 20


def _freeze(arr, dtype=FLOAT) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    if not np.isfinite(a).all():
        raise ValidationError("parameters must be finite")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConvParams:
    """Cross-correlation kernel (c_out, c_in, k, k) with bias; padding = k // 2."""

    kernel: np.ndarray
    bias: np.ndarray
    stride: int = 1

    def __post_init__(self):
        kernel = _freeze(self.kernel)
        if kernel.ndim != 4 or kernel.shape[2] != kernel.shape[3] or kernel.shape[2] not in (1, 3):
            raise ValidationError(f"kernel must be (c_out, c_in, k, k) with k in {{1, 3}}, got {kernel.shape}")
        bias = _freeze(self.bias)
        if bias.shape != (kernel.shape[0],):
            raise ValidationError(f"bias must have shape ({kernel.shape[0]},), got {bias.shape}")
        if self.stride not in (1, 2):
            raise ValidationError(f"stride must be 1 or 2, got {self.stride}")
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "bias", bias)

    @property
    def out_channels(self) -> int:
        return self.kernel.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernel.shape[1]

    @property
    def ksize(self) -> int:
        return self.kernel.shape[2]

    @property
    def padding(self) -> int:
        return self.ksize // 2


# the one normalisation epsilon, never stored: every checkpoint assumes it
BN_EPS = 1e-5


@dataclass(frozen=True)
class BNParams:
    """Per-channel normalization: gamma, beta, running mean/var; divides by sqrt(var + BN_EPS).

    Statistics are held in float64 so folding them into a conv stays exact
    to the final float32 rounding.
    """

    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.gamma).shape[0]
        for name in ("gamma", "beta", "mean", "var"):
            arr = _freeze(getattr(self, name), dtype=np.float64)
            if arr.shape != (c,):
                raise ValidationError(f"bn {name} must have shape ({c},)")
            object.__setattr__(self, name, arr)
        if np.any(self.var < 0.0):
            raise ValidationError("bn running variance must be >= 0")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    @property
    def scale(self) -> np.ndarray:
        """Per-channel multiplier gamma / sqrt(var + BN_EPS), in float64."""
        return self.gamma / np.sqrt(self.var + BN_EPS)

    @classmethod
    def neutral(cls, channels: int) -> "BNParams":
        """Statistics that make the layer an exact identity, also after float32 storage:
        2^38 + BN_EPS rounds to 2^38 in float64, so the scale is 2^19 / 2^19 = 1."""
        return cls(
            gamma=np.full(channels, 2.0**19),
            beta=np.zeros(channels),
            mean=np.zeros(channels),
            var=np.full(channels, 2.0**38),
        )

    @classmethod
    def random(cls, rng: np.random.Generator, channels: int) -> "BNParams":
        return cls(
            gamma=rng.uniform(0.5, 1.5, channels),
            beta=rng.normal(0.0, 0.2, channels),
            mean=rng.normal(0.0, 0.2, channels),
            var=rng.uniform(0.5, 1.5, channels),
        )


def check_tensor(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValidationError(f"expected an (n, c, h, w) tensor, got shape {x.shape}")
    return x.astype(FLOAT, copy=False)


def conv2d(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Standard cross-correlation, padding k // 2; float32 in, a fresh C-contiguous float32 out."""
    x = check_tensor(x)
    n, ci, h, w = x.shape
    if ci != p.in_channels:
        raise ValidationError(f"input has {ci} channels, conv expects {p.in_channels}")
    k, pad, s = p.ksize, p.padding, p.stride
    ho = (h + 2 * pad - k) // s + 1
    wo = (w + 2 * pad - k) // s + 1
    kernel = p.kernel.reshape(p.out_channels, ci * k * k)
    out = np.empty((n, p.out_channels, ho * wo), dtype=FLOAT)
    if k == 1 and s == 1:
        for i in range(n):
            np.matmul(kernel, x[i].reshape(ci, h * w), out=out[i])
    else:
        if pad:
            x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        # each GEMM call repacks the whole kernel, so a band is never smaller than the kernel
        budget = max(COLUMN_BLOCK_BYTES, kernel.nbytes)
        rows = max(1, min(ho, budget // max(ci * k * k * wo * out.itemsize, 1)))
        buf = np.empty(ci * k * k * rows * wo, dtype=FLOAT)
        for i in range(n):
            for r0 in range(0, ho, rows):
                r1 = min(r0 + rows, ho)
                cols = buf[: ci * k * k * (r1 - r0) * wo].reshape(ci, k, k, r1 - r0, wo)
                for ky in range(k):
                    for kx in range(k):
                        cols[:, ky, kx] = x[i, :, ky + s * r0 : ky + s * r1 : s, kx : kx + s * wo : s]
                np.matmul(kernel, cols.reshape(ci * k * k, -1), out=out[i][:, r0 * wo : r1 * wo])
    out += p.bias[:, None]
    return out.reshape(n, p.out_channels, ho, wo)


def batchnorm(x: np.ndarray, bn: BNParams) -> np.ndarray:
    """Inference-mode normalization with the stored running statistics."""
    x = check_tensor(x)
    if x.shape[1] != bn.channels:
        raise ValidationError(f"input has {x.shape[1]} channels, bn expects {bn.channels}")
    scale = bn.scale
    shift = (bn.beta - bn.mean * scale).astype(FLOAT)
    return x * scale.astype(FLOAT)[:, None, None] + shift[:, None, None]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, FLOAT(0))


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling, as the max of the four strided quarters; spatial dims must be even."""
    x = check_tensor(x)
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValidationError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    out = np.maximum(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2])
    np.maximum(out, x[:, :, 1::2, 0::2], out=out)
    return np.maximum(out, x[:, :, 1::2, 1::2], out=out)


def upsample_nearest2(x: np.ndarray) -> np.ndarray:
    x = check_tensor(x)
    return x.repeat(2, axis=2).repeat(2, axis=3)


def bn_fold(conv: ConvParams, bn: BNParams) -> ConvParams:
    """Absorb the BN into the conv: w' = w * scale, b' matching."""
    if bn.channels != conv.out_channels:
        raise ValidationError("bn channel count must match conv output channels")
    scale = bn.scale
    kernel = conv.kernel.astype(np.float64) * scale[:, None, None, None]
    bias = bn.beta + (conv.bias.astype(np.float64) - bn.mean) * scale
    return ConvParams(kernel, bias, stride=conv.stride)


def pad_1x1_to_3x3(p: ConvParams) -> ConvParams:
    """Embed a 1x1 kernel at the center of a zero 3x3 kernel."""
    if p.ksize != 1:
        raise ValidationError(f"expected a 1x1 conv, got k={p.ksize}")
    kernel = np.zeros((p.out_channels, p.in_channels, 3, 3), dtype=p.kernel.dtype)
    kernel[:, :, 1, 1] = p.kernel[:, :, 0, 0]
    return ConvParams(kernel, p.bias, stride=p.stride)


def has_identity(c_in: int, c_out: int, stride: int) -> bool:
    """The one rule for where a rep unit carries an identity branch."""
    return c_in == c_out and stride == 1


def identity_to_3x3(channels: int) -> ConvParams:
    """Dirac kernel: conv with it reproduces the input exactly."""
    kernel = np.zeros((channels, channels, 3, 3), dtype=FLOAT)
    kernel[np.arange(channels), np.arange(channels), 1, 1] = 1.0
    return ConvParams(kernel, np.zeros(channels), stride=1)


@dataclass(frozen=True)
class RepBlockParams:
    """Three-branch train-time unit: 3x3 + 1x1 (+ identity) each with BN."""

    conv3: ConvParams
    bn3: BNParams
    conv1: ConvParams
    bn1: BNParams
    bn_id: BNParams | None = None

    def __post_init__(self):
        if self.conv3.ksize != 3 or self.conv1.ksize != 1:
            raise ValidationError("rep unit needs a 3x3 and a 1x1 branch")
        same_io = (
            self.conv3.in_channels == self.conv1.in_channels
            and self.conv3.out_channels == self.conv1.out_channels
            and self.conv3.stride == self.conv1.stride
        )
        if not same_io:
            raise ValidationError("rep unit branches disagree on shape or stride")
        if self.bn3.channels != self.conv3.out_channels or self.bn1.channels != self.conv1.out_channels:
            raise ValidationError("rep unit BN widths must match branch outputs")
        if self.bn_id is not None:
            if not has_identity(self.in_channels, self.out_channels, self.stride):
                raise ValidationError("identity branch requires c_in == c_out and stride 1")
            if self.bn_id.channels != self.conv3.out_channels:
                raise ValidationError("identity BN width must match the unit output")

    @property
    def in_channels(self) -> int:
        return self.conv3.in_channels

    @property
    def out_channels(self) -> int:
        return self.conv3.out_channels

    @property
    def stride(self) -> int:
        return self.conv3.stride


def rep_forward(x: np.ndarray, b: RepBlockParams) -> np.ndarray:
    """Train-time forward: rectifier after the three-branch sum."""
    acc = batchnorm(conv2d(x, b.conv3), b.bn3)
    acc = acc + batchnorm(conv2d(x, b.conv1), b.bn1)
    if b.bn_id is not None:
        acc = acc + batchnorm(x, b.bn_id)
    return relu(acc)


def fuse_rep_block(b: RepBlockParams) -> ConvParams:
    """Collapse the three branches into one 3x3 conv (exact algebra)."""
    f3 = bn_fold(b.conv3, b.bn3)
    f1 = pad_1x1_to_3x3(bn_fold(b.conv1, b.bn1))
    kernel = f3.kernel.astype(np.float64) + f1.kernel.astype(np.float64)
    bias = f3.bias.astype(np.float64) + f1.bias.astype(np.float64)
    if b.bn_id is not None:
        fid = bn_fold(identity_to_3x3(b.out_channels), b.bn_id)
        kernel += fid.kernel.astype(np.float64)
        bias += fid.bias.astype(np.float64)
    return ConvParams(kernel, bias, stride=b.stride)


def fused_forward(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Inference-time forward of a fused unit; the rectifier runs in place on the fresh conv output."""
    out = conv2d(x, p)
    return np.maximum(out, FLOAT(0), out=out)


def unit_forward(x: np.ndarray, unit) -> np.ndarray:
    """Run one unit in whichever mode its parameters are in."""
    if isinstance(unit, RepBlockParams):
        return rep_forward(x, unit)
    if isinstance(unit, ConvParams):
        return fused_forward(x, unit)
    raise ValidationError(f"unknown unit type {type(unit).__name__}")


def random_rep_block(
    rng: np.random.Generator, c_in: int, c_out: int, stride: int = 1, with_identity: bool | None = None
) -> RepBlockParams:
    """Random unit with sane magnitudes; identity branch added where ``has_identity`` allows."""
    if with_identity is None:
        with_identity = has_identity(c_in, c_out, stride)
    k3 = rng.normal(0.0, 1.0, (c_out, c_in, 3, 3)) / np.sqrt(9.0 * c_in)
    k1 = rng.normal(0.0, 1.0, (c_out, c_in, 1, 1)) / np.sqrt(c_in)
    return RepBlockParams(
        conv3=ConvParams(k3, rng.normal(0.0, 0.1, c_out), stride=stride),
        bn3=BNParams.random(rng, c_out),
        conv1=ConvParams(k1, rng.normal(0.0, 0.1, c_out), stride=stride),
        bn1=BNParams.random(rng, c_out),
        bn_id=BNParams.random(rng, c_out) if with_identity else None,
    )


def passthrough_rep_block(c_in: int, c_out: int, stride: int = 1) -> RepBlockParams:
    """Deterministic unit that forwards (rectified) input channels.

    Where ``has_identity`` holds the fused kernel is the exact Dirac
    identity; otherwise channels are cycled through a center-tap kernel.
    """
    identity = has_identity(c_in, c_out, stride)
    k3 = np.zeros((c_out, c_in, 3, 3))
    if not identity:
        k3[np.arange(c_out), np.arange(c_out) % c_in, 1, 1] = 1.0
    return RepBlockParams(
        conv3=ConvParams(k3, np.zeros(c_out), stride=stride),
        bn3=BNParams.neutral(c_out),
        conv1=ConvParams(np.zeros((c_out, c_in, 1, 1)), np.zeros(c_out), stride=stride),
        bn1=BNParams.neutral(c_out),
        bn_id=BNParams.neutral(c_out) if identity else None,
    )
