"""Stage-ratio backbone of reparameterizable units, neck fusion, compute counters.

Architecture: a stride-1 stem unit maps the encoder width to the stage-1
channels; stages 2-4 each open with a stride-2 transition unit; every counted
"block" is a pair of rep units at the stage width. Channels double per stage
while spatial dims halve, which makes the per-block multiply-accumulate cost
identical across stages. The neck fuses the stage-3 and stage-4 maps (the 8x
and 16x levels of the source grid, given the canvas reduction applied before
the stem) back to the 8x level.

count_macs/count_params are analytic: count_macs echoes the resolutions it
assumes, and count_params counts the units make_backbone builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .nn import (
    ConvParams,
    RepBlockParams,
    conv2d,
    fuse_rep_block,
    passthrough_rep_block,
    random_rep_block,
    relu,
    unit_forward,
    upsample_nearest2,
)

N_STAGES = 4
DEFAULT_CHANNELS = (64, 128, 256, 512)


@dataclass(frozen=True)
class BackboneConfig:
    """Block allocation per stage plus widths and the stage-1 resolution."""

    stage_blocks: tuple[int, int, int, int]
    stage_channels: tuple[int, int, int, int] = DEFAULT_CHANNELS
    in_channels: int = 64
    input_hw: tuple[int, int] = (64, 64)

    def __post_init__(self):
        if len(self.stage_blocks) != N_STAGES or any(b < 0 for b in self.stage_blocks):
            raise ValidationError(f"stage_blocks must be 4 non-negative ints, got {self.stage_blocks}")
        ch = self.stage_channels
        if len(ch) != N_STAGES or ch[0] < 1 or any(ch[i] != 2 * ch[i - 1] for i in range(1, N_STAGES)):
            raise ValidationError(f"stage_channels must double per stage, got {ch}")
        if self.in_channels < 1:
            raise ValidationError("in_channels must be >= 1")
        h, w = self.input_hw
        if h % 8 or w % 8 or h < 8 or w < 8:
            raise ValidationError(f"input_hw must be multiples of 8 for three exact halvings, got {self.input_hw}")
        object.__setattr__(self, "stage_blocks", tuple(int(b) for b in self.stage_blocks))
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in ch))
        object.__setattr__(self, "input_hw", (int(h), int(w)))

    def stage_hw(self) -> list[tuple[int, int]]:
        h, w = self.input_hw
        out = [(h, w)]
        for _ in range(N_STAGES - 1):
            h, w = h // 2, w // 2
            out.append((h, w))
        return out


@dataclass(frozen=True)
class RepPair:
    """One counted block: two rep units (or their fused convs) at stage width."""

    a: RepBlockParams | ConvParams
    b: RepBlockParams | ConvParams


@dataclass
class BackboneParams:
    """Stem, per-stage transitions (stages 2-4), and per-stage block pairs."""

    stem: RepBlockParams | ConvParams
    transitions: list
    stages: list = field(default_factory=list)

    @property
    def mode(self) -> str:
        units = [u for _, u in self.named_units()]
        if all(isinstance(u, RepBlockParams) for u in units):
            return "train"
        if all(isinstance(u, ConvParams) for u in units):
            return "fused"
        raise ValidationError("backbone mixes train-time and fused units")

    def map_units(self, fn) -> "BackboneParams":
        """Replaces every unit with ``fn(name, unit)``, called in the order stem,
        transitions ``t{i}`` (stages 2-4), stage pairs ``s{i}.b{j}.{a,b}``: the one
        place units are named and ordered."""
        return BackboneParams(
            stem=fn("stem", self.stem),
            transitions=[fn(f"t{i + 2}", t) for i, t in enumerate(self.transitions)],
            stages=[
                [RepPair(fn(f"s{i + 1}.b{b}.a", p.a), fn(f"s{i + 1}.b{b}.b", p.b)) for b, p in enumerate(blocks)]
                for i, blocks in enumerate(self.stages)
            ],
        )

    def named_units(self) -> list:
        named = []
        self.map_units(lambda name, u: named.append((name, u)))
        return named


def make_backbone(cfg: BackboneConfig, unit) -> BackboneParams:
    """Builds every unit, in ``map_units`` order, as ``unit(name, c_in, c_out, stride)``:
    the stem maps the input width to stage 1, each transition opens its stage at
    stride 2, and the stage pairs keep the stage width."""
    ch = cfg.stage_channels
    shapes = BackboneParams(
        stem=(cfg.in_channels, ch[0], 1),
        transitions=[(ch[i - 1], ch[i], 2) for i in range(1, N_STAGES)],
        stages=[[RepPair((c, c, 1), (c, c, 1))] * n for c, n in zip(ch, cfg.stage_blocks)],
    )
    return shapes.map_units(lambda name, io: unit(name, *io))


def build_backbone(cfg: BackboneConfig, rng: np.random.Generator | None = None) -> BackboneParams:
    """Train-mode parameters; random when an rng is given, passthrough otherwise."""
    def unit(_name, c_in, c_out, stride):
        if rng is None:
            return passthrough_rep_block(c_in, c_out, stride)
        return random_rep_block(rng, c_in, c_out, stride)

    return make_backbone(cfg, unit)


def fuse_backbone(params: BackboneParams) -> BackboneParams:
    """Fuse every rep unit to its single-conv equivalent."""
    return params.map_units(lambda _name, u: fuse_rep_block(u) if isinstance(u, RepBlockParams) else u)


def backbone_forward(x: np.ndarray, params: BackboneParams) -> list[np.ndarray]:
    """Run all four stages; returns the per-stage outputs (the last two are
    the neck taps)."""
    x = unit_forward(x, params.stem)
    outs = []
    for i in range(N_STAGES):
        if i > 0:
            x = unit_forward(x, params.transitions[i - 1])
        for pair in params.stages[i]:
            x = unit_forward(unit_forward(x, pair.a), pair.b)
        outs.append(x)
    return outs


@dataclass(frozen=True)
class NeckParams:
    """1x1 projections for the two levels plus the 3x3 fusion conv."""

    proj8: ConvParams
    proj16: ConvParams
    fuse: ConvParams


def neck_convs(c8: int, c16: int, out_channels: int) -> dict[str, tuple[int, int, int]]:
    """(c_in, c_out, k) of each ``NeckParams`` conv, in field order."""
    half = out_channels // 2 or out_channels
    return {"proj8": (c8, half, 1), "proj16": (c16, half, 1), "fuse": (2 * half, out_channels, 3)}


def build_neck(c8: int, c16: int, out_channels: int, rng: np.random.Generator | None = None) -> NeckParams:
    def conv(c_in, c_out, k):
        if rng is None:
            kern = np.zeros((c_out, c_in, k, k), dtype=np.float32)
            kern[np.arange(c_out), np.arange(c_out) % c_in, k // 2, k // 2] = 1.0
        else:
            kern = rng.normal(0.0, 1.0, (c_out, c_in, k, k)) / np.sqrt(k * k * c_in)
        bias = np.zeros(c_out) if rng is None else rng.normal(0.0, 0.05, c_out)
        return ConvParams(kern, bias)

    return NeckParams(**{name: conv(*spec) for name, spec in neck_convs(c8, c16, out_channels).items()})


def neck_fuse(f8: np.ndarray, f16: np.ndarray, neck: NeckParams) -> np.ndarray:
    """Upsample the 16x map, project both levels, concat, fuse. Output at 8x."""
    a = conv2d(f8, neck.proj8)
    up = upsample_nearest2(f16)
    if up.shape[1:] != a.shape[1:]:
        raise ValidationError(f"16x map {f16.shape[1:]} must be half the 8x map {f8.shape[1:]} spatially")
    b = conv2d(up, neck.proj16)
    return relu(conv2d(np.concatenate([a, b]), neck.fuse))


def block_macs(channels, h, w):
    """Multiply-accumulates of one two-conv block at the given resolution.

    Pure arithmetic: also usable with symbolic operands to show the cost is
    invariant under channel doubling with spatial halving.
    """
    return 2 * 9 * channels * channels * h * w


@dataclass(frozen=True)
class MacReport:
    """Analytic MAC counts and the resolutions they were evaluated at."""

    input_hw: tuple[int, int]
    stage_hw: tuple[tuple[int, int], ...]
    per_block: tuple[int, int, int, int]
    stage_totals: tuple[int, int, int, int]
    transition_macs: tuple[int, int, int, int]  # stem first
    total: int


def count_macs(cfg: BackboneConfig) -> MacReport:
    """Exact integer MACs of all convs (stem, transitions, blocks)."""
    hw = cfg.stage_hw()
    per_block = tuple(block_macs(c, *stage) for c, stage in zip(cfg.stage_channels, hw))
    stage_totals = tuple(n * m for n, m in zip(cfg.stage_blocks, per_block))
    # the stem outputs at stage 1's resolution, and transition i at stage i's
    units = make_backbone(cfg, lambda _name, c_in, c_out, _stride: 9 * c_in * c_out)
    transitions = tuple(m * h * w for m, (h, w) in zip([units.stem, *units.transitions], hw))
    return MacReport(
        input_hw=cfg.input_hw,
        stage_hw=tuple(hw),
        per_block=per_block,
        stage_totals=stage_totals,
        transition_macs=transitions,
        total=sum(stage_totals) + sum(transitions),
    )


def count_params(cfg: BackboneConfig) -> int:
    """Fused (inference-mode) parameter count: a 3x3 conv with bias per unit ``make_backbone`` builds."""
    units = make_backbone(cfg, lambda _name, c_in, c_out, _stride: 9 * c_in * c_out + c_out)
    return sum(n for _, n in units.named_units())
