"""Named configuration bundles wiring grid, network widths, and post-processing.

``waymo`` and ``nuscenes`` carry the published deployment constants (ranges,
pillar sizes, NMS policy, rectification exponents, loss weights). ``desk`` is
a small grid for fast end-to-end runs and tests. Profiles can also be read
from a JSON file with exactly the keys below; unknown, missing and repeated keys
are rejected, but for the ``canvas_reduction`` older files carry, accepted as 2.

The MAC/params analyzer additionally has an accounting profile: the compute
table is reproduced at a stage-1 resolution of 720x720 with a 64-wide stem
input, the resolution assumption under which the reference per-2-block delta
and totals hold. It is independent of the runtime canvas reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .backbone import DEFAULT_CHANNELS, BackboneConfig
from .checkpoint import ArchConfig
from .errors import ValidationError, check_record, read_json
from .head import head_map_hw
from .losses import LossWeights
from .pillars import GridConfig
from .pointcloud import FIELD_BOUND, Range3D


@dataclass(frozen=True)
class Profile:
    name: str
    grid: GridConfig
    n_classes: int
    encoder_dim: int
    stage_blocks: tuple[int, int, int, int]
    stage_channels: tuple[int, int, int, int]
    neck_channels: int
    score_thresh: float
    max_detections: int
    nms_iou: tuple[float, ...] | float
    nms_class_agnostic: bool
    rectify_alpha: tuple[float, ...] | float
    loss_weights: LossWeights

    # the scattered canvas is always max-pooled 2x to the backbone's stage-1 resolution
    canvas_reduction = 2

    def __post_init__(self):
        for key, value in vars(self.grid.range).items():  # a kept point's coordinates lie within the range
            if abs(value) > FIELD_BOUND:
                raise ValidationError(f"range bound {key} {value!r} lies outside +-{FIELD_BOUND:g}")
        self.arch()  # the network shape is checked when the profile is built
        # the canvas pool halves the grid exactly, and the neck upsamples the 16x map 2x onto the 8x map
        grid, head = (self.grid.ny, self.grid.nx), head_map_hw(self.grid, self.out_stride)
        if any(n % self.canvas_reduction for n in grid) or any(n % 2 for n in head):
            raise ValidationError(
                f"profile {self.name!r}: the network cannot run grid {grid[0]}x{grid[1]} (head map"
                f" {head[0]}x{head[1]}): grid dims must be multiples of canvas_reduction"
                f" {self.canvas_reduction}, head map dims even"
            )
        if self.max_detections < 1:
            raise ValidationError(f"max_detections must be >= 1, got {self.max_detections}")
        if not 0.0 <= self.score_thresh < 1.0:  # every heatmap value lies below 1
            raise ValidationError(f"score_thresh must lie in [0, 1), got {self.score_thresh}")
        for v, name in ((self.nms_iou, "nms_iou"), (self.rectify_alpha, "rectify_alpha")):
            scalar = isinstance(v, (int, float))
            if not scalar and len(v) != self.n_classes:
                raise ValidationError(f"per-class {name} needs {self.n_classes} entries")
            if not all(0.0 <= x <= 1.0 for x in ((v,) if scalar else v)):
                raise ValidationError(f"{name} values must lie in [0, 1], got {v}")

    @property
    def out_stride(self) -> int:
        # the head reads the neck at stage 3's resolution: two halvings past the canvas reduction
        return 4 * self.canvas_reduction

    def arch(self) -> ArchConfig:
        return ArchConfig(
            encoder_dim=self.encoder_dim,
            stage_blocks=self.stage_blocks,
            stage_channels=self.stage_channels,
            neck_channels=self.neck_channels,
            n_classes=self.n_classes,
        )


WAYMO = Profile(
    name="waymo",
    grid=GridConfig(Range3D(-75.2, 75.2, -75.2, 75.2, -2.0, 4.0), 0.2, 0.2),
    n_classes=3,
    encoder_dim=64,
    stage_blocks=(6, 6, 3, 1),
    stage_channels=DEFAULT_CHANNELS,
    neck_channels=128,
    score_thresh=0.1,
    max_detections=200,
    nms_iou=(0.8, 0.55, 0.55),
    nms_class_agnostic=False,
    rectify_alpha=(0.68, 0.71, 0.65),
    loss_weights=LossWeights(1.0, 1.0, 0.25),
)

NUSCENES = Profile(
    name="nuscenes",
    grid=GridConfig(Range3D(-54.0, 54.0, -54.0, 54.0, -5.0, 3.0), 0.15, 0.15),
    n_classes=10,
    encoder_dim=64,
    stage_blocks=(6, 6, 3, 1),
    stage_channels=DEFAULT_CHANNELS,
    neck_channels=128,
    score_thresh=0.2,
    max_detections=200,
    nms_iou=0.2,
    nms_class_agnostic=True,
    rectify_alpha=0.5,
    loss_weights=LossWeights(1.0, 1.0, 0.25),
)

DESK = Profile(
    name="desk",
    grid=GridConfig(Range3D(-6.4, 6.4, -6.4, 6.4, -2.0, 2.0), 0.2, 0.2),
    n_classes=3,
    encoder_dim=8,
    stage_blocks=(1, 1, 1, 1),
    stage_channels=(8, 16, 32, 64),
    neck_channels=16,
    score_thresh=0.3,
    max_detections=50,
    nms_iou=(0.5, 0.5, 0.5),
    nms_class_agnostic=False,
    rectify_alpha=0.5,
    loss_weights=LossWeights(1.0, 1.0, 0.25),
)

BUILTIN = {p.name: p for p in (WAYMO, NUSCENES, DESK)}

# Accounting assumptions under which the reference compute table holds.
FLOPS_ACCOUNTING_HW = (720, 720)
FLOPS_ACCOUNTING_IN_CHANNELS = 64


def flops_config(stage_blocks, profile: Profile | None = None) -> BackboneConfig:
    """Backbone config for MAC accounting at the documented table resolution."""
    channels = profile.stage_channels if profile else DEFAULT_CHANNELS
    return BackboneConfig(
        stage_blocks=tuple(int(b) for b in stage_blocks),
        stage_channels=channels,
        in_channels=FLOPS_ACCOUNTING_IN_CHANNELS,
        input_hw=FLOPS_ACCOUNTING_HW,
    )


_PROFILE_KEYS = {
    "name": str,
    "range": dict,
    "pillar_size": list[float],
    "n_classes": int,
    "encoder_dim": int,
    "stage_blocks": list[int],
    "stage_channels": list[int],
    "neck_channels": int,
    "score_thresh": float,
    "max_detections": int,
    "nms_iou": (float, list[float]),
    "nms_class_agnostic": bool,
    "rectify_alpha": (float, list[float]),
    "loss_weights": list[float],
}


def profile_from_dict(d: dict) -> Profile:
    # older profile files carry the canvas reduction, which may only be the one the network runs
    d = check_record("profile", d, _PROFILE_KEYS, fixed={"canvas_reduction": Profile.canvas_reduction})
    for key, n in (("pillar_size", 2), ("loss_weights", 3)):
        if len(d[key]) != n:
            raise ValidationError(f"profile key {key!r} must hold {n} numbers, got {d[key]!r}")
    nms_iou, alpha = d["nms_iou"], d["rectify_alpha"]
    return Profile(
        name=d["name"],
        grid=GridConfig(Range3D.from_dict(d["range"]), float(d["pillar_size"][0]), float(d["pillar_size"][1])),
        n_classes=d["n_classes"],
        encoder_dim=d["encoder_dim"],
        stage_blocks=tuple(d["stage_blocks"]),
        stage_channels=tuple(d["stage_channels"]),
        neck_channels=d["neck_channels"],
        score_thresh=float(d["score_thresh"]),
        max_detections=d["max_detections"],
        nms_iou=float(nms_iou) if isinstance(nms_iou, (int, float)) else tuple(float(v) for v in nms_iou),
        nms_class_agnostic=d["nms_class_agnostic"],
        rectify_alpha=float(alpha) if isinstance(alpha, (int, float)) else tuple(float(v) for v in alpha),
        loss_weights=LossWeights(*(float(v) for v in d["loss_weights"])),
    )


def load_profile(name_or_path: str) -> Profile:
    """Resolve a built-in profile name or read a JSON profile file."""
    if name_or_path in BUILTIN:
        return BUILTIN[name_or_path]
    path = Path(name_or_path)
    if not path.exists():
        raise ValidationError(
            f"unknown profile {name_or_path!r}; built-ins: {sorted(BUILTIN)} or a JSON file path"
        )
    d = read_json(path, "profile")
    try:
        return profile_from_dict(d)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from e
