"""End-to-end orchestration: pillarize -> encode -> scatter -> backbone ->
neck -> head -> decode -> rectify -> NMS, plus the fused/train equivalence
probe and the target-to-head-output fixture bridge.

An injected head output replaces everything before decode, so the cloud is
neither pillarized nor encoded; ``detect`` still reads and checks the cloud
and the checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .backbone import backbone_forward, neck_fuse
from .checkpoint import PipelineParams
from .encoder import encode_pillar
from .errors import ValidationError
from .head import (
    HEATMAP_CLAMP,
    Detection,
    HeadOutput,
    decode,
    head_forward,
    head_map_hw,
    nms,
    rectify_detections,
    split_channels,
)
from .losses import Targets
from .nn import maxpool2
from .pillars import Pillar, assign_pillars, augment_points, scatter
from .pointcloud import PointCloud, crop_to_range
from .profiles import Profile


@dataclass
class StageTimes:
    encode: float = 0.0
    backbone: float = 0.0
    head: float = 0.0
    post: float = 0.0

    def as_dict(self) -> dict:
        return {"encode": self.encode, "backbone": self.backbone, "head": self.head, "post": self.post}


def encode_pillars(cloud: PointCloud, params: PipelineParams, profile: Profile) -> list[tuple[Pillar, np.ndarray]]:
    """crop -> assign -> augment -> encode: each pillar of the cropped cloud with its feature vector."""
    cropped = crop_to_range(cloud, profile.grid.range)
    return [
        (p, encode_pillar(augment_points(cropped, p, profile.grid), params.encoder, keep_intermediates=False).f)
        for p in assign_pillars(cropped, profile.grid)
    ]


def network_forward(canvas_data: np.ndarray, params: PipelineParams, profile: Profile) -> HeadOutput:
    """Dense path from the scattered canvas to head predictions."""
    x = canvas_data
    reduction = profile.canvas_reduction
    while reduction > 1:
        x = maxpool2(x)
        reduction //= 2
    return _dense_forward(x, params)


def _dense_forward(x: np.ndarray, params: PipelineParams) -> HeadOutput:
    """backbone -> neck -> head on a canvas already pooled to stage-1 resolution."""
    stages = backbone_forward(x, params.backbone)
    fused = neck_fuse(stages[2], stages[3], params.neck)
    return head_forward(fused, params.head)


def run_detect(
    cloud: PointCloud,
    params: PipelineParams,
    profile: Profile,
    inject_head: HeadOutput | None = None,
    times: StageTimes | None = None,
) -> list[Detection]:
    """Full detection pass; an injected head output replaces the network's,
    and then the cloud is not pillarized or encoded."""
    t = times or StageTimes()

    if inject_head is None:
        t0 = time.perf_counter()
        features = encode_pillars(cloud, params, profile)
        canvas = scatter(features, profile.grid, dim=profile.encoder_dim)
        t.encode = time.perf_counter() - t0
        if not features:
            return []
        t0 = time.perf_counter()
        head_out = network_forward(canvas.data, params, profile)
        t.backbone = time.perf_counter() - t0
    else:
        want = (profile.n_classes, *head_map_hw(profile.grid, profile.out_stride))
        if inject_head.heatmap.shape != want:
            raise ValidationError(f"injected head heatmap must have shape {want}, got {inject_head.heatmap.shape}")
        head_out = inject_head

    t0 = time.perf_counter()
    dets = decode(
        head_out,
        profile.grid,
        profile.out_stride,
        k=profile.max_detections,
        score_thresh=profile.score_thresh,
    )
    t.head = time.perf_counter() - t0

    t0 = time.perf_counter()
    dets = rectify_detections(dets, profile.rectify_alpha)
    dets = nms(dets, profile.nms_iou, class_agnostic=profile.nms_class_agnostic)
    t.post = time.perf_counter() - t0
    return dets


def head_output_from_targets(targets: Targets) -> HeadOutput:
    """Assemble a synthetic head output that decodes back to the target boxes.

    The heatmap is clamped into the open interval the head contract requires;
    the raw IoU channel reads +1 (IoU 1) at the centre cells and -1 elsewhere.
    """
    heatmap = np.clip(targets.heatmap, HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    iou = np.where(targets.mask, 1.0, -1.0)[None]
    return HeadOutput(**split_channels(np.concatenate([heatmap, targets.reg, iou])))


# side of the square random canvases the fusion probe runs through the network
FUSION_PROBE_HW = 16


def fusion_discrepancy(train: PipelineParams, fused: PipelineParams, n_probes: int, seed: int) -> float:
    """Max relative disagreement between the train-mode and the fused network forwards.

    Probes random canvases through both parameter sets and compares every
    head channel; the scale is the largest absolute output value.
    """
    if train.mode != "train":
        raise ValidationError("fusion probe needs a train-mode checkpoint")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        x = rng.normal(0.0, 1.0, (train.encoder.dim, FUSION_PROBE_HW, FUSION_PROBE_HW)).astype(np.float32)
        a, b = (_dense_forward(x, p).channels() for p in (train, fused))
        scale = max(float(np.max(np.abs(a))), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst
