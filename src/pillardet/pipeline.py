"""End-to-end orchestration: crop -> group -> augment -> encode -> place in one
grouped pass that reads only the encoder and the grid (so ``encode`` builds no network),
then pool -> backbone -> neck -> head -> decode -> rectify -> NMS, plus the fused/train
equivalence probe and the target-to-head-output fixture bridge.

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
from .encoder import EncoderParams, encode_pillar
from .errors import ValidationError
from .head import (
    HEATMAP_CLAMP,
    Detection,
    HeadOutput,
    decode_candidates,
    head_forward,
    head_map_hw,
    select_detections,
    split_channels,
)
from .losses import Targets
from .nn import maxpool2
from .pillars import GridConfig, augment, pillar_segments
from .pointcloud import PointCloud, crop_to_range
from .profiles import Profile


@dataclass
class StageTimes:
    encode: float = 0.0
    backbone: float = 0.0
    head: float = 0.0
    post: float = 0.0


def encode_pillars(cloud: PointCloud, encoder: EncoderParams, grid: GridConfig) -> tuple[np.ndarray, ...]:
    """crop -> group -> augment -> encode in one grouped pass: ``(ix, iy, counts, feats)``, one row per
    pillar sorted by (iy, ix); the encoder runs once per stack of pillars with equal point counts."""
    cropped = crop_to_range(cloud, grid.range)
    order, bounds, ix, iy = pillar_segments(cropped, grid)
    counts = np.diff(bounds)
    aug = augment(cropped.data[order], np.repeat(ix, counts), np.repeat(iy, counts), grid)
    feats = np.empty((counts.size, encoder.dim))
    for k in np.unique(counts).tolist():
        same = np.flatnonzero(counts == k)
        feats[same] = encode_pillar(aug[bounds[same, None] + np.arange(k)], encoder, keep_intermediates=False).f
    return ix, iy, counts, feats


def place_pillars(ix: np.ndarray, iy: np.ndarray, feats: np.ndarray, grid: GridConfig) -> np.ndarray:
    """The float32 ``(D, ny, nx)`` canvas with each pillar's feature at its cell and zeros elsewhere."""
    canvas = np.zeros((feats.shape[1], grid.ny, grid.nx), dtype=np.float32)
    canvas[:, iy, ix] = feats.T
    return canvas


def network_forward(canvas_data: np.ndarray, params: PipelineParams, profile: Profile) -> HeadOutput:
    """Dense path from the placed canvas, max-pooled once (``Profile.canvas_reduction``), to head predictions."""
    return _dense_forward(maxpool2(canvas_data), params)


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
        ix, iy, _, feats = encode_pillars(cloud, params.encoder, profile.grid)
        canvas = place_pillars(ix, iy, feats, profile.grid)
        t.encode = time.perf_counter() - t0
        if not len(feats):
            return []
        t0 = time.perf_counter()
        head_out = network_forward(canvas, params, profile)
        t.backbone = time.perf_counter() - t0
    else:
        want = (profile.n_classes, *head_map_hw(profile.grid, profile.out_stride))
        if inject_head.heatmap.shape != want:
            raise ValidationError(f"injected head heatmap must have shape {want}, got {inject_head.heatmap.shape}")
        head_out = inject_head

    t0 = time.perf_counter()
    cands = decode_candidates(
        head_out,
        profile.grid,
        profile.out_stride,
        k=profile.max_detections,
        score_thresh=profile.score_thresh,
    )
    t.head = time.perf_counter() - t0

    t0 = time.perf_counter()
    dets = select_detections(cands, profile.rectify_alpha, profile.nms_iou, profile.nms_class_agnostic)
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
