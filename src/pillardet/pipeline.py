"""End-to-end orchestration: crop -> group -> augment -> encode in one grouped pass that
reads only the encoder and the grid (so ``encode`` builds no network), pooled straight into
the stage-1 grid, then backbone -> neck -> head -> decode -> rectify -> NMS, plus the
fused/train equivalence probe and the target-to-head-output fixture bridge.

An injected head output replaces everything before decode, so the cloud is
neither pillarized nor encoded; ``detect`` still reads and checks the cloud
and the checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice

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


def pool_pillars(ix: np.ndarray, iy: np.ndarray, feats: np.ndarray, grid: GridConfig) -> np.ndarray:
    """The stage-1 grid: ``maxpool2`` of the float32 ``(D, ny, nx)`` canvas holding each pillar's feature at its
    cell, built without that canvas. Zeros, then each parity's pillars max-ed in, in ``maxpool2``'s order; equal
    bytes because every feature is >= +0.0 and no cell holds two pillars (``Profile`` checks the grid is even)."""
    pooled = np.zeros((feats.shape[1], grid.ny // 2, grid.nx // 2), dtype=np.float32)
    feats = feats.astype(np.float32)
    for py, px in ((0, 0), (0, 1), (1, 0), (1, 1)):
        m = ((iy & 1) == py) & ((ix & 1) == px)
        cells = (slice(None), iy[m] >> 1, ix[m] >> 1)
        pooled[cells] = np.maximum(pooled[cells], feats[m].T)
    return pooled


def network_forward(canvas_data: np.ndarray, params: PipelineParams, profile: Profile) -> HeadOutput:
    """Dense path from the placed canvas, max-pooled once (``Profile.canvas_reduction``), to head predictions."""
    return _dense_forward(maxpool2(canvas_data), params)


def _dense_forward(x: np.ndarray, params: PipelineParams) -> HeadOutput:
    """backbone -> neck -> head on the stage-1 grid (the canvas pooled to stage-1 resolution)."""
    stages = backbone_forward(x, params.backbone)
    del x  # the generator now holds the stage-1 grid, and drops it once the stem has read it
    f8, f16 = islice(stages, 2, None)  # stages 1-2 are freed as they are passed over
    return head_forward(neck_fuse(f8, f16, params.neck), params.head)


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
        stage1 = [pool_pillars(ix, iy, feats, profile.grid)]  # popped into the forward, which then holds it alone
        t.encode = time.perf_counter() - t0
        if not len(feats):
            return []
        del ix, iy, feats  # the dense forward holds only live maps; these are read no more
        t0 = time.perf_counter()
        head_out = _dense_forward(stage1.pop(), params)
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
