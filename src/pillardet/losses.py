"""Training objective: Gaussian heatmap targets, penalty-reduced focal loss,
L1 regression, the quality-branch L1 with target 2*(I - 0.5), the
distance-IoU box loss, and the weighted total. Every term returns its value
together with analytic gradients.

The quality target I at an object's centre cell is the BEV IoU
(``rotated_iou_bev``) of the box the head decodes there with that object's
ground-truth box, as in CIA-SSD and AFDetV2, and no gradient flows through it.
It is the bird's-eye IoU, not the 3D one, because that is the overlap NMS
ranks by and the Monte-Carlo oracle checks. The DIoU term reads the same IoU
through ``iou_bev_with_grad``, bit for bit: both share one clip and one area rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import Box3D, diou_penalty_with_grad, iou_bev_with_grad
from .head import HEATMAP_CLAMP, REG_CHANNELS, head_map_hw
from .pillars import GridConfig


@dataclass(frozen=True)
class LossWeights:
    cls: float = 1.0
    iou: float = 1.0
    reg: float = 0.25

    def __post_init__(self):
        weights = (self.cls, self.iou, self.reg)
        if not all(math.isfinite(v) and v >= 0.0 for v in weights):
            raise ValidationError(f"loss_weights must be finite and non-negative, got {weights}")


@dataclass(frozen=True)
class Targets:
    """Dense training targets on the head map.

    heatmap holds one exact 1.0 peak per object in its class channel (max
    composition on overlap); reg carries the 8 regression channels at center
    cells flagged by mask. The quality target depends on the decoded boxes,
    so it is computed next to them, not here.
    """

    heatmap: np.ndarray  # (classes, h, w)
    reg: np.ndarray  # (8, h, w)
    mask: np.ndarray  # (h, w) bool
    centers: tuple  # ((row, col, class_id), ...) per input box


# a box jittered within the Gaussian peak's radius keeps at least this IoU
MIN_OVERLAP = 0.7


def gaussian_radius(height: float, width: float) -> float:
    """Peak radius (cells) keeping >= MIN_OVERLAP IoU under unit jitter.

    The de-facto quadratic-root rule of center-based heads.
    """
    a1 = 1.0
    b1 = height + width
    c1 = width * height * (1.0 - MIN_OVERLAP) / (1.0 + MIN_OVERLAP)
    r1 = (b1 - math.sqrt(b1 * b1 - 4.0 * a1 * c1)) / (2.0 * a1)

    a2 = 4.0
    b2 = 2.0 * (height + width)
    c2 = (1.0 - MIN_OVERLAP) * width * height
    r2 = (b2 - math.sqrt(b2 * b2 - 4.0 * a2 * c2)) / (2.0 * a2)

    a3 = 4.0 * MIN_OVERLAP
    b3 = -2.0 * MIN_OVERLAP * (height + width)
    c3 = (MIN_OVERLAP - 1.0) * width * height
    r3 = (b3 + math.sqrt(b3 * b3 - 4.0 * a3 * c3)) / (2.0 * a3)
    return min(r1, r2, r3)


# the largest float64 below 1.0: every off-centre Gaussian value is capped to it
_BELOW_ONE = np.nextafter(1.0, 0.0)


def draw_gaussian(heatmap: np.ndarray, col: int, row: int, radius: int) -> None:
    """Stamp a peak-1 Gaussian at (row, col), merging by elementwise max.

    Only the part of the (2 radius + 1)^2 patch that lies on the map is built.
    Every cell but the centre stays below 1.0, also where a huge radius rounds
    the Gaussian to 1.0, so the stamp adds exactly one positive.
    """
    h, w = heatmap.shape
    sigma = (2.0 * radius + 1.0) / 6.0
    top, bottom = min(row, radius), min(h - 1 - row, radius)
    left, right = min(col, radius), min(w - 1 - col, radius)
    ys, xs = np.ogrid[-top : bottom + 1, -left : right + 1]
    patch = np.minimum(np.exp(-(xs * xs + ys * ys) / (2.0 * sigma * sigma)), _BELOW_ONE)
    patch[top, left] = 1.0
    view = heatmap[row - top : row + bottom + 1, col - left : col + right + 1]
    np.maximum(view, patch, out=view)


def render_gaussian_targets(
    boxes: list[Box3D],
    grid: GridConfig,
    out_stride: int,
    n_classes: int,
) -> Targets:
    """Targets on the head map: Gaussian heatmap peaks plus center-cell regression."""
    h, w = head_map_hw(grid, out_stride)
    cell_x = out_stride * grid.pillar_x
    cell_y = out_stride * grid.pillar_y
    heatmap = np.zeros((n_classes, h, w))
    reg = np.zeros((REG_CHANNELS, h, w))
    mask = np.zeros((h, w), dtype=bool)
    centers = []
    for i, b in enumerate(boxes):
        if not 0 <= b.class_id < n_classes:
            raise ValidationError(f"box {i}: class {b.class_id} outside [0, {n_classes})")
        u = (b.cx - grid.range.x_min) / cell_x
        v = (b.cy - grid.range.y_min) / cell_y
        col, row = int(math.floor(u)), int(math.floor(v))
        if not (0 <= col < w and 0 <= row < h):
            raise ValidationError(f"box {i}: center falls outside the head map")
        radius = gaussian_radius(b.w / cell_y, b.l / cell_x)
        if not math.isfinite(radius):
            raise ValidationError(f"box {i}: Gaussian radius is not finite for l={b.l:g} w={b.w:g}")
        radius = max(0, int(radius))
        draw_gaussian(heatmap[b.class_id], col, row, radius)
        reg[0, row, col] = u - col - 0.5
        reg[1, row, col] = v - row - 0.5
        reg[2, row, col] = b.cz
        reg[3:6, row, col] = np.log([b.l, b.w, b.h])
        reg[6, row, col] = math.sin(b.yaw)
        reg[7, row, col] = math.cos(b.yaw)
        mask[row, col] = True
        centers.append((row, col, b.class_id))
    return Targets(heatmap=heatmap, reg=reg, mask=mask, centers=tuple(centers))


# focal exponents: FOCAL_ALPHA on the prediction, FOCAL_BETA on the negative penalty
FOCAL_ALPHA = 2.0
FOCAL_BETA = 4.0


def focal_loss(pred: np.ndarray, target: np.ndarray):
    """Penalty-reduced focal value averaged over positive cells, with gradient.

    Cells with target exactly 1 are positives; the rest are penalty-reduced
    negatives. Predictions are clamped away from {0, 1} before the logs.
    """
    alpha, beta = FOCAL_ALPHA, FOCAL_BETA
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError(f"focal loss shape mismatch: {pred.shape} vs {target.shape}")
    p = np.clip(pred, HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    pos = target == 1.0
    n_pos = max(int(pos.sum()), 1)

    neg_w = (1.0 - target) ** beta
    loss = np.where(
        pos,
        -((1.0 - p) ** alpha) * np.log(p),
        -neg_w * (p**alpha) * np.log(1.0 - p),
    )
    grad = np.where(
        pos,
        alpha * (1.0 - p) ** (alpha - 1.0) * np.log(p) - (1.0 - p) ** alpha / p,
        neg_w * (p ** (alpha - 1.0)) * (p / (1.0 - p) - alpha * np.log(1.0 - p)),
    )
    # clamped cells have zero sensitivity to the raw prediction
    grad = np.where((pred > HEATMAP_CLAMP) & (pred < 1.0 - HEATMAP_CLAMP), grad, 0.0)
    return float(loss.sum() / n_pos), grad / n_pos


def reg_l1_loss(pred: np.ndarray, target: np.ndarray):
    """Mean absolute error over matched regression entries, with sign gradient."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError(f"regression shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValidationError("regression loss needs at least one matched cell")
    diff = pred - target
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


def iou_branch_loss(iou_pred: np.ndarray, gt_iou: np.ndarray):
    """L1 between the raw quality prediction and the remapped target 2*(I - 0.5)."""
    iou_pred = np.atleast_1d(np.asarray(iou_pred, dtype=np.float64))
    gt_iou = np.atleast_1d(np.asarray(gt_iou, dtype=np.float64))
    if iou_pred.shape != gt_iou.shape:
        raise ValidationError("quality prediction and target shapes differ")
    if np.any(iou_pred < -1.0) or np.any(iou_pred > 1.0):
        raise ValidationError("iou_pred must lie in [-1, 1]")
    if np.any(gt_iou < 0.0) or np.any(gt_iou > 1.0):
        raise ValidationError("gt_iou must lie in [0, 1]")
    diff = iou_pred - (2.0 * gt_iou - 1.0)
    return float(np.abs(diff).mean()), np.sign(diff) / diff.size


def diou_loss(pred: Box3D, gt: Box3D):
    """Distance-IoU loss 1 - IoU + d^2/c^2 on the BEV plane.

    Returns the value and its gradient w.r.t. pred's (cx, cy, l, w, yaw);
    the gradient is the exact piecewise-analytic one from the polygon clip.
    """
    iou, d_iou = iou_bev_with_grad(pred, gt)
    pen, d_pen = diou_penalty_with_grad(pred, gt)
    return float(1.0 - iou + pen), d_pen - d_iou


def total_loss(cls_loss: float, iou_loss: float, diou: float, reg_loss: float, weights: LossWeights) -> float:
    """Weighted sum: w_cls * cls + w_iou * iou + w_reg * (diou + reg)."""
    parts = (cls_loss, iou_loss, diou, reg_loss)
    if not all(math.isfinite(p) for p in parts):
        raise ValidationError(f"loss parts must be finite, got {parts}")
    return weights.cls * cls_loss + weights.iou * iou_loss + weights.reg * (diou + reg_loss)
