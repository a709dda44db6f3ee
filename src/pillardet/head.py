"""Center-based detection head: one 1x1 prediction conv, peak decoding,
score rectification, rotated NMS.

The conv's output channels are the groups of ``HEAD_GROUPS`` in order; the
output checks, npz keys and checkpoint tensor groups all derive from it.

The head map lives at ``out_stride`` grid cells per head cell. Offsets are
measured from the cell's geometric center, so a zero offset decodes to the
cell center. Predicted localization quality (the IoU channel) lives in
[-1, 1] and is remapped to [0, 1] at decode; the final score blends the
classification and IoU scores as cls^(1-alpha) * iou^alpha.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from .errors import InvariantViolation, ValidationError, check_record
from .geometry import Box3D, normalize_yaws, rotated_iou_bev
from .nn import ConvParams, conv2d
from .pillars import GridConfig

HEATMAP_CLAMP = 1e-4

# Log-size band applied before exp at decode: boxes measure e^-5 (6.7 mm) to e^5
# (148 m) per side, which holds every size ``generate`` draws on the built-in
# profiles, and a box's BEV area (>= e^-10) never underflows.
LOG_SIZE_BAND = (-5.0, 5.0)

# Output channels of the head conv, in order: (HeadOutput field, checkpoint tensor
# group, width). The heatmap has one channel per class; the groups between it and
# the IoU channel are the box regression, stacked in this order in ``Targets.reg``.
HEAD_GROUPS = (
    ("heatmap", "hm", None),
    ("offset", "offset", 2),
    ("z", "z", 1),
    ("size", "size", 3),
    ("yaw", "yaw", 2),
    ("iou", "iou", 1),
)
BOX_CHANNELS = sum(width for _, _, width in HEAD_GROUPS[1:])
REG_CHANNELS = sum(width for _, _, width in HEAD_GROUPS[1:-1])


def split_channels(x: np.ndarray) -> dict[str, np.ndarray]:
    """Views of each group of a (n_classes + BOX_CHANNELS, ...) stack in head-conv channel order."""
    cuts = len(x) - BOX_CHANNELS + np.cumsum([0] + [width for _, _, width in HEAD_GROUPS[1:-1]])
    return {name: part for (name, _, _), part in zip(HEAD_GROUPS, np.split(x, cuts))}


@dataclass(frozen=True)
class HeadOutput:
    """Dense per-cell predictions: each group is (width, h, w), widths as in HEAD_GROUPS."""

    heatmap: np.ndarray  # per class, values in (0, 1)
    offset: np.ndarray  # from the cell center, in cells
    z: np.ndarray  # absolute center height
    size: np.ndarray  # log-scale (l, w, h)
    yaw: np.ndarray  # (sin, cos)
    iou: np.ndarray  # in [-1, 1]

    def __post_init__(self):
        hm_shape = np.shape(self.heatmap)
        if len(hm_shape) != 3:
            raise ValidationError(f"heatmap must be (classes, h, w), got {hm_shape}")
        for name, _, width in HEAD_GROUPS:
            arr = np.asarray(getattr(self, name))
            if arr.dtype.kind not in "biuf":  # a float cast would drop an imaginary part, or fail on text
                raise ValidationError(f"head {name} must hold real numbers, got dtype {arr.dtype}")
            arr = arr.astype(np.float64, copy=False)
            want = (width or hm_shape[0], *hm_shape[1:])
            if arr.shape != want:
                raise ValidationError(f"head {name} must have shape {want}, got {arr.shape}")
            bad = np.argwhere(~np.isfinite(arr))
            if len(bad):
                c, row, col = bad[0]
                raise ValidationError(f"head {name} channel {c} is non-finite at cell (row {row}, col {col})")
            object.__setattr__(self, name, arr)
        if np.any(self.heatmap <= 0.0) or np.any(self.heatmap >= 1.0):
            raise ValidationError("heatmap values must lie strictly in (0, 1)")

    def channels(self) -> np.ndarray:
        """Every group stacked in head-conv channel order; inverse of ``split_channels``."""
        return np.concatenate([getattr(self, name) for name, _, _ in HEAD_GROUPS])

    @property
    def reg(self) -> np.ndarray:
        """The (REG_CHANNELS, h, w) box regression channels, in ``Targets.reg`` order."""
        return np.concatenate([getattr(self, name) for name, _, _ in HEAD_GROUPS[1:-1]])


class Detection(NamedTuple):
    box: Box3D
    cls_score: float
    iou_score: float
    final_score: float

    @property
    def class_id(self) -> int:
        return self.box.class_id


def head_map_hw(grid: GridConfig, out_stride: int) -> tuple[int, int]:
    """Head map dims: the grid halved log2(out_stride) times, rounding up each time, which is
    one division by out_stride, rounded up."""
    if out_stride < 1 or out_stride & (out_stride - 1):
        raise ValidationError(f"out_stride must be a power of two, got {out_stride}")
    return -(-grid.ny // out_stride), -(-grid.nx // out_stride)


@dataclass(frozen=True)
class Candidates:
    """decode's peaks in rank order, as columns: descending score, ties by (row, col, class)."""

    boxes: np.ndarray  # (n, 7) Box3D fields cx, cy, cz, l, w, h, yaw; the yaw already normalized
    class_ids: np.ndarray  # (n,) ints
    cls_scores: np.ndarray  # (n,) heatmap peaks
    iou_scores: np.ndarray  # (n,) the IoU channel remapped to [0, 1]


# the candidate table's (cx, cy, l, w, yaw) columns, which NMS reads
_GEOM_COLUMNS = [0, 1, 3, 4, 6]


def decode_candidates(out: HeadOutput, grid: GridConfig, out_stride: int, k: int, score_thresh: float) -> Candidates:
    """Top-k heatmap peaks above threshold, with the world-frame boxes they decode to.

    Ties are broken deterministically by (row, col) order.
    """
    if k < 1:
        raise ValidationError(f"decode keeps k >= 1 peaks, got k={k}")
    hm = out.heatmap
    _, h, w = hm.shape
    # only the cells above threshold can be peaks; np.flatnonzero keeps the C order of np.nonzero
    flat = np.flatnonzero(hm > score_thresh)
    cls_idx, rows, cols = np.unravel_index(flat, hm.shape)
    scores = hm.ravel()[flat]
    # a peak is >= each of its in-map 8 neighbours; an off-map neighbour never rules a cell out
    up, down, left, right = rows > 0, rows < h - 1, cols > 0, cols < w - 1
    steps = np.array([-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1])
    inside = np.column_stack((up & left, up, up & right, left, right, down & left, down, down & right))
    peak = ((scores[:, None] >= hm.take(flat[:, None] + steps, mode="clip")) | ~inside).all(axis=1)
    cls_idx, rows, cols, scores = cls_idx[peak], rows[peak], cols[peak], scores[peak]
    order = np.lexsort((cls_idx, cols, rows, -scores))[:k]
    cls_idx, rows, cols, scores = cls_idx[order], rows[order], cols[order], scores[order]
    iou_scores = np.clip((out.iou[0, rows, cols] + 1.0) / 2.0, 0.0, 1.0)
    return Candidates(_cell_boxes(out, grid, out_stride, rows, cols, cls_idx), cls_idx, scores, iou_scores)


def decode(out: HeadOutput, grid: GridConfig, out_stride: int, k: int, score_thresh: float) -> list[Detection]:
    """``decode_candidates`` as detections; each carries final_score = cls_score until
    rectification is applied."""
    c = decode_candidates(out, grid, out_stride, k, score_thresh)
    scores = c.cls_scores.tolist()
    boxes = Box3D.from_rows(c.boxes, c.class_ids.tolist())
    return list(map(Detection._make, zip(boxes, scores, c.iou_scores.tolist(), scores)))


def decode_cells(out: HeadOutput, grid: GridConfig, out_stride: int, rows, cols, class_ids) -> list[Box3D]:
    """The world-frame boxes the regression channels of head cells (rows[i], cols[i])
    encode, each with class_ids[i]; log-sizes are clamped to ``LOG_SIZE_BAND``."""
    return Box3D.from_rows(_cell_boxes(out, grid, out_stride, rows, cols, class_ids), [int(k) for k in class_ids])


def _cell_boxes(out: HeadOutput, grid: GridConfig, out_stride: int, rows, cols, class_ids) -> np.ndarray:
    """``decode_cells``'s boxes as (n, 7) rows of Box3D fields. A row that is not finite
    fails with Box3D's error for the first such cell."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    cx = grid.range.x_min + (cols + 0.5 + out.offset[0, rows, cols]) * (out_stride * grid.pillar_x)
    cy = grid.range.y_min + (rows + 0.5 + out.offset[1, rows, cols]) * (out_stride * grid.pillar_y)
    sizes = np.exp(np.clip(out.size[:, rows, cols], *LOG_SIZE_BAND))
    sin, cos = out.yaw[:, rows, cols].tolist()
    # math.atan2, not np.arctan2: the two differ in the last bit on some inputs. normalize_yaws
    # is idempotent on atan2 outputs, so a Box3D built from a row keeps its yaw's bits
    yaw = normalize_yaws(np.array([math.atan2(s, c) for s, c in zip(sin, cos)], dtype=np.float64))
    boxes = np.column_stack((cx, cy, out.z[0, rows, cols], *sizes, yaw))
    finite = np.isfinite(boxes).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        # raises, with the yaw as atan2 returned it
        Box3D(*boxes[i, :6].tolist(), math.atan2(sin[i], cos[i]), int(class_ids[i]))
    return boxes


def _rectify(cls_scores, iou_scores, class_ids, alpha) -> list[float]:
    """The final scores cls^(1-alpha) * iou^alpha; ``alpha`` is a scalar or a per-class
    sequence. Python's float ``**``, not np.power: the two differ in the last bit on some inputs."""
    alphas = [float(alpha)] * len(cls_scores) if np.isscalar(alpha) else [float(alpha[k]) for k in class_ids]
    return [float(c ** (1.0 - a) * i**a) for c, i, a in zip(cls_scores, iou_scores, alphas)]


def rectify_detections(dets: list[Detection], alpha) -> list[Detection]:
    """Apply rectification; ``alpha`` is a scalar or a per-class sequence."""
    final = _rectify([d.cls_score for d in dets], [d.iou_score for d in dets], [d.class_id for d in dets], alpha)
    return [Detection(d.box, d.cls_score, d.iou_score, f) for d, f in zip(dets, final)]


def _apart(geom: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For each pair (p[i], q[i]) of rows of ``geom`` (cx, cy, l, w, yaw), whether the two
    BEV footprints lie apart along an edge normal of either box by more than 1e-9 of the
    sum of their circumscribed radii.

    Such a pair's IoU is exactly 0: a clipped vertex would have to lie within rounding
    of both footprints, so the clip leaves no polygon.
    """
    cx, cy, l, w, yaw = geom.T
    hl, hw = l / 2.0, w / 2.0
    c, s = np.cos(yaw), np.sin(yaw)
    dx, dy = cx[q] - cx[p], cy[q] - cy[p]
    # |cos| and |sin| of the heading difference: how far each box reaches along the other's axes
    cos_pq = np.abs(c[p] * c[q] + s[p] * s[q])
    sin_pq = np.abs(c[p] * s[q] - s[p] * c[q])
    slack = 1e-9 * (np.hypot(hl[p], hw[p]) + np.hypot(hl[q], hw[q]))
    apart = np.zeros(len(p), dtype=bool)
    for a, b in ((p, q), (q, p)):
        apart |= np.abs(dx * c[a] + dy * s[a]) > hl[a] + hl[b] * cos_pq + hw[b] * sin_pq + slack
        apart |= np.abs(dy * c[a] - dx * s[a]) > hw[a] + hl[b] * sin_pq + hw[b] * cos_pq + slack
    return apart


def nms(dets: list[Detection], iou_thresh, class_agnostic: bool = False) -> list[Detection]:
    """Greedy suppression by descending final score using rotated BEV IoU.

    ``iou_thresh`` is a scalar or per-class sequence in [0, 1] (ignored across
    classes unless class_agnostic). A candidate is suppressed by a kept box whose
    IoU with it exceeds the candidate's own class threshold, also when the kept
    box has another class. Ties are broken by input order, which makes the
    result deterministic. IoU is evaluated only for pairs whose footprints may
    meet: their circumscribed circles touch, and no edge normal of either box
    separates them (separating axes, with the circles' rounding slack). The clip
    of any other pair leaves no polygon, so its IoU is exactly 0 and exceeds no
    threshold.
    """
    geom = np.array([(d.box.cx, d.box.cy, d.box.l, d.box.w, d.box.yaw) for d in dets]).reshape(-1, 5)
    classes = np.array([d.class_id for d in dets], dtype=np.intp)
    keep = _greedy_nms(geom, classes, [d.final_score for d in dets], iou_thresh, class_agnostic, [d.box for d in dets])
    return [dets[i] for i in keep]


def _greedy_nms(geom, classes, scores, iou_thresh, class_agnostic, boxes) -> list[int]:
    """``nms`` on columns: the ascending indices of the kept rows of ``geom`` (cx, cy, l, w, yaw),
    whose Box3Ds are ``boxes``."""
    thresh = np.asarray(iou_thresh, dtype=np.float64)
    if not np.all((thresh >= 0.0) & (thresh <= 1.0)):
        raise ValidationError(f"NMS IoU threshold must lie in [0, 1], got {iou_thresh}")
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    geom, classes = geom[order], classes[order]
    # pairs (p, q) with q ranked above p, row-major: every pair of q comes before any of p,
    # so q's fate is settled when p meets it
    later, earlier = _overlap_pairs(geom, None if class_agnostic else classes)
    meet = ~_apart(geom, later, earlier)
    limits = [float(thresh)] * len(order) if thresh.ndim == 0 else thresh[classes].tolist()
    rank = order.tolist()
    kept = [True] * len(rank)
    for p, q in zip(later[meet].tolist(), earlier[meet].tolist()):
        if kept[p] and kept[q] and rotated_iou_bev(boxes[rank[q]], boxes[rank[p]]) > limits[p]:
            kept[p] = False
    return sorted(compress(rank, kept))


def _overlap_pairs(geom: np.ndarray, classes: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (p, q), q < p, of rows of ``geom`` (cx, cy, l, w, yaw) whose circumscribed
    circles touch, and whose classes match when ``classes`` is given; ordered by p, then q.

    A sort-and-sweep along x lists the pairs within reach in x, and the circle test on
    those is the float expression of the full n x n grid, so it keeps the same pairs.
    """
    n = len(geom)
    cx, cy, l, w, _ = geom.T
    radius = np.hypot(l, w) / 2.0
    by_x = np.argsort(cx, kind="stable")
    xs = cx[by_x]
    # a superset of the circle test's pairs: ample room for its 1e-9 slack and rounding,
    # and for squared distances that underflow to 0. A gap within the bound stays within
    # the rounded x + bound, as rounding is monotone and xs are floats
    bound = (radius[by_x] + radius.max(initial=0.0)) * (1.0 + 1e-6) + 1e-150
    counts = np.searchsorted(xs, xs + bound, side="right") - np.arange(1, n + 1)
    # each row i of the sweep meets the rows i + 1 .. i + counts[i] after it in x order
    first = np.repeat(np.arange(n), counts)
    second = np.arange(len(first)) + np.repeat(np.arange(1, n + 1) - (np.cumsum(counts) - counts), counts)
    a, b = by_x[first], by_x[second]
    later, earlier = np.maximum(a, b), np.minimum(a, b)
    # squared distances; the slack keeps touching circles in whatever the rounding
    reach = (radius[later] + radius[earlier]) * (1.0 + 1e-9)
    near = (cx[later] - cx[earlier]) ** 2 + (cy[later] - cy[earlier]) ** 2 <= reach * reach
    if classes is not None:
        near &= classes[later] == classes[earlier]
    later, earlier = later[near], earlier[near]
    row_major = np.argsort(later * n + earlier)
    return later[row_major], earlier[row_major]


def select_detections(cands: Candidates, alpha, iou_thresh, class_agnostic: bool) -> list[Detection]:
    """rectify -> NMS on the candidate table: ``nms(rectify_detections(decode(...)))`` with one
    Box3D per candidate, and a Detection only for a kept one.

    Building every box up front costs no extra work: a candidate NMS does not keep is the
    second box of the IoU call that suppressed it.
    """
    classes, cls_scores, iou_scores = cands.class_ids.tolist(), cands.cls_scores.tolist(), cands.iou_scores.tolist()
    boxes = Box3D.from_rows(cands.boxes, classes)
    final = _rectify(cls_scores, iou_scores, classes, alpha)
    keep = _greedy_nms(cands.boxes[:, _GEOM_COLUMNS], cands.class_ids, final, iou_thresh, class_agnostic, boxes)
    return [Detection._make((boxes[i], cls_scores[i], iou_scores[i], final[i])) for i in keep]


# keeps the classification map near zero on empty input
HEATMAP_BIAS = -4.595119850134589  # sigmoid(-4.5951..) ~= 0.01


def build_head(neck_channels: int, n_classes: int, rng: np.random.Generator | None = None) -> ConvParams:
    """The 1x1 prediction conv: n_classes + BOX_CHANNELS outputs over the neck features."""
    c_out = n_classes + BOX_CHANNELS
    if rng is None:
        kern = np.zeros((c_out, neck_channels, 1, 1))
    else:
        kern = rng.normal(0.0, 1.0, (c_out, neck_channels, 1, 1)) / np.sqrt(neck_channels)
    bias = np.zeros(c_out)
    bias[:n_classes] = HEATMAP_BIAS
    return ConvParams(kern, bias)


def _sigmoid(x):
    """Logistic function in float64 that never overflows: exp is only taken of -|x|."""
    x = x.astype(np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def head_forward(features: np.ndarray, params: ConvParams) -> HeadOutput:
    """Apply the prediction conv to a (C, h, w) feature map;
    a non-finite output is an internal fault."""
    # float32 views; HeadOutput copies each group to float64, so no output keeps the whole stack alive
    groups = split_channels(conv2d(features, params))
    groups["heatmap"] = np.clip(_sigmoid(groups["heatmap"]), HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    groups["iou"] = np.tanh(groups["iou"], dtype=np.float64)
    try:
        return HeadOutput(**groups)
    except ValidationError as e:
        raise InvariantViolation(f"head conv output: {e}") from e


def save_head_output(out: HeadOutput, path) -> None:
    np.savez(path, **{name: getattr(out, name) for name, _, _ in HEAD_GROUPS})


def load_head_output(path) -> HeadOutput:
    """The head output of an npz that holds exactly the ``HEAD_GROUPS`` arrays, as ``save_head_output`` writes."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValidationError(f"{path} holds one bare array, not an npz of named head arrays")
        with data:
            arrays = dict(data)
    except (OSError, ValueError, zipfile.BadZipFile) as e:
        raise ValidationError(f"cannot load head output from {path}: {e}") from e
    check_record(f"{path}: head output", arrays, {name: np.ndarray for name, _, _ in HEAD_GROUPS})
    return HeadOutput(**arrays)
