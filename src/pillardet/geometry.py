"""Oriented-box geometry on the BEV plane.

Boxes are 7-DoF (center, size, heading). The BEV footprint is the rectangle
of extent l (along heading) by w (across), rotated by yaw about the center.
Overlap is computed exactly via convex polygon clipping; a variant also
propagates jacobians of the intersection area with respect to the first
box's (cx, cy, l, w, yaw) so losses can use exact piecewise gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    y = (yaw + math.pi) % TWO_PI - math.pi
    # fmod can land exactly on pi for inputs like -pi - eps
    return -math.pi if y >= math.pi else y


@dataclass(frozen=True, slots=True)
class Box3D:
    """Oriented 3D box: center (m), size (m), heading (rad), class id."""

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float
    class_id: int = 0

    def __post_init__(self):
        vals = (self.cx, self.cy, self.cz, self.l, self.w, self.h, self.yaw)
        if not all(map(math.isfinite, vals)):
            raise ValidationError(f"box has non-finite fields: {vals}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValidationError(f"box sizes must be positive, got l={self.l} w={self.w} h={self.h}")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))

    def bev_area(self) -> float:
        return self.l * self.w


# Corner sign pattern, counter-clockwise in the box frame.
_CORNER_SIGNS = ((1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0))


def _corners(box: Box3D) -> list[tuple[float, float]]:
    """The four BEV footprint corners as (x, y) float pairs, in ``_CORNER_SIGNS`` order.

    Corner (sx, sy) is center + R(yaw) (sx l/2, sy w/2); a sign flips a product
    exactly, so each corner is the same float as with the signs multiplied in.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.l / 2.0, box.w / 2.0
    cl, sl, cw, sw = c * hl, s * hl, c * hw, s * hw
    x, y = box.cx, box.cy
    return [
        (x + cl - sw, y + sl + cw),
        (x - cl - sw, y - sl + cw),
        (x - cl + sw, y - sl - cw),
        (x + cl + sw, y + sl - cw),
    ]


def bev_corners(box: Box3D) -> np.ndarray:
    """Return the four BEV footprint corners, CCW, shape (4, 2)."""
    return np.array(_corners(box))


def points_in_box(xyz: np.ndarray, box: Box3D) -> np.ndarray:
    """Boolean mask of points inside the box (closed faces)."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = xyz[:, 0] - box.cx
    dy = xyz[:, 1] - box.cy
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (
        (np.abs(local_x) <= box.l / 2.0)
        & (np.abs(local_y) <= box.w / 2.0)
        & (np.abs(xyz[:, 2] - box.cz) <= box.h / 2.0)
    )


def _polygon_area(pts) -> float:
    """Shoelace area of (x, y) float pairs, positive for CCW order.

    The terms are summed in the order ``np.sum`` uses (sequential below 8 terms,
    pairwise at 8), so the area is bitwise that of the array formula.
    """
    if len(pts) < 3:
        return 0.0
    terms = [p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1])]
    if len(terms) < 8:
        total = 0.0
        for t in terms:
            total += t
    elif len(terms) == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = terms
        total = 0.0 + (((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)))
    else:  # rounding can leave more vertices than two convex quads make
        total = float(np.sum(terms))
    return 0.5 * total


def _clip_tracked(poly, clip):
    """Clip a list of ((x, y), jacobian-or-None) vertices by each edge of a CCW
    list of (x, y) clip vertices.

    Jacobians are 2x5 derivatives of the vertex position w.r.t. the subject
    box parameters (cx, cy, l, w, yaw), given for every vertex or for none;
    intersection vertices get the exact chain-rule jacobian of the crossing point.
    """
    n_clip = len(clip)
    for e in range(n_clip):
        ax, ay = clip[e]
        bx, by = clip[(e + 1) % n_clip]
        ex, ey = bx - ax, by - ay
        sides = [ex * (y - ay) - ey * (x - ax) for (x, y), _ in poly]
        out = []
        n = len(poly)
        for i in range(n):
            sp = sides[i]
            if sp >= 0.0:
                out.append(poly[i])
            sq = sides[(i + 1) % n]
            if (sp >= 0.0) != (sq >= 0.0):
                (p, jp), (q, jq) = poly[i], poly[(i + 1) % n]
                denom = sp - sq
                t = sp / denom
                dx, dy = q[0] - p[0], q[1] - p[1]
                jac = None
                if jp is not None:
                    side_jp = ex * jp[1] - ey * jp[0]
                    side_jq = ex * jq[1] - ey * jq[0]
                    dt = (-sq * side_jp + sp * side_jq) / (denom * denom)
                    jac = jp + t * (jq - jp) + np.outer((dx, dy), dt)
                out.append(((p[0] + t * dx, p[1] + t * dy), jac))
        if not out:
            return []
        poly = out
    return poly


def _check_boxes(a: Box3D, b: Box3D):
    for name, box in (("first", a), ("second", b)):
        area = box.bev_area()
        if area <= 0.0:
            raise ValidationError("degenerate zero-area box")
        if area == math.inf:
            raise ValidationError(f"{name} box BEV area l*w = {box.l:g}*{box.w:g} is not finite")


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact BEV IoU of two oriented boxes via convex polygon intersection."""
    _check_boxes(a, b)
    inter = _polygon_area([p for p, _ in _clip_tracked([(p, None) for p in _corners(a)], _corners(b))])
    union = a.bev_area() + b.bev_area() - inter
    if not math.isfinite(union):  # also catches a non-finite intersection
        raise ValidationError(f"IoU of {a} and {b} overflows: intersection {inter!r}, union {union!r}")
    return float(min(max(inter / union, 0.0), 1.0))


def _corners_with_jac(box: Box3D):
    """BEV corners plus 2x5 jacobians w.r.t. (cx, cy, l, w, yaw)."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = []
    for pos, (sx, sy) in zip(_corners(box), _CORNER_SIGNS):
        dx, dy = sx * box.l / 2.0, sy * box.w / 2.0
        jac = np.zeros((2, 5))
        jac[0, 0] = 1.0
        jac[1, 1] = 1.0
        jac[0, 2] = c * sx / 2.0
        jac[1, 2] = s * sx / 2.0
        jac[0, 3] = -s * sy / 2.0
        jac[1, 3] = c * sy / 2.0
        jac[0, 4] = -s * dx - c * dy
        jac[1, 4] = c * dx - s * dy
        out.append((pos, jac))
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as the ValidationError below
def iou_bev_with_grad(pred: Box3D, gt: Box3D) -> tuple[float, np.ndarray]:
    """BEV IoU and its gradient w.r.t. pred's (cx, cy, l, w, yaw).

    The gradient is exact wherever the clipped-polygon combinatorics are
    locally constant (almost everywhere); at configuration changes a one-sided
    value is returned.
    """
    _check_boxes(pred, gt)
    poly = _clip_tracked(_corners_with_jac(pred), _corners(gt))
    inter = 0.0
    d_inter = np.zeros(5)
    if len(poly) >= 3:
        n = len(poly)
        for i in range(n):
            p, jp = poly[i]
            q, jq = poly[(i + 1) % n]
            inter += p[0] * q[1] - q[0] * p[1]
            d_inter += jp[0] * q[1] + p[0] * jq[1] - jq[0] * p[1] - q[0] * jp[1]
        inter *= 0.5
        d_inter *= 0.5
    area_p = pred.bev_area()
    d_area_p = np.array([0.0, 0.0, pred.w, pred.l, 0.0])
    union = area_p + gt.bev_area() - inter
    iou = inter / union
    d_iou = (d_inter * union - inter * (d_area_p - d_inter)) / (union * union)
    if not (math.isfinite(union) and np.isfinite(d_iou).all()):
        raise ValidationError(
            f"IoU gradient of {pred} against {gt} overflows: intersection {inter!r}, union {union!r}, "
            f"gradient {d_iou.tolist()}"
        )
    # clamped as in rotated_iou_bev: rounding can put a box's IoU with itself above 1
    return float(min(max(iou, 0.0), 1.0)), d_iou


def diou_penalty_with_grad(pred: Box3D, gt: Box3D) -> tuple[float, np.ndarray]:
    """Center-distance penalty d^2/c^2 over the merged axis-aligned enclosure.

    c is the diagonal of the smallest axis-aligned BEV box covering both
    footprints; gradient is w.r.t. pred's (cx, cy, l, w, yaw).
    """
    d2 = (pred.cx - gt.cx) ** 2 + (pred.cy - gt.cy) ** 2
    dd2 = np.array([2.0 * (pred.cx - gt.cx), 2.0 * (pred.cy - gt.cy), 0.0, 0.0, 0.0])

    pred_cs = _corners_with_jac(pred)
    gt_cs = [(p, np.zeros((2, 5))) for p in _corners(gt)]
    corners = pred_cs + gt_cs
    xs = np.array([p[0] for p, _ in corners])
    ys = np.array([p[1] for p, _ in corners])
    i_xmax, i_xmin = int(np.argmax(xs)), int(np.argmin(xs))
    i_ymax, i_ymin = int(np.argmax(ys)), int(np.argmin(ys))
    ew = xs[i_xmax] - xs[i_xmin]
    eh = ys[i_ymax] - ys[i_ymin]
    c2 = ew * ew + eh * eh
    dc2 = 2.0 * ew * (corners[i_xmax][1][0] - corners[i_xmin][1][0]) + 2.0 * eh * (
        corners[i_ymax][1][1] - corners[i_ymin][1][1]
    )
    pen = d2 / c2
    dpen = (dd2 * c2 - d2 * dc2) / (c2 * c2)
    return float(pen), dpen
