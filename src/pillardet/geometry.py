"""Oriented-box geometry on the BEV plane.

Boxes are 7-DoF (center, size, heading). The BEV footprint is the rectangle
of extent l (along heading) by w (across), rotated by yaw about the center.
Overlap is computed exactly via convex polygon clipping; a variant also
propagates jacobians of the intersection area with respect to the first
box's (cx, cy, l, w, yaw) so losses can use exact piecewise gradients.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    y = (yaw + math.pi) % TWO_PI - math.pi
    # fmod can land exactly on pi for inputs like -pi - eps
    return -math.pi if y >= math.pi else y


def normalize_yaws(yaws: np.ndarray) -> np.ndarray:
    """``normalize_yaw`` of each element of a float64 array, bit for bit: numpy's float ``%``
    is Python's (fmod, then the divisor's sign)."""
    y = (yaws + math.pi) % TWO_PI - math.pi
    return np.where(y >= math.pi, -math.pi, y)


class _Box3DFields(NamedTuple):  # Box3D's fields; boxes are made through Box3D
    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float
    class_id: int = 0


class Box3D(_Box3DFields):
    """Oriented 3D box: center (m), size (m), heading (rad), class id.

    An immutable named tuple, checked and its yaw normalized however it is made:
    construction, ``_make``, ``_replace``, ``copy`` and ``pickle`` all run ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, cx, cy, cz, l, w, h, yaw, class_id=0):
        inf = math.inf  # chained comparisons: NaN fails each one, and they cost less than map(math.isfinite)
        if not (-inf < cx < inf and -inf < cy < inf and -inf < cz < inf and -inf < l < inf
                and -inf < w < inf and -inf < h < inf and -inf < yaw < inf):
            raise ValidationError(f"box has non-finite fields: {(cx, cy, cz, l, w, h, yaw)}")
        if l <= 0 or w <= 0 or h <= 0:
            raise ValidationError(f"box sizes must be positive, got l={l} w={w} h={h}")
        return tuple.__new__(cls, (cx, cy, cz, l, w, h, normalize_yaw(yaw), class_id))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_rows(cls, rows, class_ids) -> list[Box3D]:
        """``[Box3D(*row, k) for row, k in zip(rows.tolist(), class_ids)]`` for an (n, 7) float
        table, checked and its yaws normalized once, in numpy. The first row that fails raises
        through ``Box3D(*row, k)``, so its error is the one that list would raise."""
        rows = np.asarray(rows, dtype=np.float64).reshape(-1, 7)
        ok = np.isfinite(rows).all(axis=1) & (rows[:, 3:6] > 0.0).all(axis=1)
        if not ok.all():
            i = int(np.argmin(ok))
            cls(*rows[i].tolist(), class_ids[i])  # raises
        columns = rows.T.tolist()
        columns[6] = normalize_yaws(rows[:, 6]).tolist()
        return list(map(tuple.__new__, repeat(cls), zip(*columns, class_ids, strict=True)))


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
    n = len(pts)
    if n < 3:
        return 0.0
    if n < 8:
        total = 0.0
        for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
            total += px * qy - qx * py
        return 0.5 * total
    terms = [p[0] * q[1] - q[0] * p[1] for p, q in zip(pts, pts[1:] + pts[:1])]
    if n == 8:
        t0, t1, t2, t3, t4, t5, t6, t7 = terms
        total = 0.0 + (((t0 + t1) + (t2 + t3)) + ((t4 + t5) + (t6 + t7)))
    else:  # rounding can leave more vertices than two convex quads make
        total = float(np.sum(terms))
    return 0.5 * total


def _clip_tracked(poly, clip, jacs=None):
    """Clip a list of (x, y) vertices by each edge of a CCW list of (x, y) clip
    vertices; returns the clipped vertices and, when ``jacs`` is given, their jacobians.

    ``jacs`` holds one 2x5 derivative per vertex, of its position w.r.t. the
    subject box parameters (cx, cy, l, w, yaw); intersection vertices get the
    exact chain-rule jacobian of the crossing point.
    """
    tracked = jacs is not None
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        ex, ey = bx - ax, by - ay
        out = []
        out_jacs = [] if tracked else None
        n = len(poly)
        # vertex i with its side, carried on as the next vertex j = i + 1, wrapping to 0
        p = poly[0]
        sp = ex * (p[1] - ay) - ey * (p[0] - ax)
        for i in range(n):
            j = i + 1 if i + 1 < n else 0
            q = poly[j]
            sq = ex * (q[1] - ay) - ey * (q[0] - ax)
            if sp >= 0.0:
                out.append(p)
                if tracked:
                    out_jacs.append(jacs[i])
            if (sp >= 0.0) != (sq >= 0.0):
                denom = sp - sq
                t = sp / denom
                dx, dy = q[0] - p[0], q[1] - p[1]
                out.append((p[0] + t * dx, p[1] + t * dy))
                if tracked:
                    jp, jq = jacs[i], jacs[j]
                    side_jp = ex * jp[1] - ey * jp[0]
                    side_jq = ex * jq[1] - ey * jq[0]
                    dt = (-sq * side_jp + sp * side_jq) / (denom * denom)
                    out_jacs.append(jp + t * (jq - jp) + np.outer((dx, dy), dt))
            p, sp = q, sq
        if not out:
            return [], out_jacs
        poly, jacs = out, out_jacs
    return poly, jacs


def _check_boxes(a: Box3D, b: Box3D) -> tuple[float, float]:
    """The BEV areas of ``a`` and ``b``, each checked positive and finite."""
    areas = a.l * a.w, b.l * b.w
    if 0.0 < areas[0] < math.inf and 0.0 < areas[1] < math.inf:
        return areas
    for name, box, area in zip(("first", "second"), (a, b), areas):
        if area <= 0.0:
            raise ValidationError("degenerate zero-area box")
        if area == math.inf:
            raise ValidationError(f"{name} box BEV area l*w = {box.l:g}*{box.w:g} is not finite")
    return areas


def rotated_iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact BEV IoU of two oriented boxes via convex polygon intersection."""
    area_a, area_b = _check_boxes(a, b)
    inter = _polygon_area(_clip_tracked(_corners(a), _corners(b))[0])
    union = area_a + area_b - inter
    if not math.isfinite(union):  # also catches a non-finite intersection
        raise ValidationError(f"IoU of {a} and {b} overflows: intersection {inter!r}, union {union!r}")
    return float(min(max(inter / union, 0.0), 1.0))


def _corner_jacs(box: Box3D) -> list[np.ndarray]:
    """The 2x5 jacobians of the BEV corners w.r.t. (cx, cy, l, w, yaw), in ``_corners`` order."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    out = []
    for sx, sy in _CORNER_SIGNS:
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
        out.append(jac)
    return out


@np.errstate(over="ignore", invalid="ignore")  # overflow is reported as the ValidationError below
def iou_bev_with_grad(pred: Box3D, gt: Box3D) -> tuple[float, np.ndarray]:
    """BEV IoU and its gradient w.r.t. pred's (cx, cy, l, w, yaw).

    The gradient is exact wherever the clipped-polygon combinatorics are
    locally constant (almost everywhere); at configuration changes a one-sided
    value is returned.
    """
    area_p, area_gt = _check_boxes(pred, gt)
    poly, jacs = _clip_tracked(_corners(pred), _corners(gt), _corner_jacs(pred))
    inter = 0.0
    d_inter = np.zeros(5)
    if len(poly) >= 3:
        n = len(poly)
        for i in range(n):
            p, jp = poly[i], jacs[i]
            q, jq = poly[(i + 1) % n], jacs[(i + 1) % n]
            inter += p[0] * q[1] - q[0] * p[1]
            d_inter += jp[0] * q[1] + p[0] * jq[1] - jq[0] * p[1] - q[0] * jp[1]
        inter *= 0.5
        d_inter *= 0.5
    d_area_p = np.array([0.0, 0.0, pred.w, pred.l, 0.0])
    union = area_p + area_gt - inter
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

    corners = _corners(pred) + _corners(gt)
    jacs = _corner_jacs(pred) + [np.zeros((2, 5))] * 4
    xs = np.array([p[0] for p in corners])
    ys = np.array([p[1] for p in corners])
    i_xmax, i_xmin = int(np.argmax(xs)), int(np.argmin(xs))
    i_ymax, i_ymin = int(np.argmax(ys)), int(np.argmin(ys))
    ew = xs[i_xmax] - xs[i_xmin]
    eh = ys[i_ymax] - ys[i_ymin]
    c2 = ew * ew + eh * eh
    dc2 = 2.0 * ew * (jacs[i_xmax][0] - jacs[i_xmin][0]) + 2.0 * eh * (jacs[i_ymax][1] - jacs[i_ymin][1])
    pen = d2 / c2
    dpen = (dd2 * c2 - d2 * dc2) / (c2 * c2)
    return float(pen), dpen
