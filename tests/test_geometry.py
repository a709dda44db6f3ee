"""Bit-level pins and range checks of the BEV IoU functions.

The digests hold every bit of ``rotated_iou_bev`` over 20,000 seeded pairs and
of ``iou_bev_with_grad`` (value and gradient) over 2,000: a change to the clip,
the corner arithmetic or the order in which the shoelace terms are summed moves
them. A change that moves them on purpose states it, with the reason.
"""

import hashlib
import math
import re

import numpy as np
import pytest

from pillardet.errors import ValidationError
from pillardet.geometry import Box3D, iou_bev_with_grad, rotated_iou_bev
from pillardet.losses import diou_loss

IOU_DIGEST = "2aeea82bf69ef13a0ed1ead580bd2bf2884a3174285353204f0a221e255027d4"
GRAD_DIGEST = "42bae28e29d1f7552aff9842b26dc9a0aef59a28f540965e23ce1fc396dae312"


def _box(rng, spread=3.0):
    return Box3D(
        rng.uniform(-spread, spread), rng.uniform(-spread, spread), 0.0,
        rng.uniform(0.5, 5.0), rng.uniform(0.5, 3.0), 1.0, rng.uniform(-math.pi, math.pi),
    )


def _jittered(rng, a):
    """A box near ``a`` in centre, size and heading, so the two overlap."""
    return Box3D(
        a.cx + rng.normal(0.0, 0.3), a.cy + rng.normal(0.0, 0.3), 0.0,
        a.l * rng.uniform(0.7, 1.3), a.w * rng.uniform(0.7, 1.3), 1.0, a.yaw + rng.normal(0.0, 0.5),
    )


def _nested(rng, a):
    """A box inside ``a``'s inscribed circle, at any heading."""
    r = min(a.l, a.w) / 2.0
    half_diag = r * rng.uniform(0.2, 0.6)
    shift = r - half_diag
    phi, t = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
    ratio = rng.uniform(0.2, 1.0)
    l = 2.0 * half_diag / math.hypot(1.0, ratio)
    return Box3D(a.cx + shift * 0.9 * math.cos(phi), a.cy + shift * 0.9 * math.sin(phi), 0.0, l, l * ratio, 1.0, t)


def _corner_to_corner(rng):
    """Two boxes whose diagonals lie on one line and whose corners meet on it."""
    phi = rng.uniform(-math.pi, math.pi)
    cx, cy = rng.uniform(-50.0, 50.0, 2)
    la, wa, lb, wb = rng.uniform(0.5, 5.0, 4)
    a = Box3D(cx, cy, 0.0, la, wa, 1.0, phi - math.atan2(wa, la))
    d = (math.hypot(la, wa) + math.hypot(lb, wb)) / 2.0
    b = Box3D(cx + d * math.cos(phi), cy + d * math.sin(phi), 0.0, lb, wb, 1.0, phi + math.pi - math.atan2(wb, lb))
    return a, b


def iou_pairs(seed=20):
    rng = np.random.default_rng(seed)
    pairs = [(_box(rng), _box(rng)) for _ in range(8000)]
    pairs += [(a, _jittered(rng, a)) for a in (_box(rng) for _ in range(6000))]
    pairs += [(a, _nested(rng, a)) for a in (_box(rng) for _ in range(2000))]
    pairs += [(a, a) for a in (_box(rng) for _ in range(2000))]
    pairs += [_corner_to_corner(rng) for _ in range(2000)]
    return pairs


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def test_rotated_iou_bits_are_pinned():
    pairs = iou_pairs()
    assert len(pairs) == 20_000
    assert digest([rotated_iou_bev(a, b) for a, b in pairs]) == IOU_DIGEST


def test_iou_with_grad_bits_are_pinned():
    pairs = iou_pairs()[::10]
    rows = []
    for a, b in pairs:
        iou, grad = iou_bev_with_grad(a, b)
        rows.append([iou, *grad])
    assert len(rows) == 2000
    assert digest(rows) == GRAD_DIGEST


def test_iou_with_grad_stays_in_unit_interval():
    # unclamped, rounding put the IoU of about half these boxes with themselves above 1
    # and a corner-to-corner IoU below 0, so a perfect prediction's DIoU loss read below 0
    rng = np.random.default_rng(21)
    for b in (_box(rng, spread=50.0) for _ in range(2000)):
        assert iou_bev_with_grad(b, b)[0] <= 1.0
        assert diou_loss(b, b)[0] >= 0.0
    for a, b in (_corner_to_corner(rng) for _ in range(2000)):
        assert iou_bev_with_grad(a, b)[0] >= 0.0


BOX_FIELDS = ("cx", "cy", "cz", "l", "w", "h", "yaw")
FINE_BOX = (1.0, -2.0, 0.5, 4.0, 2.0, 1.5, 0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", BOX_FIELDS)
def test_box_with_a_non_finite_field_rejected(field, value):
    vals = list(FINE_BOX)
    vals[BOX_FIELDS.index(field)] = value
    with pytest.raises(ValidationError) as excinfo:
        Box3D(*vals, class_id=1)
    assert str(excinfo.value) == f"box has non-finite fields: {tuple(vals)}"


@pytest.mark.parametrize("value", [0.0, -0.0, -5e-324, -3.0, 0])
@pytest.mark.parametrize("field", ["l", "w", "h"])
def test_box_with_a_non_positive_size_rejected(field, value):
    vals = dict(zip(BOX_FIELDS, FINE_BOX))
    vals[field] = value
    with pytest.raises(ValidationError) as excinfo:
        Box3D(**vals)
    assert str(excinfo.value) == f"box sizes must be positive, got l={vals['l']} w={vals['w']} h={vals['h']}"


@pytest.mark.parametrize("l,w", [(1e200, 1e200), (1e300, 1e10)])
def test_box_with_non_finite_bev_area_rejected(l, w):
    huge = Box3D(0.0, 0.0, 0.0, l, w, 1.0, 0.3)
    small = Box3D(0.5, 0.0, 0.0, 4.0, 2.0, 1.0, -0.2)
    for a, b, which in ((huge, huge, "first"), (huge, small, "first"), (small, huge, "second")):
        with pytest.raises(ValidationError, match=re.escape(f"{which} box BEV area l*w = {l:g}*{w:g} is not finite")):
            rotated_iou_bev(a, b)
        with pytest.raises(ValidationError, match=f"{which} box BEV area"):
            iou_bev_with_grad(a, b)


@pytest.mark.filterwarnings("error")
def test_far_off_boxes_with_non_finite_intersection_rejected():
    far = Box3D(1e200, 1e200, 0.0, 1.0, 1.0, 1.0, 0.0)  # the shoelace terms read inf - inf
    with pytest.raises(ValidationError, match=r"IoU of Box3D\(cx=1e\+200.* overflows"):
        rotated_iou_bev(far, far)


@pytest.mark.filterwarnings("error")
def test_boxes_with_non_finite_union_rejected():
    a = Box3D(0.0, 0.0, 0.0, 1e154, 1e154, 1.0, 0.0)  # each area is finite, their sum is not
    b = Box3D(1.0, 0.0, 0.0, 1e154, 1e154, 1.0, 0.0)
    with pytest.raises(ValidationError, match=r"IoU of Box3D\(cx=0\.0, .*l=1e\+154.* overflows"):
        rotated_iou_bev(a, b)


@pytest.mark.filterwarnings("error")
def test_non_finite_iou_gradient_rejected_without_warnings():
    pred = Box3D(0.0, 0.0, 0.0, 1e100, 1e100, 1.0, 0.3)  # the yaw jacobian terms overflow
    gt = Box3D(1.0, 0.0, 0.0, 1e100, 1e100, 1.0, 0.1)
    with pytest.raises(ValidationError, match=r"IoU gradient of Box3D\(.*l=1e\+100.* overflows"):
        iou_bev_with_grad(pred, gt)
