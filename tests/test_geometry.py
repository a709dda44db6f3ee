"""Bit-level pins and range checks of the BEV IoU functions.

The digests hold every bit of ``rotated_iou_bev`` over 20,000 seeded pairs and
of ``iou_bev_with_grad`` (value and gradient) over 2,000: a change to the clip,
the corner arithmetic or the order in which the shoelace terms are summed moves
them. A change that moves them on purpose states it, with the reason.
"""

import copy
import hashlib
import math
import pickle
import re

import numpy as np
import pytest

from pillardet.errors import ValidationError
from pillardet.geometry import Box3D, iou_bev_with_grad, normalize_yaw, rotated_iou_bev
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


def _unchecked(vals):
    """A Box3D tuple made without ``__new__``, to feed the copy and pickle paths."""
    return tuple.__new__(Box3D, vals)


# every way of making a Box3D, each from the 8 field values in order
BOX_MAKERS = {
    "positional": lambda vals: Box3D(*vals),
    "keyword": lambda vals: Box3D(**dict(zip(Box3D._fields, vals))),
    "_make": Box3D._make,
    "_replace": lambda vals: Box3D(*FINE_BOX)._replace(**dict(zip(Box3D._fields, vals))),
    "copy": lambda vals: copy.copy(_unchecked(vals)),
    "deepcopy": lambda vals: copy.deepcopy(_unchecked(vals)),
    "pickle": lambda vals: pickle.loads(pickle.dumps(_unchecked(vals))),
}


@pytest.mark.parametrize("make", sorted(BOX_MAKERS))
def test_every_way_of_making_a_box_checks_its_fields(make):
    make = BOX_MAKERS[make]
    for i in range(7):
        for value in (math.nan, math.inf, -math.inf):
            vals = [*FINE_BOX, 1]
            vals[i] = value
            with pytest.raises(ValidationError) as excinfo:
                make(vals)
            assert str(excinfo.value) == f"box has non-finite fields: {tuple(vals[:7])}"
    for i in (3, 4, 5):
        for value in (0.0, -1.0):
            vals = [*FINE_BOX, 1]
            vals[i] = value
            with pytest.raises(ValidationError) as excinfo:
                make(vals)
            assert str(excinfo.value) == f"box sizes must be positive, got l={vals[3]} w={vals[4]} h={vals[5]}"
    box = make([*FINE_BOX[:6], 7.0, 1])
    assert type(box) is Box3D
    assert box == (*FINE_BOX[:6], normalize_yaw(7.0), 1) and -math.pi <= box.yaw < math.pi
    for name in (*Box3D._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(box, name, 1.0)


def test_box_repr_and_tuple_behaviour():
    box = Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 2)
    # the non-finite-box and IoU-overflow messages embed this text
    assert repr(box) == "Box3D(cx=1.0, cy=2.0, cz=0.5, l=4.0, w=2.0, h=1.5, yaw=0.2999999999999998, class_id=2)"
    assert box == (1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.2999999999999998, 2)
    cx, cy, cz, l, w, h, yaw, class_id = box
    assert (l * w, class_id) == (box.l * box.w, 2)
    assert Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3).class_id == 0


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


def _box_table(rng, n):
    """Seeded (n, 7) rows whose yaws include the edges of normalize_yaw's range."""
    rows = np.column_stack((rng.normal(0.0, 30.0, (n, 3)), rng.uniform(0.1, 5.0, (n, 3)), rng.uniform(-10.0, 10.0, n)))
    edges = [math.pi, -math.pi, np.nextafter(-math.pi, -math.inf), np.nextafter(math.pi, math.inf), -0.0, 0.0,
             1e6, -1e6, 3 * math.pi, -3 * math.pi, 5e-324]
    rows[: len(edges), 6] = edges
    return rows


def _built_one_at_a_time(rows, class_ids):
    try:
        return [Box3D(*row, k) for row, k in zip(rows.tolist(), class_ids)]
    except ValidationError as e:
        return e


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_boxes_from_rows_equal_boxes_built_one_at_a_time(seed):
    rng = np.random.default_rng(seed)
    rows = _box_table(rng, 200)
    class_ids = rng.integers(0, 10, len(rows)).tolist()
    got, want = Box3D.from_rows(rows, class_ids), _built_one_at_a_time(rows, class_ids)
    assert [type(b) for b in got] == [Box3D] * len(rows)
    assert [(type(b.class_id), b.class_id) for b in got] == [(type(b.class_id), b.class_id) for b in want]
    assert np.array([b[:7] for b in got]).tobytes() == np.array([b[:7] for b in want]).tobytes()
    assert Box3D.from_rows(np.zeros((0, 7)), []) == []


BAD_FIELDS = [(f, v) for f in range(7) for v in (math.nan, math.inf, -math.inf)]
BAD_FIELDS += [(f, v) for f in (3, 4, 5) for v in (0.0, -0.0, -1.0)]  # l, w, h


@pytest.mark.parametrize(("field", "value"), BAD_FIELDS)
def test_boxes_from_rows_fail_with_the_first_bad_rows_error(field, value):
    rows = _box_table(np.random.default_rng(3), 20)
    rows[7, field] = value
    rows[12, 3] = math.nan  # a later bad row, with another error
    want = _built_one_at_a_time(rows, list(range(20)))
    assert isinstance(want, ValidationError)
    with pytest.raises(ValidationError) as excinfo:
        Box3D.from_rows(rows, list(range(20)))
    assert str(excinfo.value) == str(want)


# The clip as it was before it carried the next vertex: the reference its vertices and
# jacobians must match bit for bit.
def _reference_clip(poly, clip, jacs=None):
    n_clip = len(clip)
    for e in range(n_clip):
        ax, ay = clip[e]
        bx, by = clip[(e + 1) % n_clip]
        ex, ey = bx - ax, by - ay
        sides = [ex * (y - ay) - ey * (x - ax) for x, y in poly]
        out = []
        out_jacs = None if jacs is None else []
        n = len(poly)
        for i in range(n):
            sp = sides[i]
            if sp >= 0.0:
                out.append(poly[i])
                if jacs is not None:
                    out_jacs.append(jacs[i])
            sq = sides[(i + 1) % n]
            if (sp >= 0.0) != (sq >= 0.0):
                p, q = poly[i], poly[(i + 1) % n]
                denom = sp - sq
                t = sp / denom
                dx, dy = q[0] - p[0], q[1] - p[1]
                out.append((p[0] + t * dx, p[1] + t * dy))
                if jacs is not None:
                    jp, jq = jacs[i], jacs[(i + 1) % n]
                    side_jp = ex * jp[1] - ey * jp[0]
                    side_jq = ex * jq[1] - ey * jq[0]
                    dt = (-sq * side_jp + sp * side_jq) / (denom * denom)
                    out_jacs.append(jp + t * (jq - jp) + np.outer((dx, dy), dt))
        if not out:
            return [], out_jacs
        poly, jacs = out, out_jacs
    return poly, jacs


def _clip_cases():
    rng = np.random.default_rng(22)
    pairs = [(a, a) for a in (_box(rng) for _ in range(200))]
    pairs += [_corner_to_corner(rng) for _ in range(200)]
    # edge to edge, and axis-aligned boxes sharing edge lines
    pairs += [(Box3D(0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0), Box3D(2.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0)),
              (Box3D(0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0), Box3D(0.5, 0.25, 0.0, 1.0, 0.5, 1.0, 0.0)),
              (Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0), Box3D(1.0, 1.0, 0.0, 2.0, 2.0, 1.0, math.pi / 2)),
              (Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0), Box3D(5.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0))]
    pairs += [(Box3D(*rng.integers(-3, 4, 2).astype(float), 0.0, *rng.integers(1, 5, 2).astype(float), 1.0,
                     float(rng.integers(0, 4)) * math.pi / 2),
               Box3D(*rng.integers(-3, 4, 2).astype(float), 0.0, *rng.integers(1, 5, 2).astype(float), 1.0, 0.0))
              for _ in range(300)]
    pairs += [(_box(rng), _box(rng)) for _ in range(1000)]
    pairs += [(a, _jittered(rng, a)) for a in (_box(rng) for _ in range(1000))]
    return pairs


def _clip_bits(poly, jacs):
    return np.array(poly, dtype=np.float64).tobytes(), None if jacs is None else np.array(jacs).tobytes()


def test_clip_matches_the_reference_clip_bit_for_bit():
    from pillardet.geometry import _clip_tracked, _corner_jacs, _corners

    shapes = set()
    for a, b in _clip_cases():
        for jacs in (None, _corner_jacs(a)):
            got = _clip_tracked(_corners(a), _corners(b), jacs)
            want = _reference_clip(_corners(a), _corners(b), jacs)
            assert _clip_bits(*got) == _clip_bits(*want)
        shapes.add(len(got[0]))
    assert {0, 4, 8} <= shapes


@pytest.mark.parametrize("n", range(3, 13))
def test_polygon_area_sums_in_np_sum_order(n):
    from pillardet.geometry import _polygon_area

    rng = np.random.default_rng(n)
    for _ in range(300):
        pts = [tuple(p) for p in rng.normal(0.0, 10.0, (n, 2)).tolist()]
        a = np.array(pts)
        b = np.roll(a, -1, axis=0)
        assert float(_polygon_area(pts)).hex() == float(0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])).hex()
