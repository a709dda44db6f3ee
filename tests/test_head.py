import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pillardet.cli import read_detections, write_detections
from pillardet.errors import InvariantViolation, ValidationError
from pillardet.geometry import Box3D, bev_corners, iou_bev_with_grad, normalize_yaw, rotated_iou_bev
from pillardet.head import (
    BOX_CHANNELS,
    HEAD_GROUPS,
    HEATMAP_CLAMP,
    LOG_SIZE_BAND,
    Detection,
    HeadOutput,
    _apart,
    _overlap_pairs,
    _sigmoid,
    build_head,
    decode,
    decode_cells,
    head_forward,
    head_map_hw,
    nms,
    rectify_detections,
)
from pillardet.nn import ConvParams, conv2d
from pillardet.pillars import GridConfig
from pillardet.pointcloud import Range3D
from pillardet.profiles import DESK

GRID = GridConfig(Range3D(-6.4, 6.4, -6.4, 6.4, -2.0, 2.0), 0.2, 0.2)
STRIDE = 8  # head cells are 1.6 m


def empty_output(n_classes=2, hw=None):
    h, w = hw or head_map_hw(GRID, STRIDE)
    return dict(
        heatmap=np.full((n_classes, h, w), 1e-4),
        offset=np.zeros((2, h, w)),
        z=np.zeros((1, h, w)),
        size=np.zeros((3, h, w)),
        yaw=np.stack([np.zeros((h, w)), np.ones((h, w))]),
        iou=np.zeros((1, h, w)),
    )


def full_map_peaks(heatmap):
    """Reference peak rule over the whole map: cells >= all 8 neighbours, per class,
    with off-map neighbours at -inf."""
    k, h, w = heatmap.shape
    padded = np.full((k, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    peak = np.ones_like(heatmap, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            peak &= heatmap >= padded[:, 1 + dy : h + 1 + dy, 1 + dx : w + 1 + dx]
    return peak


def reference_decode(out, k, score_thresh):
    """decode with the full-map peak rule: top-k by score, ties by (row, col, class)."""
    cls_idx, rows, cols = np.nonzero(full_map_peaks(out.heatmap) & (out.heatmap > score_thresh))
    scores = out.heatmap[cls_idx, rows, cols]
    order = np.lexsort((cls_idx, cols, rows, -scores))[:k]
    cls_idx, rows, cols, scores = cls_idx[order], rows[order], cols[order], scores[order]
    iou_scores = np.clip((out.iou[0, rows, cols] + 1.0) / 2.0, 0.0, 1.0)
    boxes = decode_cells(out, GRID, STRIDE, rows, cols, cls_idx)
    return [
        Detection(box, float(s), float(i), float(s))
        for box, s, i in zip(boxes, scores, iou_scores)
    ]


def tied_head(rng, shape):
    """A head whose heatmap takes few distinct values, so ties and plateaus are
    common and many peaks sit on the border."""
    n_classes, h, w = shape
    fields = empty_output(n_classes, (h, w))
    fields["heatmap"] = rng.integers(1, 6, shape) * 0.16
    fields["offset"] = rng.uniform(-0.5, 0.5, (2, h, w))
    fields["size"] = rng.uniform(-1.0, 1.5, (3, h, w))
    fields["yaw"] = rng.normal(size=(2, h, w))
    fields["iou"] = rng.uniform(-1.0, 1.0, (1, h, w))
    return HeadOutput(**fields)


class TestDecode:
    def test_all_background_heatmap(self):
        out = HeadOutput(**empty_output())
        assert decode(out, GRID, STRIDE, k=10, score_thresh=0.1) == []

    def test_single_peak_hand_decoded(self):
        fields = empty_output()
        fields["heatmap"][1, 3, 4] = 0.9
        fields["size"][:, 3, 4] = math.log(2.0)
        dets = decode(HeadOutput(**fields), GRID, STRIDE, k=10, score_thresh=0.1)
        assert len(dets) == 1
        d = dets[0]
        assert d.class_id == 1 and math.isclose(d.cls_score, 0.9)
        # zero offset decodes to the cell's geometric center
        assert math.isclose(d.box.cx, -6.4 + (4 + 0.5) * 1.6, abs_tol=1e-9)
        assert math.isclose(d.box.cy, -6.4 + (3 + 0.5) * 1.6, abs_tol=1e-9)
        for v in (d.box.l, d.box.w, d.box.h):
            assert math.isclose(v, 2.0, rel_tol=1e-12)
        assert math.isclose(d.iou_score, 0.5)

    def test_equal_peaks_tie_break_by_row_col(self):
        fields = empty_output()
        fields["heatmap"][0, 5, 2] = 0.8
        fields["heatmap"][0, 1, 6] = 0.8
        fields["size"][:] = math.log(1.0)
        dets = decode(HeadOutput(**fields), GRID, STRIDE, k=1, score_thresh=0.1)
        assert len(dets) == 1
        assert math.isclose(dets[0].box.cy, -6.4 + (1 + 0.5) * 1.6, abs_tol=1e-9)

    def test_threshold_filters(self):
        fields = empty_output()
        fields["heatmap"][0, 2, 2] = 0.3
        out = HeadOutput(**fields)
        assert decode(out, GRID, STRIDE, k=10, score_thresh=0.5) == []
        assert len(decode(out, GRID, STRIDE, k=10, score_thresh=0.2)) == 1

    def test_gaussian_neighbourhood_yields_one_peak(self):
        fields = empty_output(n_classes=1)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                fields["heatmap"][0, 4 + dy, 4 + dx] = 0.9 if (dx, dy) == (0, 0) else 0.5
        dets = decode(HeadOutput(**fields), GRID, STRIDE, k=10, score_thresh=0.1)
        assert len(dets) == 1

    def test_offset_recovers_subcell_position(self):
        fields = empty_output()
        fields["heatmap"][0, 2, 3] = 0.9
        fields["offset"][:, 2, 3] = (0.25, -0.4)
        fields["size"][:] = math.log(1.0)
        d = decode(HeadOutput(**fields), GRID, STRIDE, k=1, score_thresh=0.1)[0]
        assert math.isclose(d.box.cx, -6.4 + (3 + 0.5 + 0.25) * 1.6, abs_tol=1e-9)
        assert math.isclose(d.box.cy, -6.4 + (2 + 0.5 - 0.4) * 1.6, abs_tol=1e-9)

    def test_heatmap_domain_enforced(self):
        fields = empty_output()
        fields["heatmap"][0, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            HeadOutput(**fields)

    @pytest.mark.parametrize("k", [0, -45])
    def test_k_below_one_rejected(self, k):
        # a negative k would keep order[:k], all but the last |k| peaks
        fields = empty_output()
        fields["heatmap"][0, 2, 2] = 0.9
        with pytest.raises(ValidationError, match="k >= 1"):
            decode(HeadOutput(**fields), GRID, STRIDE, k=k, score_thresh=0.1)

    @pytest.mark.parametrize("score_thresh", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("shape", [(2, 1, 7), (1, 6, 1), (3, 9, 7), (2, 16, 16)])
    def test_matches_full_map_peak_rule(self, shape, score_thresh):
        rng = np.random.default_rng(shape[1] * 100 + shape[2])
        for _ in range(5):
            out = tied_head(rng, shape)
            for k in (3, out.heatmap.size):
                assert decode(out, GRID, STRIDE, k=k, score_thresh=score_thresh) == reference_decode(
                    out, k, score_thresh
                )


class TestHeadConv:
    def test_layout_names_the_output_fields(self):
        assert [name for name, _, _ in HEAD_GROUPS] == [f.name for f in dataclasses.fields(HeadOutput)]

    def test_one_conv_matches_per_group_convs(self):
        rng = np.random.default_rng(0)
        n_classes, neck = 3, 16
        params = build_head(neck, n_classes, rng)
        features = rng.normal(size=(neck, 6, 5)).astype(np.float32)
        out = head_forward(features, params)
        start = 0
        for name, _, width in HEAD_GROUPS:
            width = width or n_classes
            group = ConvParams(params.kernel[start : start + width], params.bias[start : start + width])
            want = np.asarray(conv2d(features, group), dtype=np.float64)
            if name == "heatmap":
                want = np.clip(1.0 / (1.0 + np.exp(-want)), HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
            elif name == "iou":
                want = np.tanh(want)
            np.testing.assert_allclose(getattr(out, name), want, rtol=1e-5, atol=1e-6)
            start += width
        assert start == params.out_channels

    def test_empty_features_give_heatmap_bias(self):
        params = build_head(8, 2, np.random.default_rng(1))
        out = head_forward(np.zeros((8, 3, 3), dtype=np.float32), params)
        np.testing.assert_allclose(out.heatmap, 0.01, rtol=1e-6)
        assert not out.offset.any() and not out.iou.any()

    def test_non_finite_features_are_an_internal_fault(self):
        params = build_head(8, 2, np.random.default_rng(2))
        features = np.zeros((8, 3, 4), dtype=np.float32)
        features[5, 1, 2] = np.nan
        with pytest.raises(InvariantViolation, match=r"heatmap channel 0 is non-finite at cell \(row 1, col 2\)"):
            head_forward(features, params)

    def test_sigmoid_matches_the_plain_formula(self):
        x = np.concatenate([np.linspace(-700.0, 700.0, 20001), np.random.default_rng(3).normal(0.0, 8.0, 10000)])
        plain = 1.0 / (1.0 + np.exp(-x))
        np.testing.assert_allclose(_sigmoid(x), plain, rtol=1e-15, atol=0.0)

    def test_huge_logits_do_not_warn(self):
        n_classes, neck = 2, 4
        kernel = np.zeros((n_classes + BOX_CHANNELS, neck, 1, 1))
        kernel[0, 0], kernel[1, 0] = 1.0, -1.0
        params = ConvParams(kernel, np.zeros(n_classes + BOX_CHANNELS))
        features = np.zeros((neck, 2, 2), dtype=np.float32)
        features[0] = [[-5e3, -1e3], [1e3, 5e3]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = head_forward(features, params)
        lo, hi = HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP
        np.testing.assert_array_equal(out.heatmap[0], [[lo, lo], [hi, hi]])
        np.testing.assert_array_equal(out.heatmap[1], [[hi, hi], [lo, lo]])


def rectify_score(cls_score, iou_score, alpha):
    """The final score rectification gives one detection."""
    det = Detection(Box3D(0, 0, 0, 1, 1, 1, 0), cls_score, iou_score, cls_score)
    return rectify_detections([det], alpha)[0].final_score


class TestRectify:
    def test_alpha_zero_returns_cls(self):
        assert rectify_score(0.7, 0.2, 0.0) == 0.7

    def test_alpha_one_returns_iou(self):
        assert rectify_score(0.7, 0.2, 1.0) == pytest.approx(0.2)

    def test_perfect_scores(self):
        assert rectify_score(1.0, 1.0, 0.5) == 1.0

    def test_closed_form_case(self):
        assert rectify_score(0.64, 0.25, 0.5) == pytest.approx(0.4)

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            cls_a, cls_b = sorted(rng.uniform(0.05, 1.0, 2))
            iou_a, iou_b = sorted(rng.uniform(0.0, 1.0, 2))
            alpha = rng.uniform(0.0, 1.0)
            assert rectify_score(cls_a, iou_a, alpha) <= rectify_score(cls_b, iou_a, alpha) + 1e-12
            assert rectify_score(cls_a, iou_a, alpha) <= rectify_score(cls_a, iou_b, alpha) + 1e-12

    def test_range_validation(self):
        # rectification checks nothing per detection: its inputs are held in range where they enter
        fields = empty_output()
        fields["heatmap"][0, 0, 0] = 0.0
        with pytest.raises(ValidationError, match="heatmap values must lie strictly in"):
            HeadOutput(**fields)
        fields = empty_output()
        fields["heatmap"][0, 2, 2] = 0.9
        fields["iou"][0, 2, 2] = 2.0
        assert [d.iou_score for d in decode(HeadOutput(**fields), GRID, STRIDE, k=1, score_thresh=0.1)] == [1.0]
        with pytest.raises(ValidationError, match="rectify_alpha values must lie in"):
            dataclasses.replace(DESK, rectify_alpha=2.0)

    def test_per_class_exponents(self):
        dets = [
            Detection(Box3D(0, 0, 0, 1, 1, 1, 0, 0), 0.64, 0.25, 0.64),
            Detection(Box3D(0, 0, 0, 1, 1, 1, 0, 1), 0.64, 0.25, 0.64),
        ]
        out = rectify_detections(dets, (0.0, 0.5))
        assert out[0].final_score == pytest.approx(0.64)
        assert out[1].final_score == pytest.approx(0.4)


def mc_iou(a: Box3D, b: Box3D, n=1_000_000, seed=0):
    """Monte-Carlo IoU over the union's bounding box."""
    rng = np.random.default_rng(seed)
    corners = np.vstack([bev_corners(a), bev_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx = pts[:, 0] - box.cx
        dy = pts[:, 1] - box.cy
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (np.abs(lx) <= box.l / 2) & (np.abs(ly) <= box.w / 2)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def random_box(rng, spread=1.5):
    return Box3D(
        rng.uniform(-spread, spread), rng.uniform(-spread, spread), 0.0,
        rng.uniform(0.8, 4.0), rng.uniform(0.8, 3.0), 1.0, rng.uniform(-math.pi, math.pi),
    )


class TestRotatedIoU:
    def test_identical_boxes(self):
        b = Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.7)
        assert rotated_iou_bev(b, b) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3)
        b = Box3D(10.0, 0.0, 0.0, 2.0, 2.0, 1.0, -0.8)
        assert rotated_iou_bev(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            assert rotated_iou_bev(a, b) == pytest.approx(rotated_iou_bev(b, a), abs=1e-12)

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = Box3D(rng.uniform(-2, 2), rng.uniform(-2, 2), 0, rng.uniform(1, 4), rng.uniform(1, 3), 1, 0.0)
            b = Box3D(rng.uniform(-2, 2), rng.uniform(-2, 2), 0, rng.uniform(1, 4), rng.uniform(1, 3), 1, 0.0)
            ox = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2) - max(a.cx - a.l / 2, b.cx - b.l / 2))
            oy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2) - max(a.cy - a.w / 2, b.cy - b.w / 2))
            inter = ox * oy
            expect = inter / (a.l * a.w + b.l * b.w - inter)
            assert rotated_iou_bev(a, b) == pytest.approx(expect, abs=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a, b = random_box(rng), random_box(rng)
            base = rotated_iou_bev(a, b)
            dx, dy, phi = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def moved(box):
                x = c * box.cx - s * box.cy + dx
                y = s * box.cx + c * box.cy + dy
                return Box3D(x, y, box.cz, box.l, box.w, box.h, box.yaw + phi)

            assert rotated_iou_bev(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        for i in range(10):
            a, b = random_box(rng), random_box(rng)
            assert rotated_iou_bev(a, b) == pytest.approx(mc_iou(a, b, n=200_000, seed=i), abs=5e-3)

    def test_known_quarter_overlap(self):
        # unit squares offset by half their side in both axes
        a = Box3D(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        b = Box3D(1.0, 1.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        assert rotated_iou_bev(a, b) == pytest.approx(1.0 / 7.0, abs=1e-12)


box_strategy = st.builds(
    Box3D,
    cx=st.floats(-2.0, 2.0),
    cy=st.floats(-2.0, 2.0),
    cz=st.just(0.0),
    l=st.floats(0.1, 4.0),
    w=st.floats(0.1, 4.0),
    h=st.just(1.0),
    yaw=st.floats(-math.pi, math.pi),
)


@settings(derandomize=True, database=None, deadline=None)
@given(box_strategy, box_strategy)
def test_iou_with_grad_matches_rotated_iou(a, b):
    assert iou_bev_with_grad(a, b)[0] == pytest.approx(rotated_iou_bev(a, b), abs=1e-12)



@settings(derandomize=True, database=None, deadline=None)
@given(box_strategy, box_strategy)
def test_rotated_iou_is_a_symmetric_share(a, b):
    iou = rotated_iou_bev(a, b)
    assert 0.0 <= iou <= 1.0
    assert rotated_iou_bev(b, a) == pytest.approx(iou, abs=1e-9)
    assert rotated_iou_bev(a, a) == pytest.approx(1.0, abs=1e-9)


detections_strategy = st.lists(
    st.builds(
        lambda box, c, score: Detection(box._replace(class_id=c), score, 0.5, score),
        box_strategy,
        st.integers(0, 2),
        st.floats(0.05, 1.0),
    ),
    max_size=12,
)


@settings(derandomize=True, database=None, deadline=None)
@given(detections_strategy, st.floats(0.05, 0.95), st.booleans())
def test_nms_keeps_an_idempotent_non_overlapping_subsequence(dets, thresh, class_agnostic):
    kept = nms(dets, thresh, class_agnostic=class_agnostic)
    positions = [next(i for i, d in enumerate(dets) if d is k) for k in kept]
    assert positions == sorted(set(positions))
    for i, a in enumerate(kept):
        for b in kept[i + 1 :]:
            if class_agnostic or a.class_id == b.class_id:
                assert rotated_iou_bev(a.box, b.box) <= thresh
    assert nms(kept, thresh, class_agnostic=class_agnostic) == kept


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.0, exclude_min=True), st.floats(0.0, 1.0)), max_size=8))
def test_rectify_endpoints_give_cls_and_iou(scores):
    dets = [Detection(Box3D(0, 0, 0, 1, 1, 1, 0), c, i, c) for c, i in scores]
    assert [d.final_score for d in rectify_detections(dets, 0.0)] == [c for c, _ in scores]
    assert [d.final_score for d in rectify_detections(dets, 1.0)] == [i for _, i in scores]


def _head_group(width, elements=st.floats(allow_nan=False, allow_infinity=False)):
    return arrays(np.float64, (width, 3, 3), elements=elements)


# offsets are bounded so that the decoded center stays finite on GRID
head_strategy = st.builds(
    HeadOutput,
    heatmap=_head_group(2, st.floats(HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)),
    offset=_head_group(2, st.floats(-1e6, 1e6)),
    z=_head_group(1),
    size=_head_group(3),
    yaw=_head_group(2),
    iou=_head_group(1),
)


@settings(derandomize=True, database=None, deadline=None)
@given(head_strategy)
def test_finite_head_output_decodes_to_in_band_boxes(out):
    lo, hi = (math.exp(v) for v in LOG_SIZE_BAND)
    for d in decode(out, GRID, STRIDE, k=100, score_thresh=0.0):
        assert all(lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12) for v in (d.box.l, d.box.w, d.box.h))
        assert d.box.l * d.box.w > 0.0


def scalar_decode_cell(out, grid, out_stride, row, col, class_id):
    """One head cell decoded with per-cell indexing: the reference for ``decode_cells``."""
    cx = grid.range.x_min + (col + 0.5 + out.offset[0, row, col]) * (out_stride * grid.pillar_x)
    cy = grid.range.y_min + (row + 0.5 + out.offset[1, row, col]) * (out_stride * grid.pillar_y)
    l, w, h = np.exp(np.clip(out.size[:, row, col], *LOG_SIZE_BAND))
    yaw = math.atan2(out.yaw[0, row, col], out.yaw[1, row, col])
    return Box3D(cx, cy, float(out.z[0, row, col]), float(l), float(w), float(h), normalize_yaw(yaw), class_id)


def box_bits(box):
    return tuple(float(v).hex() for v in (box.cx, box.cy, box.cz, box.l, box.w, box.h, box.yaw)) + (box.class_id,)


@settings(derandomize=True, database=None, deadline=None)
@given(head_strategy, st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), max_size=12))
def test_decode_cells_equals_per_cell_decode_bitwise(out, cells):
    rows, cols, classes = (list(v) for v in zip(*cells)) if cells else ([], [], [])
    got = decode_cells(out, GRID, STRIDE, rows, cols, classes)
    want = [scalar_decode_cell(out, GRID, STRIDE, r, c, k) for r, c, k in cells]
    assert [box_bits(b) for b in got] == [box_bits(b) for b in want]


def test_normalize_yaw_is_idempotent_on_atan2_outputs():
    # decode_cells hands math.atan2 outputs straight to Box3D, which normalizes once
    rng = np.random.default_rng(17)
    special = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300, 1.0, -1.0, math.inf, -math.inf)
    pairs = [(s, c) for s in special for c in special]
    pairs += [tuple(v) for v in rng.normal(size=(20000, 2)) * rng.choice([1e-300, 1e-8, 1.0, 1e300], (20000, 1))]
    # headings within 40 ulp of the seams at +-pi, +-pi/2 and 0, as (sin, cos) pairs and as
    # pairs that put atan2 on the seam side of the cut (sin a signed zero or subnormal)
    for seam in (-math.pi, -math.pi / 2, 0.0, math.pi / 2, math.pi):
        yaw = seam
        for _ in range(40):
            yaw = math.nextafter(yaw, -math.inf)
        for _ in range(81):
            pairs.append((math.sin(yaw), math.cos(yaw)))
            yaw = math.nextafter(yaw, math.inf)
    pairs += [(s, -c) for s in (0.0, -0.0, 5e-324, -5e-324) for c in (1.0, 1e-300, 1e300)]
    for s, c in pairs:
        once = normalize_yaw(math.atan2(s, c))
        assert normalize_yaw(once).hex() == once.hex(), (s, c)
    assert normalize_yaw(math.atan2(0.0, -1.0)) == -math.pi and normalize_yaw(math.atan2(-0.0, -1.0)) == -math.pi


def naive_nms(dets, iou_thresh, class_agnostic):
    """Quadratic reference: explicit suppression table."""
    n = len(dets)
    order = sorted(range(n), key=lambda i: (-dets[i].final_score, i))
    alive = [True] * n
    kept = []
    for i in order:
        if not alive[i]:
            continue
        kept.append(i)
        for j in order:
            if j == i or not alive[j]:
                continue
            if not class_agnostic and dets[j].class_id != dets[i].class_id:
                continue
            # the suppressed box's class threshold, also across classes
            thresh = iou_thresh if np.isscalar(iou_thresh) else iou_thresh[dets[j].class_id]
            if rotated_iou_bev(dets[i].box, dets[j].box) > thresh:
                alive[j] = False
    return sorted(kept)


def random_detections(rng, n, n_classes=3):
    out = []
    for _ in range(n):
        box = random_box(rng, spread=3.0)
        box = Box3D(box.cx, box.cy, 0.0, box.l, box.w, box.h, box.yaw, int(rng.integers(n_classes)))
        cls = float(rng.uniform(0.05, 1.0))
        iou = float(rng.uniform(0.0, 1.0))
        out.append(Detection(box, cls, iou, cls))
    return out


class TestNMS:
    def test_single_detection_kept(self):
        dets = random_detections(np.random.default_rng(5), 1)
        assert nms(dets, 0.5) == dets

    def test_identical_boxes_highest_kept(self):
        b = Box3D(0, 0, 0, 2, 1, 1, 0.2, 0)
        dets = [Detection(b, 0.4, 0.5, 0.4), Detection(b, 0.9, 0.5, 0.9)]
        assert nms(dets, 0.5) == [dets[1]]

    def test_tie_breaks_by_input_index(self):
        b = Box3D(0, 0, 0, 2, 1, 1, 0.2, 0)
        dets = [Detection(b, 0.5, 0.5, 0.5), Detection(b, 0.5, 0.5, 0.5)]
        assert nms(dets, 0.5) == [dets[0]]

    def test_class_specific_keeps_cross_class_overlap(self):
        b = Box3D(0, 0, 0, 2, 1, 1, 0.2, 0)
        b2 = Box3D(0, 0, 0, 2, 1, 1, 0.2, 1)
        dets = [Detection(b, 0.9, 0.5, 0.9), Detection(b2, 0.8, 0.5, 0.8)]
        assert len(nms(dets, 0.5, class_agnostic=False)) == 2
        assert len(nms(dets, 0.5, class_agnostic=True)) == 1

    @pytest.mark.parametrize("class_agnostic", [False, True])
    def test_matches_naive_reference(self, class_agnostic):
        rng = np.random.default_rng(6)
        for trial in range(60):
            dets = random_detections(rng, int(rng.integers(2, 14)))
            thresh = float(rng.uniform(0.1, 0.8))
            got = nms(dets, thresh, class_agnostic=class_agnostic)
            want = [dets[i] for i in naive_nms(dets, thresh, class_agnostic)]
            assert got == want, f"trial {trial}"

    def test_kept_pairs_below_threshold(self):
        rng = np.random.default_rng(7)
        dets = random_detections(rng, 20)
        kept = nms(dets, 0.3)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                if a.class_id == b.class_id:
                    assert rotated_iou_bev(a.box, b.box) <= 0.3

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(8)
        dets = random_detections(rng, 15)
        kept = nms(dets, 0.4)
        assert all(d in dets for d in kept)


def detections_at(rng, centers, n_classes=3):
    """One car-sized detection per centre, with random size, heading, class and score."""
    dets = []
    for cx, cy in centers:
        k = int(rng.integers(n_classes))
        box = Box3D(cx, cy, 0.0, rng.uniform(2.0, 5.0), rng.uniform(1.2, 2.4), 1.5, rng.uniform(-math.pi, math.pi), k)
        score = float(rng.uniform(0.2, 1.0))
        dets.append(Detection(box, score, 0.5, score))
    return dets


def crowded_detections(rng, n=150, half_range=54.0, n_clusters=6):
    """Boxes spread over a nuscenes-sized range plus tight clusters that overlap."""
    centers = list(rng.uniform(-half_range, half_range, (n - 5 * n_clusters, 2)))
    for c in rng.uniform(-half_range, half_range, (n_clusters, 2)):
        centers.extend(c + rng.normal(0.0, 0.8, (5, 2)))
    return detections_at(rng, centers)


def count_iou_calls(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return rotated_iou_bev(a, b)

    monkeypatch.setattr("pillardet.head.rotated_iou_bev", counting)
    return calls


def elongated_detections(rng, n_rows=8, per_row=6, n_scattered=60, half_range=30.0):
    """Rows of long, narrow boxes side by side (gaps around 0.1 m, some negative) among
    scattered ones, so many pairs have touching circles and footprints that are apart."""
    dets = []
    for cx, cy, yaw in zip(*rng.uniform(-half_range, half_range, (2, n_rows)), rng.uniform(-math.pi, math.pi, n_rows)):
        across = 0.0
        for _ in range(per_row):
            l, w = rng.uniform(4.0, 12.0), rng.uniform(0.3, 1.0)
            across += w / 2.0
            along = rng.normal(0.0, 0.5)
            dets.append((cx + along * math.cos(yaw) - across * math.sin(yaw),
                         cy + along * math.sin(yaw) + across * math.cos(yaw), l, w, yaw + rng.normal(0.0, 0.03)))
            across += w / 2.0 + rng.normal(0.1, 0.08)
    for cx, cy in rng.uniform(-half_range, half_range, (n_scattered, 2)):
        dets.append((cx, cy, rng.uniform(4.0, 12.0), rng.uniform(0.3, 1.0), rng.uniform(-math.pi, math.pi)))
    out = []
    for cx, cy, l, w, yaw in dets:
        k = int(rng.integers(3))
        score = float(rng.uniform(0.2, 1.0))
        out.append(Detection(Box3D(cx, cy, 0.0, l, w, 1.5, yaw, k), score, 0.5, score))
    return out


def touching_pair(rng, gap):
    """A random box and a second box just off one of its edges by ``gap`` metres: the
    second box's nearest point lies on that edge's normal, at any heading or, half the
    time, parallel."""
    a = random_box(rng, spread=50.0)
    yaw_b = a.yaw + (rng.uniform(-math.pi, math.pi) if rng.random() < 0.5 else 0.0)
    l, w = rng.uniform(0.8, 4.0), rng.uniform(0.3, 3.0)
    edge = rng.integers(4)
    normal = a.yaw + edge * math.pi / 2.0
    half_a = (a.l if edge % 2 == 0 else a.w) / 2.0
    rel = yaw_b - normal
    reach_b = l / 2.0 * abs(math.cos(rel)) + w / 2.0 * abs(math.sin(rel))
    d = half_a + reach_b + gap
    slide = rng.uniform(-1.0, 1.0) * (a.w if edge % 2 == 0 else a.l) / 2.0
    b = Box3D(a.cx + d * math.cos(normal) - slide * math.sin(normal),
              a.cy + d * math.sin(normal) + slide * math.cos(normal), 0.0, l, w, 1.0, yaw_b)
    return a, b


class TestNMSOverlapMask:
    @pytest.mark.parametrize("class_agnostic,thresh", [
        (False, 0.0), (False, 0.2), (False, (0.1, 0.5, 0.8)), (False, 1.0),
        (True, 0.0), (True, 0.2), (True, (0.1, 0.5, 0.8)), (True, 1.0),
    ])
    def test_crowded_scene_matches_naive_reference(self, class_agnostic, thresh):
        rng = np.random.default_rng(11)
        for _ in range(2):
            dets = crowded_detections(rng)
            assert nms(dets, thresh, class_agnostic) == [dets[i] for i in naive_nms(dets, thresh, class_agnostic)]

    @pytest.mark.parametrize("class_agnostic", [False, True])
    def test_elongated_scene_matches_naive_reference(self, class_agnostic):
        rng = np.random.default_rng(15)
        for _ in range(2):
            dets = elongated_detections(rng)
            assert nms(dets, 0.0, class_agnostic) == [dets[i] for i in naive_nms(dets, 0.0, class_agnostic)]

    @pytest.mark.parametrize("gap", [-1e-3, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-8, 1e-6, 1e-3])
    def test_pairs_apart_on_an_axis_have_zero_iou(self, gap):
        rng = np.random.default_rng(16)
        pairs = [touching_pair(rng, gap) for _ in range(400)]
        geom = np.array([(b.cx, b.cy, b.l, b.w, b.yaw) for pair in pairs for b in pair])
        first = np.arange(0, len(geom), 2)
        for flip in (False, True):
            apart = _apart(geom, first + flip, first + (not flip)).tolist()
            for (a, b), is_apart in zip(pairs, apart):
                if is_apart:
                    assert rotated_iou_bev(a, b) == 0.0
            # the slack is 1e-9 of the radius sum, so gaps well above it always separate
            if gap >= 1e-6:
                assert all(apart)

    def test_side_by_side_slabs_evaluate_no_iou(self, monkeypatch):
        # circumscribed circles of radius 3.01 m overlap, but the footprints are 0.1 m apart
        a = Box3D(0.0, 0.0, 0.0, 6.0, 0.5, 1.5, 0.4)
        b = Box3D(-0.6 * math.sin(0.4), 0.6 * math.cos(0.4), 0.0, 6.0, 0.5, 1.5, 0.4)
        dets = [Detection(a, 0.9, 0.5, 0.9), Detection(b, 0.8, 0.5, 0.8)]
        calls = count_iou_calls(monkeypatch)
        assert nms(dets, 0.0) == dets
        assert calls == []

    @pytest.mark.parametrize("gap", [-1e-6, -1e-12, 0.0, 1e-12, 1e-6])
    @pytest.mark.parametrize("x0", [0.0, 50.0])
    def test_corner_to_corner_boxes_at_tangent_circles(self, gap, x0):
        # each box's diagonal lies on the x axis, so the corners meet where the circles do
        l, w = 3.0, 4.0
        yaw = -math.atan2(w, l)
        a = Box3D(x0, 0.0, 0.0, l, w, 1.0, yaw)
        b = Box3D(x0 + math.hypot(l, w) + gap, 0.0, 0.0, l, w, 1.0, yaw)
        dets = [Detection(a, 0.9, 0.5, 0.9), Detection(b, 0.8, 0.5, 0.8)]
        assert nms(dets, 0.0) == [dets[i] for i in naive_nms(dets, 0.0, False)]
        if gap < -1e-9:
            assert nms(dets, 0.0) == dets[:1]

    def test_boxes_far_apart_evaluate_no_iou(self, monkeypatch):
        # circumscribed radii are below 2.8 m, so centres 10 m apart never touch
        xs, ys = np.meshgrid(np.arange(-50.0, 51.0, 10.0), np.arange(-50.0, 51.0, 10.0))
        dets = detections_at(np.random.default_rng(12), zip(xs.ravel(), ys.ravel()))
        calls = count_iou_calls(monkeypatch)
        assert nms(dets, 0.0, class_agnostic=True) == dets
        assert calls == []

    def test_overlapping_pairs_are_still_evaluated(self, monkeypatch):
        dets = crowded_detections(np.random.default_rng(13))
        calls = count_iou_calls(monkeypatch)
        nms(dets, 0.2, class_agnostic=True)
        assert 0 < len(calls) < len(dets)

    @pytest.mark.parametrize("thresh", [-0.5, 1.5, float("nan"), (0.5, 1.2, 0.5)])
    def test_threshold_outside_unit_interval_rejected(self, thresh):
        dets = random_detections(np.random.default_rng(14), 4)
        with pytest.raises(ValidationError, match="NMS IoU threshold"):
            nms(dets, thresh)


def rival_list_nms(dets, iou_thresh, class_agnostic, iou):
    """Reference: NMS that first lists each candidate's rivals (the higher-ranked boxes
    ``_apart`` does not separate from it within the circle mask), then tests a candidate
    against its kept rivals in rank order until one suppresses it. ``iou`` is called as
    ``iou(rival, candidate)``; returns the kept input indices."""
    thresh = np.asarray(iou_thresh, dtype=np.float64)
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].final_score, i))
    boxes = [dets[i].box for i in order]
    classes = [dets[i].class_id for i in order]
    geom = np.array([(b.cx, b.cy, b.l, b.w, b.yaw) for b in boxes]).reshape(-1, 5)
    cx, cy, l, w, _ = geom.T
    reach = np.add.outer(np.hypot(l, w) / 2.0, np.hypot(l, w) / 2.0) * (1.0 + 1e-9)
    can_overlap = np.subtract.outer(cx, cx) ** 2 + np.subtract.outer(cy, cy) ** 2 <= reach * reach
    if not class_agnostic:
        can_overlap &= np.equal.outer(classes, classes)
    later, earlier = divmod(np.flatnonzero(np.tril(can_overlap, -1)), len(boxes))
    meet = ~_apart(geom, later, earlier)
    rivals = [[] for _ in boxes]
    for p, q in zip(later[meet].tolist(), earlier[meet].tolist()):
        rivals[p].append(q)
    limits = [float(thresh)] * len(boxes) if thresh.ndim == 0 else thresh[classes].tolist()
    kept = [False] * len(boxes)
    for p, box in enumerate(boxes):
        kept[p] = not any(kept[q] and iou(boxes[q], box) > limits[p] for q in rivals[p])
    return sorted(i for i, k in zip(order, kept) if k)


class TestNMSCallSequence:
    @pytest.mark.parametrize("class_agnostic", [False, True])
    @pytest.mark.parametrize("thresh", [0.0, 0.2, (0.1, 0.5, 0.8)])
    def test_same_ordered_iou_calls_as_rival_lists(self, monkeypatch, class_agnostic, thresh):
        rng = np.random.default_rng(18)
        for _ in range(3):
            dets = crowded_detections(rng)
            want_calls = []
            want = rival_list_nms(dets, thresh, class_agnostic,
                                  lambda a, b: want_calls.append((a, b)) or rotated_iou_bev(a, b))
            calls = count_iou_calls(monkeypatch)
            assert nms(dets, thresh, class_agnostic) == [dets[i] for i in want]
            assert calls == want_calls and calls


def grid_pairs(geom, classes):
    """The pairs of the full n x n circle test, row-major over (later, earlier): the
    reference for the sweep in ``_overlap_pairs``."""
    cx, cy, l, w, _ = geom.T
    radius = np.hypot(l, w) / 2.0
    reach = np.add.outer(radius, radius) * (1.0 + 1e-9)
    can_overlap = np.subtract.outer(cx, cx) ** 2 + np.subtract.outer(cy, cy) ** 2 <= reach * reach
    if classes is not None:
        can_overlap &= np.equal.outer(classes, classes)
    return divmod(np.flatnonzero(np.tril(can_overlap, -1)), len(geom))


def circles_touch(a, b):
    """The full circle test on one pair of (cx, cy, l, w, yaw) rows."""
    return bool(len(grid_pairs(np.array([a, b]), None)[0]))


def tiny_boxes_in_a_row(rng, n, x_exponents):
    """Boxes of 1e-9 to 1e-3 m in a row that starts at |x| = 10^x_exponents[0] to
    10^x_exponents[1] and runs away from 0, each placed within 2 ulps of x of the last
    position at which the circle test still keeps it with its neighbour."""
    away = math.inf if rng.random() < 0.5 else -math.inf
    x = math.copysign(10.0 ** rng.uniform(*x_exponents), away)
    rows = [(x, 0.0, *10.0 ** rng.uniform(-9.0, -3.0, 2), 0.0)]
    for _ in range(n - 1):
        prev = rows[-1]
        l, w = 10.0 ** rng.uniform(-9.0, -3.0, 2)
        x = prev[0] + math.copysign((math.hypot(prev[2], prev[3]) + math.hypot(l, w)) / 2.0 * (1.0 + 1e-9), away)
        while circles_touch(prev, (x, 0.0, l, w, 0.0)):
            x = math.nextafter(x, away)
        while not circles_touch(prev, (x, 0.0, l, w, 0.0)):
            x = math.nextafter(x, -away)
        for _ in range(int(rng.integers(0, 3))):
            x = math.nextafter(x, rng.choice([-math.inf, math.inf]))
        rows.append((x, 0.0, l, w, rng.uniform(-math.pi, math.pi)))
    rng.shuffle(rows)
    return np.array(rows)


class TestOverlapPairs:
    """The sort-and-sweep along x finds exactly the pairs of the full circle test, in its order."""

    def _check(self, geom, classes):
        for by_class in (None, classes):
            got, want = _overlap_pairs(geom, by_class), grid_pairs(geom, by_class)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
            assert all(g.dtype.kind == "i" for g in got)
        return len(want[0])

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_few_boxes(self, n):
        rng = np.random.default_rng(30 + n)
        for _ in range(20):
            geom = np.column_stack([rng.uniform(-3, 3, (n, 2)), rng.uniform(0.5, 4.0, (n, 2)), rng.uniform(-3, 3, n)])
            self._check(geom, rng.integers(0, 2, n))

    def test_random_layouts(self):
        rng = np.random.default_rng(31)
        pairs = 0
        for _ in range(50):
            n = int(rng.integers(3, 80))
            spread = 10.0 ** rng.uniform(0.0, 2.0)
            geom = np.column_stack([rng.uniform(-spread, spread, (n, 2)), 10.0 ** rng.uniform(-1.0, 1.0, (n, 2)),
                                    rng.uniform(-math.pi, math.pi, n)])
            pairs += self._check(geom, rng.integers(0, 3, n))
        assert pairs > 0

    @pytest.mark.parametrize("n,x_exponents", [(40, (3.0, 6.0)), (3, (3.0, 6.0)), (3, (-6.0, 0.0))])
    def test_tiny_boxes_at_the_circle_bound(self, n, x_exponents):
        rng = np.random.default_rng(32)
        kept = total = 0
        for _ in range(1200 // n):
            geom = tiny_boxes_in_a_row(rng, n, x_exponents)
            kept += self._check(geom, rng.integers(0, 2, len(geom)))
            total += len(geom) - 1
        assert 0 < kept < total  # neighbours on both sides of the circle test's bound

    def test_coincident_centres(self):
        rng = np.random.default_rng(33)
        for n_sites in (1, 3):
            sites = rng.uniform(-1e4, 1e4, (n_sites, 2))
            n = 30
            geom = np.column_stack([sites[rng.integers(0, n_sites, n)], 10.0 ** rng.uniform(-6.0, 1.0, (n, 2)),
                                    rng.uniform(-math.pi, math.pi, n)])
            assert self._check(geom, rng.integers(0, 2, n)) > 0


class TestDetectionRecords:
    def test_repr(self):
        det = Detection(Box3D(1.0, 2.0, 0.5, 4.0, 2.0, 1.5, 0.3, 2), 0.75, 0.5, 0.625)
        assert repr(det) == (
            "Detection(box=Box3D(cx=1.0, cy=2.0, cz=0.5, l=4.0, w=2.0, h=1.5, yaw=0.2999999999999998, class_id=2), "
            "cls_score=0.75, iou_score=0.5, final_score=0.625)"
        )
        assert det.class_id == 2 and det.box.l * det.box.w == 8.0
        with pytest.raises(AttributeError):
            det.final_score = 1.0

    def test_roundtrip(self, tmp_path):
        dets = random_detections(np.random.default_rng(9), 5)
        p = tmp_path / "dets.csv"
        write_detections(dets, p)
        assert read_detections(p) == dets

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("nope\n")
        with pytest.raises(ValidationError):
            read_detections(p)


def _halved(side, stride):
    """The head map side as the grid side halved log2(stride) times, rounding up each time."""
    while stride > 1:
        side, stride = (side + 1) // 2, stride // 2
    return side


def test_head_map_hw_is_the_rounded_up_halving_loop():
    for stride in (1, 2, 4, 8, 16, 32, 64):
        for side in range(1, 2049):
            grid = SimpleNamespace(ny=side, nx=2049 - side)
            assert head_map_hw(grid, stride) == (_halved(side, stride), _halved(2049 - side, stride))


@pytest.mark.parametrize("stride", [0, -2, 3, 6, 12, 48])
def test_head_map_hw_rejects_a_stride_that_is_not_a_power_of_two(stride):
    with pytest.raises(ValidationError, match=re.escape(f"out_stride must be a power of two, got {stride}")):
        head_map_hw(GRID, stride)
