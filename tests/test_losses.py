import math

import numpy as np
import pytest

from pillardet.errors import ValidationError
from pillardet.geometry import Box3D, rotated_iou_bev
from pillardet.head import head_map_hw
from pillardet.losses import (
    LossWeights,
    diou_loss,
    draw_gaussian,
    focal_loss,
    gaussian_radius,
    iou_branch_loss,
    reg_l1_loss,
    render_gaussian_targets,
    total_loss,
)
from pillardet.pillars import GridConfig
from pillardet.pointcloud import Range3D

GRID = GridConfig(Range3D(-6.4, 6.4, -6.4, 6.4, -2.0, 2.0), 0.2, 0.2)
STRIDE = 8


class TestTargets:
    def test_single_box_unit_peak(self):
        box = Box3D(0.5, -1.0, 0.0, 3.0, 1.5, 1.5, 0.4, class_id=1)
        t = render_gaussian_targets([box], GRID, STRIDE, n_classes=3)
        assert t.heatmap.shape == (3, *head_map_hw(GRID, STRIDE))
        assert t.heatmap[1].max() == 1.0
        assert np.count_nonzero(t.heatmap[1] == 1.0) == 1
        assert not t.heatmap[0].any() and not t.heatmap[2].any()

    def test_two_distant_boxes_two_peaks(self):
        boxes = [
            Box3D(-4.0, -4.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0),
            Box3D(4.0, 4.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0),
        ]
        t = render_gaussian_targets(boxes, GRID, STRIDE, n_classes=1)
        assert np.count_nonzero(t.heatmap[0] == 1.0) == 2

    def test_coincident_boxes_max_composition(self):
        box = Box3D(1.0, 1.0, 0.0, 3.0, 2.0, 1.0, 0.2, 0)
        t1 = render_gaussian_targets([box], GRID, STRIDE, n_classes=1)
        t2 = render_gaussian_targets([box, box], GRID, STRIDE, n_classes=1)
        np.testing.assert_array_equal(t1.heatmap, t2.heatmap)
        assert np.count_nonzero(t2.heatmap[0] == 1.0) == 1

    def test_regression_channels(self):
        box = Box3D(0.5, -1.0, 0.3, 3.0, 1.5, 1.2, 0.4, 0)
        t = render_gaussian_targets([box], GRID, STRIDE, n_classes=1)
        ((row, col, _),) = t.centers
        assert t.mask[row, col]
        u = (box.cx - GRID.range.x_min) / (STRIDE * GRID.pillar_x)
        assert t.reg[0, row, col] == pytest.approx(u - col - 0.5)
        assert t.reg[2, row, col] == pytest.approx(0.3)
        np.testing.assert_allclose(t.reg[3:6, row, col], np.log([3.0, 1.5, 1.2]))
        assert t.reg[6, row, col] == pytest.approx(math.sin(0.4))

    def test_center_outside_grid_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            render_gaussian_targets([Box3D(100.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 0)], GRID, STRIDE, 1)

    def test_bad_class_rejected(self):
        with pytest.raises(ValidationError, match="class"):
            render_gaussian_targets([Box3D(0.0, 0.0, 0.0, 2.0, 1.0, 1.0, 0.0, 5)], GRID, STRIDE, 2)

    def test_huge_box_leaves_one_positive(self):
        # the radius is so large that exp rounds every cell of the map to 1.0
        box = Box3D(0.5, -1.0, 0.0, 1e30, 1e30, 1.0, 0.0, class_id=2)
        t = render_gaussian_targets([box], GRID, STRIDE, n_classes=3)
        ((row, col, _),) = t.centers
        assert np.count_nonzero(t.heatmap[2] == 1.0) == 1 and t.heatmap[2, row, col] == 1.0
        assert t.heatmap[2].min() == np.nextafter(1.0, 0.0)

    def test_radius_positive_for_reasonable_boxes(self):
        assert gaussian_radius(6.0, 10.0) > 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_gaussian_equals_full_patch_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        got = rng.uniform(0.0, 1.0, (9, 13))
        want = got.copy()
        for _ in range(40):
            row, col, radius = int(rng.integers(9)), int(rng.integers(13)), int(rng.integers(0, 20))
            draw_gaussian(got, col, row, radius)
            full_patch_gaussian(want, col, row, radius)
        assert got.tobytes() == want.tobytes()


def full_patch_gaussian(heatmap, col, row, radius):
    """Reference: the whole (2 radius + 1)^2 patch, cut to the map after it is built."""
    h, w = heatmap.shape
    sigma = (2.0 * radius + 1.0) / 6.0
    ys, xs = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    patch = np.exp(-(xs * xs + ys * ys) / (2.0 * sigma * sigma))
    top, bottom = min(row, radius), min(h - 1 - row, radius)
    left, right = min(col, radius), min(w - 1 - col, radius)
    view = heatmap[row - top : row + bottom + 1, col - left : col + right + 1]
    np.maximum(view, patch[radius - top : radius + bottom + 1, radius - left : radius + right + 1], out=view)


def fd_grad(fn, x, h=1e-4):
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(x.shape):
        for sign in (1.0, -1.0):
            bumped = x.astype(np.float64).copy()
            bumped[idx] += sign * h
            g[idx] += sign * fn(bumped)
    return g / (2 * h)


def rel_err(analytic, fd):
    scale = max(float(np.max(np.abs(fd))), 1e-6)
    return float(np.max(np.abs(analytic - fd))) / scale


class TestFocal:
    def target(self):
        t = np.zeros((2, 4, 4))
        t[0, 1, 1] = 1.0
        t[1, 2, 3] = 1.0
        t[0, 1, 2] = 0.6  # penalty-reduced neighbour
        return t

    def test_confident_correct_prediction_near_zero(self):
        t = self.target()
        pred = np.where(t == 1.0, 1.0 - 1e-4, 1e-4)
        loss, _ = focal_loss(pred, t)
        assert loss < 1e-3

    def test_symmetric_cells_contribute_equally(self):
        t = np.zeros((1, 2, 2))
        pred = np.full((1, 2, 2), 0.3)
        loss, grad = focal_loss(pred, t)
        assert np.all(grad == grad[0, 0, 0])

    def test_positive_and_zero_only_at_match(self):
        t = self.target()
        pred = np.clip(t, 1e-4, 1 - 1e-4)
        loss, _ = focal_loss(pred, t)
        assert loss >= 0.0
        worse, _ = focal_loss(np.full_like(t, 0.5), t)
        assert worse > loss

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t = np.zeros((2, 3, 3))
        t[0, 1, 1] = 1.0
        t[1, 0, 2] = 1.0
        t[0, 1, 0] = 0.4
        pred = rng.uniform(0.02, 0.98, t.shape)
        _, grad = focal_loss(pred, t)
        fd = fd_grad(lambda p: focal_loss(p, t)[0], pred)
        assert rel_err(grad, fd) < 1e-4


class TestRegL1:
    def test_zero_at_match(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        loss, _ = reg_l1_loss(x, x)
        assert loss == 0.0

    def test_half_off_single_channel(self):
        loss, _ = reg_l1_loss(np.array([[0.5]]), np.array([[0.0]]))
        assert loss == 0.5

    def test_gradient_is_sign_over_count(self):
        pred = np.array([[1.0, -2.0], [0.5, 3.0]])
        target = np.zeros((2, 2))
        _, grad = reg_l1_loss(pred, target)
        np.testing.assert_array_equal(grad, np.sign(pred) / 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed + 10)
        target = rng.normal(size=(4, 6))
        pred = target + rng.choice([-1.0, 1.0], size=target.shape) * rng.uniform(0.05, 1.0, target.shape)
        _, grad = reg_l1_loss(pred, target)
        fd = fd_grad(lambda p: reg_l1_loss(p, target)[0], pred)
        assert rel_err(grad, fd) < 1e-4

    def test_zero_matches_rejected(self):
        with pytest.raises(ValidationError):
            reg_l1_loss(np.zeros((0, 3)), np.zeros((0, 3)))


class TestIoUBranch:
    def test_midpoint_target_zero(self):
        loss, _ = iou_branch_loss(np.array([0.0]), np.array([0.5]))
        assert loss == 0.0

    def test_perfect_prediction(self):
        loss, _ = iou_branch_loss(np.array([1.0]), np.array([1.0]))
        assert loss == 0.0

    def test_closed_form_case(self):
        loss, _ = iou_branch_loss(np.array([0.1]), np.array([0.75]))
        assert loss == pytest.approx(0.4)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            iou_branch_loss(np.array([1.5]), np.array([0.5]))
        with pytest.raises(ValidationError):
            iou_branch_loss(np.array([0.5]), np.array([1.5]))

    @pytest.mark.parametrize("seed", range(3))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 20)
        gt = rng.uniform(0.0, 1.0, 6)
        pred = np.clip(2 * gt - 1 + rng.choice([-1.0, 1.0], 6) * rng.uniform(0.05, 0.3, 6), -0.95, 0.95)
        _, grad = iou_branch_loss(pred, gt)
        fd = fd_grad(lambda p: iou_branch_loss(np.clip(p, -1, 1), gt)[0], pred)
        assert rel_err(grad, fd) < 1e-4


def box_from_vec(vec, template):
    return Box3D(vec[0], vec[1], template.cz, vec[2], vec[3], template.h, vec[4], template.class_id)


def vec_of(box):
    return np.array([box.cx, box.cy, box.l, box.w, box.yaw])


def diou_of_vec(vec, gt, template):
    return diou_loss(box_from_vec(vec, template), gt)[0]


def stable_pair(rng, axis_aligned=False, h=1e-4):
    """Overlapping pair whose clip combinatorics are stable under +/-2h bumps."""
    for _ in range(500):
        if axis_aligned:
            yaw_p = yaw_g = 0.0
        else:
            yaw_p, yaw_g = rng.uniform(-math.pi, math.pi, 2)
        pred = Box3D(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 0.0,
                     rng.uniform(1.5, 4.0), rng.uniform(1.0, 3.0), 1.0, yaw_p)
        gt = Box3D(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), 0.0,
                   rng.uniform(1.5, 4.0), rng.uniform(1.0, 3.0), 1.0, yaw_g)
        if rotated_iou_bev(pred, gt) < 0.15:
            continue
        base = _clip_signature(pred, gt)
        vec = vec_of(pred)
        stable = True
        for idx in range(5):
            for sign in (1.0, -1.0):
                bumped = vec.copy()
                bumped[idx] += sign * 2 * h
                if _clip_signature(box_from_vec(bumped, pred), gt) != base:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            return pred, gt
    raise AssertionError("could not build a stable box pair")


def _clip_signature(pred, gt):
    from pillardet.geometry import _clip_tracked, _corners, bev_corners

    poly, _ = _clip_tracked(_corners(pred), _corners(gt))
    corners = np.vstack([bev_corners(pred), bev_corners(gt)])
    return (len(poly), int(np.argmax(corners[:, 0])), int(np.argmin(corners[:, 0])),
            int(np.argmax(corners[:, 1])), int(np.argmin(corners[:, 1])))


class TestDIoU:
    def test_identical_boxes_zero(self):
        b = Box3D(1.0, -2.0, 0.0, 3.0, 1.5, 1.0, 0.7)
        loss, _ = diou_loss(b, b)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            a = Box3D(rng.uniform(-5, 5), rng.uniform(-5, 5), 0, rng.uniform(0.5, 4),
                      rng.uniform(0.5, 4), 1, rng.uniform(-math.pi, math.pi))
            b = Box3D(rng.uniform(-5, 5), rng.uniform(-5, 5), 0, rng.uniform(0.5, 4),
                      rng.uniform(0.5, 4), 1, rng.uniform(-math.pi, math.pi))
            loss, _ = diou_loss(a, b)
            assert 0.0 <= loss < 2.0

    def test_axis_aligned_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = Box3D(rng.uniform(-2, 2), rng.uniform(-2, 2), 0, rng.uniform(1, 4), rng.uniform(1, 3), 1, 0.0)
            b = Box3D(rng.uniform(-2, 2), rng.uniform(-2, 2), 0, rng.uniform(1, 4), rng.uniform(1, 3), 1, 0.0)
            ox = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2) - max(a.cx - a.l / 2, b.cx - b.l / 2))
            oy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2) - max(a.cy - a.w / 2, b.cy - b.w / 2))
            inter = ox * oy
            iou = inter / (a.l * a.w + b.l * b.w - inter)
            ew = max(a.cx + a.l / 2, b.cx + b.l / 2) - min(a.cx - a.l / 2, b.cx - b.l / 2)
            eh = max(a.cy + a.w / 2, b.cy + b.w / 2) - min(a.cy - a.w / 2, b.cy - b.w / 2)
            d2 = (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2
            want = 1.0 - iou + d2 / (ew * ew + eh * eh)
            assert diou_loss(a, b)[0] == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_axis_aligned_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 40)
        pred, gt = stable_pair(rng, axis_aligned=True)
        _, grad = diou_loss(pred, gt)
        fd = fd_grad(lambda v: diou_of_vec(v, gt, pred), vec_of(pred))
        assert rel_err(grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_rotated_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 50)
        pred, gt = stable_pair(rng)
        _, grad = diou_loss(pred, gt)
        fd = fd_grad(lambda v: diou_of_vec(v, gt, pred), vec_of(pred))
        assert rel_err(grad, fd) < 1e-3


class TestTotal:
    def test_all_zero(self):
        assert total_loss(0.0, 0.0, 0.0, 0.0, LossWeights()) == 0.0

    def test_default_weights_arithmetic(self):
        assert total_loss(1.0, 1.0, 1.0, 1.0, LossWeights(1.0, 1.0, 0.25)) == pytest.approx(2.5)

    def test_zero_reg_weight_ignores_regression(self):
        w = LossWeights(1.0, 1.0, 0.0)
        assert total_loss(0.3, 0.4, 123.0, 456.0, w) == pytest.approx(0.7)

    def test_linear_in_each_weight(self):
        parts = (0.5, 0.25, 0.75, 1.25)
        base = total_loss(*parts, LossWeights(1.0, 1.0, 1.0))
        doubled_cls = total_loss(*parts, LossWeights(2.0, 1.0, 1.0))
        assert doubled_cls - base == pytest.approx(0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            total_loss(float("nan"), 0.0, 0.0, 0.0, LossWeights())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            LossWeights(-1.0, 1.0, 0.25)

    @pytest.mark.parametrize("weights", [(math.nan, 1.0, 0.25), (1.0, math.inf, 0.25), (1.0, 1.0, -math.inf)])
    def test_non_finite_weight_rejected(self, weights):
        with pytest.raises(ValidationError, match="loss_weights must be finite"):
            LossWeights(*weights)
