"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from pillardet.backbone import BackboneConfig, backbone_forward, build_backbone, fuse_backbone
from pillardet.checkpoint import new_params
from pillardet.encoder import EncoderParams, encode_pillar, encoder_backward
from pillardet.geometry import Box3D, bev_corners, rotated_iou_bev
from pillardet.head import nms
from pillardet.losses import (
    diou_loss,
    focal_loss,
    iou_branch_loss,
    reg_l1_loss,
    render_gaussian_targets,
)
from pillardet.nn import fuse_rep_block, fused_forward, random_rep_block, rep_forward
from pillardet.pillars import assign_pillars
from pillardet.pipeline import head_output_from_targets, run_detect
from pillardet.pointcloud import PointCloud, SceneSpec, generate_scene
from pillardet.profiles import DESK, flops_config
from pillardet.backbone import count_macs, count_params

from test_encoder import _param, _replace as _enc_replace, stable_instance
from test_head import naive_nms, random_detections
from test_losses import diou_of_vec, fd_grad, rel_err, stable_pair, vec_of

REFERENCE_DELTA_MACS = 77.1e9


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert ok, detail


def rel_discrepancy(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-6)
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64)))) / scale


def test_criterion_1_fusion_equivalence():
    rng = np.random.default_rng(101)
    worst_block = 0.0
    for _ in range(1000):
        ci = int(rng.integers(1, 9))
        same = rng.random() < 0.5
        co = ci if same else int(rng.integers(1, 9))
        stride = int(rng.choice([1, 2]))
        block = random_rep_block(rng, ci, co, stride)
        hw = int(rng.integers(4, 10))
        x = rng.normal(size=(ci, hw, hw)).astype(np.float32)
        worst_block = max(worst_block, rel_discrepancy(rep_forward(x, block), fused_forward(x, fuse_rep_block(block))))

    worst_net = 0.0
    for seed in range(8):
        net_rng = np.random.default_rng(200 + seed)
        blocks = tuple(int(net_rng.integers(0, 3)) for _ in range(4))
        base = int(net_rng.choice([4, 8]))
        cfg = BackboneConfig(
            stage_blocks=blocks,
            stage_channels=(base, 2 * base, 4 * base, 8 * base),
            in_channels=int(net_rng.integers(2, 9)),
            input_hw=(16, 16),
        )
        params = build_backbone(cfg, net_rng)
        fused = fuse_backbone(params)
        x = net_rng.normal(size=(cfg.in_channels, 16, 16)).astype(np.float32)
        for a, b in zip(backbone_forward(x, params), backbone_forward(x, fused)):
            worst_net = max(worst_net, rel_discrepancy(a, b))

    report(
        1,
        worst_block < 1e-5 and worst_net < 1e-4,
        f"fusion equivalence: block max rel {worst_block:.2e} (< 1e-5), "
        f"backbone max rel {worst_net:.2e} (< 1e-4) over 1000 blocks + 8 backbones",
    )


def test_criterion_2_flop_table():
    totals = {}
    for blocks in ((0, 2, 2, 2), (2, 2, 2, 2), (4, 2, 2, 2), (6, 2, 2, 2),
                   (2, 0, 2, 2), (2, 4, 2, 2), (2, 2, 0, 2), (2, 2, 4, 2),
                   (2, 2, 2, 0), (2, 2, 2, 4), (6, 6, 3, 1), (3, 4, 6, 3)):
        totals[blocks] = count_macs(flops_config(blocks)).total

    deltas = {
        totals[(2, 2, 2, 2)] - totals[(0, 2, 2, 2)],
        totals[(4, 2, 2, 2)] - totals[(2, 2, 2, 2)],
        totals[(2, 2, 2, 2)] - totals[(2, 0, 2, 2)],
        totals[(2, 4, 2, 2)] - totals[(2, 2, 2, 2)],
        totals[(2, 2, 2, 2)] - totals[(2, 2, 0, 2)],
        totals[(2, 2, 4, 2)] - totals[(2, 2, 2, 2)],
        totals[(2, 2, 2, 2)] - totals[(2, 2, 2, 0)],
        totals[(2, 2, 2, 4)] - totals[(2, 2, 2, 2)],
    }
    identical = len(deltas) == 1
    delta = next(iter(deltas))
    within_1pct = abs(delta - REFERENCE_DELTA_MACS) / REFERENCE_DELTA_MACS < 0.01
    equal_16 = totals[(6, 6, 3, 1)] == totals[(3, 4, 6, 3)]
    report(
        2,
        identical and within_1pct and equal_16,
        f"flop table: per-2-block delta identical across stages ({identical}), "
        f"delta {delta / 1e9:.2f}G within 1% of {REFERENCE_DELTA_MACS / 1e9:.1f}G ({within_1pct}), "
        f"16-block totals equal exactly ({equal_16}, {totals[(6, 6, 3, 1)] / 1e9:.1f}G)",
    )


def test_criterion_3_encoder_invariants():
    rng = np.random.default_rng(103)
    worst_sum = 0.0
    worst_perm = 0.0
    exact_mean = True
    for _ in range(100):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 65))
        aug = rng.normal(0.0, 1.5, (n, 11))
        params = EncoderParams.random(rng, d)
        feat = encode_pillar(aug, params)
        worst_sum = max(worst_sum, float(np.max(np.abs(feat.scores.sum(axis=0) - 1.0))))
        exact_mean &= np.array_equal(feat.f, (feat.f_max + feat.f_att) / 2.0)
        for _ in range(3):
            shuffled = encode_pillar(aug[rng.permutation(n)], params)
            worst_perm = max(worst_perm, float(np.max(np.abs(shuffled.f - feat.f))))

    degenerate = True
    for _ in range(20):
        aug = rng.normal(size=(1, 11))
        params = EncoderParams.random(rng, int(rng.integers(1, 33)))
        feat = encode_pillar(aug, params)
        degenerate &= np.array_equal(feat.f_max, feat.f_att)

    report(
        3,
        worst_sum < 1e-6 and worst_perm < 1e-6 and exact_mean and degenerate,
        f"encoder invariants: score-sum dev {worst_sum:.2e} (< 1e-6), permutation dev "
        f"{worst_perm:.2e} (< 1e-6), f == mean(max, att) exactly ({exact_mean}), "
        f"single-point pillars give f_max == f_att ({degenerate})",
    )


def test_criterion_4_gradient_checks():
    h = 1e-4
    worst = {}

    worst_enc = 0.0
    for seed in range(100):
        aug, p = stable_instance(seed, n_max=6, d_max=8)
        rng = np.random.default_rng(seed)
        upstream = rng.normal(size=p.dim)
        g = encoder_backward(aug, p, upstream)

        fd = fd_grad(lambda inputs: float(upstream @ encode_pillar(inputs, p).f), aug, h)
        worst_enc = max(worst_enc, rel_err(g.inputs, fd))
        for field in ("weight", "score_weight", "bias", "norm_gamma"):
            base = _param(p, field)
            fd_p = np.zeros_like(base)
            for idx in np.ndindex(base.shape):
                for sign in (1.0, -1.0):
                    bumped = base.copy()
                    bumped[idx] += sign * h
                    fd_p[idx] += sign * float(upstream @ encode_pillar(aug, _enc_replace(p, field, bumped)).f)
            fd_p /= 2 * h
            worst_enc = max(worst_enc, rel_err(getattr(g, field), fd_p))
    worst["encoder"] = worst_enc

    worst_focal = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        t = np.zeros((2, 3, 3))
        t[0, rng.integers(3), rng.integers(3)] = 1.0
        t[1, rng.integers(3), rng.integers(3)] = 0.5
        pred = rng.uniform(0.02, 0.98, t.shape)
        _, grad = focal_loss(pred, t)
        worst_focal = max(worst_focal, rel_err(grad, fd_grad(lambda q: focal_loss(q, t)[0], pred, h)))
    worst["focal"] = worst_focal

    worst_l1 = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        target = rng.normal(size=(3, 4))
        pred = target + rng.choice([-1.0, 1.0], target.shape) * rng.uniform(0.05, 1.0, target.shape)
        _, grad = reg_l1_loss(pred, target)
        worst_l1 = max(worst_l1, rel_err(grad, fd_grad(lambda q: reg_l1_loss(q, target)[0], pred, h)))
    worst["reg_l1"] = worst_l1

    worst_iou = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        gt = rng.uniform(0.0, 1.0, 5)
        pred = np.clip(2 * gt - 1 + rng.choice([-1.0, 1.0], 5) * rng.uniform(0.05, 0.3, 5), -0.95, 0.95)
        _, grad = iou_branch_loss(pred, gt)
        worst_iou = max(
            worst_iou, rel_err(grad, fd_grad(lambda q: iou_branch_loss(np.clip(q, -1, 1), gt)[0], pred, h))
        )
    worst["iou_branch"] = worst_iou

    worst_axis = 0.0
    for seed in range(100):
        pred, gt = stable_pair(np.random.default_rng(4000 + seed), axis_aligned=True)
        _, grad = diou_loss(pred, gt)
        fd = fd_grad(lambda v: diou_of_vec(v, gt, pred), vec_of(pred), h)
        worst_axis = max(worst_axis, rel_err(grad, fd))
    worst["diou_axis"] = worst_axis

    worst_rot = 0.0
    for seed in range(100):
        pred, gt = stable_pair(np.random.default_rng(5000 + seed))
        _, grad = diou_loss(pred, gt)
        fd = fd_grad(lambda v: diou_of_vec(v, gt, pred), vec_of(pred), h)
        worst_rot = max(worst_rot, rel_err(grad, fd))
    worst["diou_rotated"] = worst_rot

    tight = {k: v for k, v in worst.items() if k != "diou_rotated"}
    ok = max(tight.values()) < 1e-4 and worst["diou_rotated"] < 1e-3
    report(
        4,
        ok,
        "gradient checks (100 instances each, central differences): "
        + ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
        + " (tight < 1e-4, rotated DIoU < 1e-3)",
    )


def test_criterion_5_geometry_oracles():
    rng = np.random.default_rng(105)
    worst_mc = 0.0
    for i in range(200):
        a = Box3D(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0,
                  rng.uniform(0.8, 4.0), rng.uniform(0.8, 3.0), 1.0, rng.uniform(-math.pi, math.pi))
        b = Box3D(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), 0.0,
                  rng.uniform(0.8, 4.0), rng.uniform(0.8, 3.0), 1.0, rng.uniform(-math.pi, math.pi))
        exact = rotated_iou_bev(a, b)
        mc = _mc_iou(a, b, n=1_000_000, seed=i)
        worst_mc = max(worst_mc, abs(exact - mc))

    mismatches = 0
    n_sets = 1000
    for trial in range(n_sets):
        set_rng = np.random.default_rng(6000 + trial)
        dets = random_detections(set_rng, int(set_rng.integers(2, 11)))
        agnostic = bool(set_rng.random() < 0.5)
        thresh = float(set_rng.uniform(0.1, 0.8))
        got = nms(dets, thresh, class_agnostic=agnostic)
        want = [dets[i] for i in naive_nms(dets, thresh, agnostic)]
        mismatches += got != want

    report(
        5,
        worst_mc < 5e-3 and mismatches == 0,
        f"geometry oracles: rotated IoU vs 1e6-sample Monte Carlo max |diff| {worst_mc:.2e} "
        f"(< 5e-3, 200 pairs); NMS keep-set mismatches {mismatches}/{n_sets}",
    )


def _mc_iou(a, b, n, seed):
    rng = np.random.default_rng(seed)
    corners = np.vstack([bev_corners(a), bev_corners(b)])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = rng.uniform(lo, hi, size=(n, 2))

    def inside(box):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx = pts[:, 0] - box.cx
        dy = pts[:, 1] - box.cy
        return (np.abs(c * dx + s * dy) <= box.l / 2) & (np.abs(-s * dx + c * dy) <= box.w / 2)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    return np.count_nonzero(in_a & in_b) / union if union else 0.0


def test_criterion_6_pillarization_oracle():
    from pillardet.pillars import GridConfig
    from pillardet.pointcloud import Range3D

    grid = GridConfig(Range3D(-20.0, 20.0, -20.0, 20.0, -2.0, 4.0), 0.25, 0.4)
    bad = 0
    for trial in range(100):
        rng = np.random.default_rng(7000 + trial)
        data = np.zeros((10_000, 5))
        data[:, 0] = rng.uniform(-20.0, 20.0, 10_000)
        data[:, 1] = rng.uniform(-20.0, 20.0, 10_000)
        data[:, 2] = rng.uniform(-2.0, 4.0, 10_000)
        cloud = PointCloud(data)
        pillars = assign_pillars(cloud, grid)

        groups = {}
        for i in range(len(cloud)):
            ix = min(int(math.floor((data[i, 0] - grid.range.x_min) / grid.pillar_x)), grid.nx - 1)
            iy = min(int(math.floor((data[i, 1] - grid.range.y_min) / grid.pillar_y)), grid.ny - 1)
            groups.setdefault((iy, ix), []).append(i)
        same = len(pillars) == len(groups) and all(
            groups.get((p.iy, p.ix), None) == list(p.point_indices) for p in pillars
        )
        total = sum(p.count for p in pillars)
        partition = total == len(cloud) and np.array_equal(
            np.sort(np.concatenate([p.point_indices for p in pillars])), np.arange(len(cloud))
        )
        bad += not (same and partition)

    report(6, bad == 0, f"pillarization vs brute-force grouping: {100 - bad}/100 clouds identical, partition holds")


def test_criterion_7_decode_fixture():
    params = new_params(DESK.arch(), mode="identity")
    cell = DESK.out_stride * DESK.grid.pillar_x
    checked = 0
    seed = 0
    while checked < 5:
        seed += 1
        spec = SceneSpec(
            range=DESK.grid.range, n_objects=3, points_per_object=40, n_background=100,
            length_range=(1.2, 2.2), width_range=(0.8, 1.4), height_range=(0.8, 1.6),
            n_classes=DESK.n_classes,
        )
        cloud, boxes = generate_scene(spec, seed)
        targets = render_gaussian_targets(boxes, DESK.grid, DESK.out_stride, DESK.n_classes)
        if len(set(targets.centers)) < len(boxes):
            continue  # two boxes share a head cell; not a valid fixture
        if any(
            rotated_iou_bev(a, b) > 0.3 for i, a in enumerate(boxes) for b in boxes[i + 1 :]
        ):
            continue
        dets = run_detect(cloud, params, DESK, inject_head=head_output_from_targets(targets))
        assert len(dets) == len(boxes), f"expected {len(boxes)} detections, got {len(dets)}"
        for b in boxes:
            near = [
                d for d in dets
                if d.class_id == b.class_id and math.hypot(d.box.cx - b.cx, d.box.cy - b.cy) <= cell / 2
            ]
            assert near, f"no detection within half a cell of {b}"
            d = near[0]
            assert math.isclose(d.box.l, b.l, rel_tol=1e-6, abs_tol=1e-6)
            assert math.isclose(d.box.w, b.w, rel_tol=1e-6, abs_tol=1e-6)
            assert math.isclose(d.box.h, b.h, rel_tol=1e-6, abs_tol=1e-6)
            dyaw = abs(d.box.yaw - b.yaw)
            assert min(dyaw, abs(dyaw - 2 * math.pi)) < 1e-6
        checked += 1
    report(7, True, f"decode fixture: {checked} scenes of planted boxes decoded back through the "
                    "full pipeline within half a cell and 1e-6 in size/yaw")


def test_criterion_8_parameter_count():
    ours = count_params(flops_config((6, 6, 3, 1)))
    ref = count_params(flops_config((3, 4, 6, 3)))
    ratio = ours / ref
    ok = ours < ref and abs(ratio - 0.5) / 0.5 < 0.05
    report(
        8,
        ok,
        f"parameter count: (6,6,3,1) {ours / 1e6:.2f}M < (3,4,6,3) {ref / 1e6:.2f}M, "
        f"ratio {ratio:.4f} within 5% of 0.5",
    )
