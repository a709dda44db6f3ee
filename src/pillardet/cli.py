"""Command-line front end.

Subcommands: generate, pillarize, encode, fuse, flops, detect, bench,
train-step, init. Exit codes: 0 success, 1 validation, file-system or out-of-memory
error, 2 internal invariant violation. All randomness is confined to explicit --seed flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from .backbone import count_macs, count_params
from .encoder import EncoderParams
from .errors import InvariantViolation, PillarDetError, ValidationError
from .geometry import Box3D, rotated_iou_bev
from .head import Detection, decode_cells, load_head_output
from .losses import diou_loss, focal_loss, iou_branch_loss, reg_l1_loss, render_gaussian_targets, total_loss
from .pillars import pillar_segments
from .pipeline import StageTimes, _dense_forward, encode_pillars, fusion_discrepancy, pool_pillars, run_detect
from .pointcloud import SceneSpec, crop_to_range, generate_scene, load_cloud, save_cloud
from .profiles import BUILTIN, flops_config, load_profile

FUSION_PROBE_BOUND = 1e-4

BOX_FIELDS = ("cx", "cy", "cz", "l", "w", "h", "yaw", "class")
DETECTION_FIELDS = BOX_FIELDS + ("cls_score", "iou_score", "final_score")


def _emit(columns: tuple[str, ...], rows: list[tuple], fmt: str, out_path) -> None:
    """Render rows (tuples in column order) as text, csv or json-lines, to ``out_path``
    or stdout. A csv or text table always starts with its header."""
    cells = [[repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row] for row in rows]
    if fmt == "json-lines":
        lines = [json.dumps(dict(zip(columns, row)), sort_keys=True) for row in rows]
    elif fmt == "csv":
        lines = [",".join(r) for r in (columns, *cells)]
    else:
        widths = [max(map(len, col)) for col in zip(columns, *cells)]
        lines = ["  ".join(c.ljust(n) for c, n in zip(r, widths)) for r in (columns, *cells)]
    text = "".join(ln + "\n" for ln in lines)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _read_csv(path, fields: tuple[str, ...], what: str) -> list[list]:
    """Rows of a table ``_emit`` wrote as csv: the ``class`` column as int, the rest as float."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != ",".join(fields):
        raise ValidationError(f"{path}: missing or unexpected {what} header")
    rows = []
    for ln in lines[1:]:
        try:
            rows.append([int(v) if f == "class" else float(v) for f, v in zip(fields, ln.split(","), strict=True)])
        except ValueError:
            raise ValidationError(f"{path}: malformed {what} record: {ln!r}") from None
    return rows


def write_boxes(boxes: list[Box3D], path) -> None:
    _emit(BOX_FIELDS, boxes, "csv", path)  # a Box3D is a tuple in BOX_FIELDS order


def read_boxes(path) -> list[Box3D]:
    return [Box3D(*row) for row in _read_csv(path, BOX_FIELDS, "box")]


def write_detections(dets: list[Detection], path) -> None:
    rows = [(*d.box, d.cls_score, d.iou_score, d.final_score) for d in dets]
    _emit(DETECTION_FIELDS, rows, "csv", path)


def read_detections(path) -> list[Detection]:
    return [Detection(Box3D(*row[:8]), *row[8:]) for row in _read_csv(path, DETECTION_FIELDS, "detection")]


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _seed(text: str) -> int:
    """An int >= 0: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {seed}")
    return seed


def _load_params(path: str, profile):
    params, arch, _ = ckpt.load_checkpoint(path)
    if arch != profile.arch():
        raise ValidationError(
            f"checkpoint architecture {arch.as_dict()} does not match profile {profile.name!r}"
        )
    return params


def _scene_spec(profile, n_objects: int, points_per_object: int, n_background: int) -> SceneSpec:
    """Scene over the profile's range, with object sizes scaled to its extent."""
    r = profile.grid.range
    extent = min(r.x_max - r.x_min, r.y_max - r.y_min)
    scale = min(1.0, extent / 40.0)  # shrink objects for small desk scenes
    return SceneSpec(
        range=r,
        n_objects=n_objects,
        points_per_object=points_per_object,
        n_background=n_background,
        length_range=(2.0 * scale, 5.0 * scale),
        width_range=(1.2 * scale, 2.4 * scale),
        height_range=(1.2 * scale, min(2.2 * scale, (r.z_max - r.z_min) * 0.8)),
        n_classes=profile.n_classes,
    )


def cmd_generate(args) -> int:
    profile = load_profile(args.profile)
    spec = _scene_spec(profile, args.objects, args.points_per_object, args.background)
    cloud, boxes = generate_scene(spec, args.seed)
    save_cloud(cloud, args.out)
    write_boxes(boxes, str(args.out) + ".boxes.csv")
    print(f"wrote {len(cloud)} points, {len(boxes)} boxes to {args.out}")
    return 0


def cmd_pillarize(args) -> int:
    if args.per_pillar and not args.out:
        raise ValidationError("--per-pillar writes OUT.pillars.csv, so it needs --out")
    profile = load_profile(args.profile)
    cloud = load_cloud(args.cloud)
    if args.crop:
        cloud = crop_to_range(cloud, profile.grid.range)
    _, bounds, ix, iy = pillar_segments(cloud, profile.grid)
    counts = np.diff(bounds)
    sizes, n_pillars = np.unique(counts, return_counts=True)
    summary = {
        "points": len(cloud),
        "pillars": len(counts),
        "max_points_per_pillar": int(counts.max(initial=0)),
        "occupancy_histogram": {str(k): v for k, v in zip(sizes.tolist(), n_pillars.tolist())},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    if args.per_pillar:
        rows = list(zip(ix.tolist(), iy.tolist(), counts.tolist()))
        _emit(("ix", "iy", "count"), rows, "csv", str(args.out) + ".pillars.csv")
    return 0


def cmd_encode(args) -> int:
    profile = load_profile(args.profile)
    cloud = load_cloud(args.cloud)
    if args.checkpoint:
        encoder = _load_params(args.checkpoint, profile).encoder
    else:
        encoder = EncoderParams.identity(profile.encoder_dim)
    ix, iy, counts, feats = encode_pillars(cloud, encoder, profile.grid)
    # ints as Python ints, which json-lines can write; one norm per row, as an axis=1 norm sums in another order
    rows = [
        (x, y, n, float(np.linalg.norm(f)), float(f.max()))
        for x, y, n, f in zip(ix.tolist(), iy.tolist(), counts.tolist(), feats)
    ]
    _emit(("ix", "iy", "count", "feature_l2", "feature_max"), rows, args.format, args.out)
    return 0


def cmd_fuse(args) -> int:
    if args.probes < 1:
        raise ValidationError(f"--probes must be >= 1, got {args.probes}")
    params, arch, _ = ckpt.load_checkpoint(args.checkpoint_in)
    fused = ckpt.fuse_params(params)
    worst = fusion_discrepancy(params, fused, args.probes, args.seed)
    report = {"probes": args.probes, "max_relative_discrepancy": worst, "bound": FUSION_PROBE_BOUND}
    print(json.dumps(report, sort_keys=True))
    if not worst < FUSION_PROBE_BOUND:  # a fused network that fails its probe is not written
        raise InvariantViolation(
            f"fused network deviates from the three-branch one: {worst:.3e} >= {FUSION_PROBE_BOUND}"
        )
    ckpt.save_checkpoint(args.checkpoint_out, fused, arch)
    return 0


def cmd_flops(args) -> int:
    profile = load_profile(args.profile)
    ratio_sets = args.ratios or [(0, 2, 2, 2), (2, 2, 2, 2), (4, 2, 2, 2), (6, 2, 2, 2), (3, 4, 6, 3), (6, 6, 3, 1)]
    rows = []
    for ratios in ratio_sets:
        cfg = flops_config(ratios, profile)
        mac = count_macs(cfg)
        par = count_params(cfg)
        hw = f"{cfg.input_hw[0]}x{cfg.input_hw[1]}"
        rows.append(("-".join(map(str, ratios)), sum(ratios), mac.total / 1e9, mac.per_block[0] / 1e9,
                     par / 1e6, hw))
    _emit(("ratio", "blocks", "gmacs", "slope_gmacs_per_block", "params_m", "input_hw"), rows, args.format, args.out)
    totals = {ratio: gmacs for ratio, _, gmacs, *_ in rows}
    if "6-6-3-1" in totals and "3-4-6-3" in totals:  # a note beside a csv or json-lines stream, not in it
        print(f"equal-16-block totals: {totals['6-6-3-1'] == totals['3-4-6-3']}",
              file=sys.stdout if args.format == "text" else sys.stderr)
    return 0


def cmd_detect(args) -> int:
    profile = load_profile(args.profile)
    cloud = load_cloud(args.cloud)
    params = ckpt.fuse_params(_load_params(args.checkpoint, profile))  # the deployed network, whatever the mode
    inject = load_head_output(args.inject_head) if args.inject_head else None
    dets = run_detect(cloud, params, profile, inject_head=inject)
    write_detections(dets, args.out)
    print(f"wrote {len(dets)} detections to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be >= 1, got {args.repeats}")
    profile = load_profile(args.profile)
    # the deployed network, which is what detect runs on any checkpoint
    params = ckpt.fuse_params(ckpt.new_params(profile.arch(), mode="random", seed=args.seed))
    clouds = [generate_scene(_scene_spec(profile, 0, 0, size), args.seed)[0] for size in args.sizes]
    run_detect(clouds[0], params, profile)  # untimed: the first call carries the process's one-time costs
    rows = []
    for size, cloud in zip(args.sizes, clouds):
        runs = [StageTimes() for _ in range(args.repeats)]
        for times in runs:
            run_detect(cloud, params, profile, times=times)
        for stage in ("encode", "backbone", "head", "post"):
            arr = np.array([getattr(t, stage) for t in runs]) * 1e3
            rows.append((size, stage, float(np.percentile(arr, 50)), float(np.percentile(arr, 90)), float(arr.mean())))
    _emit(("points", "stage", "p50", "p90", "mean"), rows, args.format, args.out)
    return 0


def cmd_train_step(args) -> int:
    profile = load_profile(args.profile)
    cloud = load_cloud(args.cloud)
    boxes = read_boxes(args.boxes)
    if args.checkpoint:
        params = _load_params(args.checkpoint, profile)
    else:
        params = ckpt.new_params(profile.arch(), mode="random", seed=args.seed)
    targets = render_gaussian_targets(boxes, profile.grid, profile.out_stride, profile.n_classes)
    ix, iy, _, feats = encode_pillars(cloud, params.encoder, profile.grid)
    out = _dense_forward(pool_pillars(ix, iy, feats, profile.grid), params)

    cls_loss, _ = focal_loss(out.heatmap, targets.heatmap)
    m = targets.mask
    reg_loss, _ = reg_l1_loss(out.reg[:, m], targets.reg[:, m])
    # the box each centre cell decodes, against its ground truth: the DIoU term and the quality target
    rows, cols, classes = np.array(targets.centers, dtype=np.intp).reshape(-1, 3).T
    pred = decode_cells(out, profile.grid, profile.out_stride, rows, cols, classes)
    iou_loss, _ = iou_branch_loss(out.iou[0, rows, cols], [rotated_iou_bev(p, gt) for p, gt in zip(pred, boxes)])
    diou_vals = [diou_loss(p, gt)[0] for p, gt in zip(pred, boxes)]
    diou_val = float(np.mean(diou_vals)) if diou_vals else 0.0
    total = total_loss(cls_loss, iou_loss, diou_val, reg_loss, profile.loss_weights)
    breakdown = {
        "cls": cls_loss,
        "iou_branch": iou_loss,
        "diou": diou_val,
        "reg": reg_loss,
        "total": total,
        "weights": [profile.loss_weights.cls, profile.loss_weights.iou, profile.loss_weights.reg],
    }
    text = json.dumps(breakdown, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def cmd_init(args) -> int:
    profile = load_profile(args.profile)
    params = ckpt.new_params(profile.arch(), mode=args.mode, seed=args.seed)
    ckpt.save_checkpoint(args.out, params, profile.arch())
    print(f"wrote {args.mode} checkpoint to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: one ``error:`` line and exit 1."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pillardet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--profile", default="desk", help=f"built-in {sorted(BUILTIN)} or a JSON file")
        if fmt:
            p.add_argument("--format", choices=("text", "csv", "json-lines"), default="text")
            p.add_argument("--out", default=None)

    p = sub.add_parser("generate", help="write a synthetic scene (cloud + boxes)")
    common(p, fmt=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--objects", type=int, default=4)
    p.add_argument("--points-per-object", type=int, default=120)
    p.add_argument("--background", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pillarize", help="pillar summary of a cloud")
    common(p, fmt=False)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--crop", action="store_true", help="crop to the profile range first")
    p.add_argument("--per-pillar", action="store_true")
    p.set_defaults(func=cmd_pillarize)

    p = sub.add_parser("encode", help="per-pillar encoded feature summary")
    common(p)
    p.add_argument("--cloud", required=True)
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("fuse", help="fuse a train-mode checkpoint; verify equivalence")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("checkpoint_in")
    p.add_argument("checkpoint_out")
    p.add_argument("--probes", type=int, default=8)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("flops", help="analytic MAC/params table for block ratios")
    common(p)
    p.add_argument("--ratios", action="append", type=_int_list, default=None, metavar="B1,B2,B3,B4")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("detect", help="run the full pipeline on a cloud")
    common(p, fmt=False)
    p.add_argument("--cloud", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inject-head", default=None, help="npz head-output fixture replacing the network")
    p.set_defaults(func=cmd_detect)

    stages = ("per-stage wall-clock percentiles of detect: encode is crop to stage-1 grid, backbone is backbone"
              " + neck + head conv, head is decode, post is rectify + NMS")
    p = sub.add_parser("bench", help=stages, description=stages)
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sizes", type=_int_list, default="2000")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train-step", help="loss breakdown diagnostic on a scene")
    common(p, fmt=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--cloud", required=True)
    p.add_argument("--boxes", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_step)

    p = sub.add_parser("init", help="write a fresh train-mode checkpoint")
    common(p, fmt=False)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--mode", choices=("random", "identity"), default="random")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (MemoryError, ValueError) as e:
        # numpy refuses a size past its index range with "array is too big", before it allocates
        if isinstance(e, ValueError) and not str(e).startswith("array is too big"):
            raise
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except PillarDetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
