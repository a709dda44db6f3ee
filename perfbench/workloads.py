"""Workloads: the inputs each one draws from the seed, its op, and its output checks.

One op is one call into the workload's entry function (``run_detect`` or
``network_forward``). Inputs are written to a work directory by a separate
process before anything is timed, and read back by the measuring process.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pillardet import checkpoint as ckpt
from pillardet.geometry import Box3D, rotated_iou_bev
from pillardet.head import head_map_hw, load_head_output, save_head_output
from pillardet.losses import render_gaussian_targets
from pillardet.pipeline import head_output_from_targets, network_forward, run_detect
from pillardet.pointcloud import SceneSpec, generate_scene, load_cloud, save_cloud
from pillardet.profiles import BUILTIN, load_profile
from stats import tail_percentile

BENCH_DIR = Path(__file__).resolve().parent

# The model is fixed, as a deployed one is; the seed draws the scenes. Seed 0
# is also the checkpoint `pillardet bench` draws by default.
MODEL_SEED = 0
# Kept detections must reproduce a generated box to this absolute tolerance.
BOX_MATCH_TOL = 1e-6
# Same bound as the `fuse` command's probe: max |train - fused| / max |train|.
FUSION_PROBE_BOUND = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    profile: str  # built-in profile name, or a file name in this directory
    path: str  # "detect": run_detect; "inject": run_detect with a head fixture; "dense": network_forward
    n_objects: int
    points_per_object: int
    n_background: int
    n_scenes: int
    # latency_tail_ms's fixed percentile: the highest with TAIL_BEYOND samples
    # after it at half the op count a --seconds 50 run reached on a 2-vCPU VM
    tail_percentile: float
    benchmarked: bool = True  # listed in BENCHMARK.json


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wide-dense",
            "network_forward of the waymo network on a 192x192 canvas: the backbone convs do all the "
            "work, which tests the equal-cost-per-block claim; no pillars, encoder or post-processing",
            "wide_dense_profile.json", "dense", n_objects=8, points_per_object=120, n_background=5000, n_scenes=4,
            tail_percentile=tail_percentile(40),  # ~80 ops in 50 s on 2 vCPUs
        ),
        Workload(
            "crowded-post",
            "nuscenes scenes of 150 five-point objects with the head rendered from their boxes: decode's "
            "per-peak loop and the quadratic rotated-IoU NMS do most of the work; the network is skipped",
            "nuscenes", "inject", n_objects=150, points_per_object=5, n_background=0, n_scenes=8,
            tail_percentile=tail_percentile(50),  # ~130 ops in 50 s on 2 vCPUs
        ),
        Workload(
            "desk-detect",
            "full run_detect with the seeded random fused checkpoint on 20k-point desk scenes; every op "
            "fails today in NMS with 'degenerate zero-area box', so it is reported but not benchmarked",
            "desk", "detect", n_objects=4, points_per_object=120, n_background=20000, n_scenes=4,
            tail_percentile=tail_percentile(100), benchmarked=False,
        ),
    )
}


def profile_arg(w: Workload) -> str:
    """What to hand ``load_profile``: a built-in name or this directory's file."""
    return w.profile if w.profile in BUILTIN else str(BENCH_DIR / w.profile)


def scene_spec(w: Workload, profile) -> SceneSpec:
    """Objects scaled to the range, as ``pillardet generate`` scales them."""
    r = profile.grid.range
    scale = min(1.0, min(r.x_max - r.x_min, r.y_max - r.y_min) / 40.0)
    return SceneSpec(
        range=r,
        n_objects=w.n_objects,
        points_per_object=w.points_per_object,
        n_background=w.n_background,
        length_range=(2.0 * scale, 5.0 * scale),
        width_range=(1.2 * scale, 2.4 * scale),
        height_range=(1.2 * scale, min(2.2 * scale, (r.z_max - r.z_min) * 0.8)),
        n_classes=profile.n_classes,
    )


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def prepare(w: Workload, seed: int, out: Path) -> dict:
    """Write the checkpoint(s) and every input of one run; returns the manifest."""
    from tracer import Spans, front_end

    profile = load_profile(profile_arg(w))
    arch = profile.arch()
    train = ckpt.new_params(arch, mode="random", seed=MODEL_SEED)
    fused = ckpt.fuse_params(train)
    ckpt.save_checkpoint(out / "model.json", fused, arch)
    manifest = {
        "workload": w.name,
        "seed": seed,
        "profile": profile_arg(w),
        "model_seed": MODEL_SEED,
        "checkpoint": "model.json",
        "checkpoint_digest": file_digest(ckpt.blob_path(out / "model.json")),
        "inputs": [],
    }
    if w.path == "dense":
        ckpt.save_checkpoint(out / "model_train.json", train, arch)
        manifest["train_checkpoint"] = "model_train.json"
        manifest["train_checkpoint_digest"] = file_digest(ckpt.blob_path(out / "model_train.json"))
    spec = scene_spec(w, profile)
    for i in range(w.n_scenes):
        scene_seed = seed * 1000 + i
        cloud, boxes = generate_scene(spec, scene_seed)
        entry = {"scene_seed": scene_seed, "points": len(cloud), "boxes": len(boxes)}
        if w.path == "dense":
            _, canvas = front_end(cloud, fused, profile, Spans())
            np.save(out / f"canvas{i}.npy", canvas.data)
            entry["canvas_digest"] = digest(canvas.data)
        else:
            save_cloud(cloud, out / f"scene{i}.bin")
            box_arr = np.array([[b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw, b.class_id] for b in boxes]).reshape(-1, 8)
            np.save(out / f"boxes{i}.npy", box_arr)
            entry["cloud_digest"] = digest(cloud.data)
            entry["boxes_digest"] = digest(box_arr)
        if w.path == "inject":
            targets = render_gaussian_targets(boxes, profile.grid, profile.out_stride, profile.n_classes)
            head = head_output_from_targets(targets)
            save_head_output(head, out / f"head{i}.npz")
            entry["head_digest"] = digest(*head_channels(head))
        manifest["inputs"].append(entry)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


@dataclass
class Input:
    cloud: object = None
    boxes: list | None = None
    head: object = None
    canvas: np.ndarray | None = None


def load_inputs(w: Workload, work: Path) -> list[Input]:
    inputs = []
    for i in range(w.n_scenes):
        if w.path == "dense":
            inputs.append(Input(canvas=np.load(work / f"canvas{i}.npy")))
            continue
        boxes = [Box3D(*(float(v) for v in row[:7]), class_id=int(row[7])) for row in np.load(work / f"boxes{i}.npy")]
        head = load_head_output(work / f"head{i}.npz") if w.path == "inject" else None
        inputs.append(Input(cloud=load_cloud(work / f"scene{i}.bin"), boxes=boxes, head=head))
    return inputs


def make_op(w: Workload, params, profile):
    """The workload's op: one call into its entry function."""
    if w.path == "dense":
        return lambda inp: network_forward(inp.canvas, params, profile)
    if w.path == "inject":
        return lambda inp: run_detect(inp.cloud, params, profile, inject_head=inp.head)
    return lambda inp: run_detect(inp.cloud, params, profile)


def _yaw_gap(a: float, b: float) -> float:
    d = abs(a - b) % (2.0 * math.pi)
    return min(d, 2.0 * math.pi - d)


def _head_cell(b: Box3D, profile) -> tuple[int, int]:
    g = profile.grid
    return (
        math.floor((b.cx - g.range.x_min) / (profile.out_stride * g.pillar_x)),
        math.floor((b.cy - g.range.y_min) / (profile.out_stride * g.pillar_y)),
    )


def _matches(d, boxes, profile) -> bool:
    """The detection reproduces a generated box.

    Boxes whose centres fall in one head cell share that cell's regression
    channels, so a detection there carries the geometry of the box rendered
    last and the class of any box in the cell.
    """
    x = d.box
    for b in boxes:
        close = (
            max(abs(x.cx - b.cx), abs(x.cy - b.cy), abs(x.cz - b.cz), abs(x.l - b.l), abs(x.w - b.w), abs(x.h - b.h))
            <= BOX_MATCH_TOL
            and _yaw_gap(x.yaw, b.yaw) <= BOX_MATCH_TOL
        )
        if close:
            cell = _head_cell(b, profile)
            return any(o.class_id == d.class_id and _head_cell(o, profile) == cell for o in boxes)
    return False


def _nms_violation(dets, profile) -> str | None:
    """The NMS postcondition: no kept pair it compares is above its threshold."""
    thresh = profile.nms_iou
    for i, a in enumerate(dets):
        ra = math.hypot(a.box.l, a.box.w) / 2.0
        for b in dets[i + 1:]:
            if not profile.nms_class_agnostic and a.class_id != b.class_id:
                continue
            # circumscribed circles apart: the footprints cannot overlap
            if math.hypot(a.box.cx - b.box.cx, a.box.cy - b.box.cy) > ra + math.hypot(b.box.l, b.box.w) / 2.0:
                continue
            # NMS tests the lower-scored box (the later one on ties) against the higher
            lower = a if a.final_score < b.final_score else b
            t = float(thresh if np.isscalar(thresh) else thresh[lower.class_id])
            iou = rotated_iou_bev(a.box, b.box)
            if iou > t:
                return f"kept pair above NMS threshold (IoU {iou:.3f} > {t})"
    return None


def check_output(w: Workload, profile, inp: Input, out) -> str | None:
    """Reason the op's output is wrong, or None when every check passes."""
    if w.path == "dense":
        hw = head_map_hw(profile.grid, profile.out_stride)
        for name in ("heatmap", "offset", "z", "size", "yaw", "iou"):
            arr = getattr(out, name)
            if arr.shape[1:] != hw:
                return f"head {name} has map {arr.shape[1:]}, expected {hw}"
            if not np.isfinite(arr).all():
                return f"non-finite head {name}"
        return None
    for d in out:
        b = d.box
        vals = (b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw, d.cls_score, d.iou_score, d.final_score)
        if not all(math.isfinite(v) for v in vals):
            return "non-finite detection"
    if len(out) > profile.max_detections:
        return f"{len(out)} detections exceed max_detections {profile.max_detections}"
    if w.path == "inject":
        for d in out:
            if not _matches(d, inp.boxes, profile):
                return "kept detection matches no generated box"
    return _nms_violation(out, profile)


def head_channels(out) -> list[np.ndarray]:
    return [out.heatmap, out.offset, out.z, out.size, out.yaw, out.iou]


def fusion_gap(canvas, train_params, fused_params, profile) -> float:
    """Max relative gap between the train-mode and fused forwards of one canvas."""
    a = np.concatenate(head_channels(network_forward(canvas, train_params, profile)))
    b = np.concatenate(head_channels(network_forward(canvas, fused_params, profile)))
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(a))), 1e-6)


def fingerprint(out) -> str:
    """Digest of an op's output; equal exactly when the outputs are bitwise equal."""
    if isinstance(out, list):
        rows = [
            (d.box.cx, d.box.cy, d.box.cz, d.box.l, d.box.w, d.box.h, d.box.yaw, d.class_id,
             d.cls_score, d.iou_score, d.final_score)
            for d in out
        ]
        return digest(np.array(rows, dtype=np.float64).reshape(-1, 11))
    return digest(*head_channels(out))

