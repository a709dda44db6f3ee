"""Layer-by-layer drivers that time each public call from outside the library.

They make the same calls, in the same order and with the same arguments, as
``run_detect`` / ``network_forward``, so their outputs must be bitwise equal
to those functions' outputs; the benchmark checks that on every traced op.
The library itself carries no instrumentation.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import pillardet.head as head_module
from pillardet.backbone import BackboneConfig, count_macs, neck_fuse
from pillardet.encoder import encode_pillar
from pillardet.geometry import rotated_iou_bev
from pillardet.head import decode, head_forward, head_map_hw, nms, rectify_detections
from pillardet.nn import maxpool2, unit_forward
from pillardet.pillars import assign_pillars, augment_points, scatter
from pillardet.pointcloud import crop_to_range

N_STAGES = 4

# Per-layer metrics of a traced run, with their units; a layer that the
# workload's op never calls reports 0.
PER_LAYER_UNITS = {
    "pointcloud.crop_ms": "ms",
    "pointcloud.points_in": "count",
    "pointcloud.points_kept": "count",
    "pillars.assign_ms": "ms",
    "pillars.augment_ms": "ms",
    "pillars.scatter_ms": "ms",
    "pillars.count": "count",
    "pillars.max_points": "count",
    "encoder.encode_ms": "ms",
    "encoder.us_per_pillar": "us",
    "nn.canvas_pool_ms": "ms",
    "backbone.stem_ms": "ms",
    **{f"backbone.transition{i}_ms": "ms" for i in range(2, N_STAGES + 1)},
    **{f"backbone.stage{i}_ms": "ms" for i in range(1, N_STAGES + 1)},
    **{f"backbone.stage{i}.conv_ms": "ms" for i in range(1, N_STAGES + 1)},
    **{f"backbone.stage{i}.gmac_per_s": "GMAC/s" for i in range(1, N_STAGES + 1)},
    "backbone.conv_spread": "ratio",
    "backbone.neck_ms": "ms",
    "backbone.neck.gmac_per_s": "GMAC/s",
    "head.forward_ms": "ms",
    "head.forward.gmac_per_s": "GMAC/s",
    "head.decode_ms": "ms",
    "head.rectify_ms": "ms",
    "head.nms_ms": "ms",
    "head.candidates": "count",
    "head.kept": "count",
    "head.nms_pairs": "count",
    "head.overflow_warnings": "count",
    "geometry.iou_us_per_pair": "us",
    "checkpoint.load_ms": "ms",
    "trace.overhead_share": "share",
}

# rotated_iou_bev is timed on at most this many of an op's own NMS pairs
IOU_TIMING_PAIRS = 500


class Spans:
    """One op's layer times (ms), counts, and per-unit backbone times."""

    def __init__(self):
        self.ms: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.unit_ms: dict[int, list[float]] = {}
        self.iou_pairs: list = []

    @contextmanager
    def span(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + (perf_counter() - t0) * 1e3


def front_end(cloud, params, profile, spans: Spans):
    """crop -> assign -> augment -> encode -> scatter, as ``run_detect`` runs them."""
    grid = profile.grid
    with spans.span("pointcloud.crop"):
        cropped = crop_to_range(cloud, grid.range)
    spans.counts["pointcloud.points_in"] = len(cloud)
    spans.counts["pointcloud.points_kept"] = len(cropped)
    with spans.span("pillars.assign"):
        pillars = assign_pillars(cropped, grid)
    spans.counts["pillars.count"] = len(pillars)
    spans.counts["pillars.max_points"] = max((p.count for p in pillars), default=0)
    with spans.span("pillars.augment"):
        augmented = [augment_points(cropped, p, grid) for p in pillars]
    with spans.span("encoder.encode"):
        feats = [encode_pillar(a, params.encoder, keep_intermediates=False).f for a in augmented]
    with spans.span("pillars.scatter"):
        canvas = scatter(zip(pillars, feats), grid, dim=profile.encoder_dim)
    return pillars, canvas


def network(canvas_data, params, profile, spans: Spans):
    """Canvas pool, backbone unit by unit, neck, head; as ``network_forward``."""
    x = canvas_data
    with spans.span("nn.canvas_pool"):
        reduction = profile.canvas_reduction
        while reduction > 1:
            x = maxpool2(x)
            reduction //= 2
    bb = params.backbone
    with spans.span("backbone.stem"):
        x = unit_forward(x, bb.stem)
    outs = []
    for i in range(N_STAGES):
        if i > 0:
            with spans.span(f"backbone.transition{i + 1}"):
                x = unit_forward(x, bb.transitions[i - 1])
        times = spans.unit_ms.setdefault(i + 1, [])
        for pair in bb.stages[i]:
            for unit in (pair.a, pair.b):
                t0 = perf_counter()
                x = unit_forward(x, unit)
                times.append((perf_counter() - t0) * 1e3)
        spans.ms[f"backbone.stage{i + 1}"] = sum(times)
        outs.append(x)
    with spans.span("backbone.neck"):
        fused = neck_fuse(outs[2], outs[3], params.neck)
    with spans.span("head.forward"):
        return head_forward(fused, params.head)


def post(head_out, profile, spans: Spans):
    """decode -> rectify -> NMS; records the IoU pairs NMS evaluates."""
    with spans.span("head.decode"):
        dets = decode(
            head_out, profile.grid, profile.out_stride, k=profile.max_detections, score_thresh=profile.score_thresh
        )
    spans.counts["head.candidates"] = len(dets)
    with spans.span("head.rectify"):
        dets = rectify_detections(dets, profile.rectify_alpha)

    def counting_iou(a, b):
        spans.iou_pairs.append((a, b))
        return rotated_iou_bev(a, b)

    head_module.rotated_iou_bev = counting_iou
    try:
        with spans.span("head.nms"):
            kept = nms(dets, profile.nms_iou, class_agnostic=profile.nms_class_agnostic)
    finally:
        head_module.rotated_iou_bev = rotated_iou_bev
    spans.counts["head.kept"] = len(kept)
    spans.counts["head.nms_pairs"] = len(spans.iou_pairs)
    return kept


def traced_op(path: str, inp, params, profile, spans: Spans):
    """One op of a workload, layer by layer; same result as the untraced op."""
    if path == "dense":
        return network(inp.canvas, params, profile, spans)
    pillars, canvas = front_end(inp.cloud, params, profile, spans)
    if path == "inject":
        return post(inp.head, profile, spans)
    if not pillars:
        return []
    return post(network(canvas.data, params, profile, spans), profile, spans)


def time_iou_pairs(pairs) -> float:
    """Microseconds per ``rotated_iou_bev`` call over (a stride of) the pairs."""
    if not pairs:
        return 0.0
    step = max(1, len(pairs) // IOU_TIMING_PAIRS)
    sample = pairs[::step]
    t0 = perf_counter()
    for a, b in sample:
        rotated_iou_bev(a, b)
    return (perf_counter() - t0) * 1e6 / len(sample)


def analytic_macs(profile) -> dict:
    """MACs per layer at the profile's real stage-1 resolution.

    Backbone stages come from ``count_macs``; the neck and head are computed
    here from their kernel shapes (``c_out * c_in * k * k * h * w``).
    """
    r = profile.canvas_reduction
    cfg = BackboneConfig(
        stage_blocks=profile.stage_blocks,
        stage_channels=profile.stage_channels,
        in_channels=profile.encoder_dim,
        input_hw=(profile.grid.ny // r, profile.grid.nx // r),
    )
    report = count_macs(cfg)
    h8, w8 = head_map_hw(profile.grid, profile.out_stride)
    ch = profile.stage_channels
    neck = profile.neck_channels
    half = neck // 2 or neck
    neck_macs = (ch[2] * half + ch[3] * half + 9 * 2 * half * neck) * h8 * w8
    head_out_channels = profile.n_classes + 2 + 1 + 3 + 2 + 1
    head_macs = neck * head_out_channels * h8 * w8
    return {
        "source": "stages and transitions: count_macs; neck and head: computed from kernel shapes",
        "stage1_hw": list(cfg.input_hw),
        "stage_block_macs": list(report.stage_totals),
        "conv_macs": [m // 2 for m in report.per_block],
        "transition_macs": list(report.transition_macs),
        "neck_macs": neck_macs,
        "head_macs": head_macs,
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(op_spans: list[Spans], macs: dict, warnings_per_op: list[int]) -> dict:
    """Median over traced ops of each layer metric; 0 for layers not called."""
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for name in PER_LAYER_UNITS:
        if name.endswith("_ms"):
            key = name[: -len("_ms")]
            vals = [s.ms[key] for s in op_spans if key in s.ms]
        else:
            vals = [s.counts[name] for s in op_spans if name in s.counts]
        out[name] = _median(vals)
    if out["pillars.count"]:
        out["encoder.us_per_pillar"] = _median(
            [s.ms["encoder.encode"] * 1e3 / s.counts["pillars.count"] for s in op_spans if s.counts.get("pillars.count")]
        )
    conv_ms = {}
    for i in range(1, N_STAGES + 1):
        units = [t for s in op_spans for t in s.unit_ms.get(i, [])]
        if not units:
            continue
        conv_ms[i] = _median(units)
        out[f"backbone.stage{i}.conv_ms"] = conv_ms[i]
        out[f"backbone.stage{i}.gmac_per_s"] = macs["stage_block_macs"][i - 1] / (out[f"backbone.stage{i}_ms"] * 1e6)
    if conv_ms:
        out["backbone.conv_spread"] = max(conv_ms.values()) / min(conv_ms.values())
    if out["backbone.neck_ms"]:
        out["backbone.neck.gmac_per_s"] = macs["neck_macs"] / (out["backbone.neck_ms"] * 1e6)
    if out["head.forward_ms"]:
        out["head.forward.gmac_per_s"] = macs["head_macs"] / (out["head.forward_ms"] * 1e6)
    out["head.overflow_warnings"] = _median(warnings_per_op)
    return out
