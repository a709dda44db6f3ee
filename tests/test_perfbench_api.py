"""The library calls the benchmark in ``perfbench/`` makes still work.

``perfbench/tracer.py`` times each layer by calling the library's public
per-layer API itself (``crop_to_range``, ``assign_pillars``,
``augment_points``, ``encode_pillar(..., keep_intermediates=False)``,
``scatter``, the backbone units, ``decode``, ``rectify_detections``, ``nms``),
and ``perfbench/workloads.py`` builds every input from the library. For each
workload this prepares a small seeded run and checks, on one input, that the
traced op gives the same output as the timed op and that the output passes
the workload's checks; a library change that breaks one of those calls fails
here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

from pillardet.checkpoint import load_checkpoint
from pillardet.profiles import load_profile

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracer import Spans, traced_op  # noqa: E402
from workloads import WORKLOADS, check_output, fingerprint, load_inputs, make_op, prepare  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_op_equals_the_timed_op_and_passes_the_checks(tmp_path, name):
    w = WORKLOADS[name]
    manifest = prepare(w, 1, tmp_path)
    params, _, _ = load_checkpoint(tmp_path / manifest["checkpoint"])
    profile = load_profile(manifest["profile"])
    inp = load_inputs(w, tmp_path)[0]
    out = make_op(w, params, profile)(inp)
    assert check_output(w, profile, inp, out) is None
    assert fingerprint(traced_op(w.path, inp, params, profile, Spans())) == fingerprint(out)
