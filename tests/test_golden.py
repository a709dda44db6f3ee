"""Golden values of the CLI outputs on the desk fixture (``generate --seed 3 --objects 3``,
``init --seed 1``).

Outputs whose path has no BLAS reduction are pinned by sha256 digest. Outputs that
go through a GEMM (``encode``, ``detect``, ``train-step`` and the ``fuse`` report)
are pinned by value in ``golden_blas.json``, within the tolerances below, since
another BLAS may sum a GEMM in another order.

A change that moves one of these on purpose states it, with the reason, and
rewrites the values with ``PYTHONPATH=src python tests/test_golden.py``; an
unintended move (a swapped head group, a different BN epsilon, a dropped
identity branch) fails here.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pillardet.cli import main, read_boxes
from pillardet.head import save_head_output
from pillardet.losses import render_gaussian_targets
from pillardet.pipeline import head_output_from_targets
from pillardet.profiles import DESK

GOLDEN = {
    "init-random.bin": "7c0a394532d4ddc1788da1543a12a1f01461810103310487c46fde834457f853",
    "init-identity.bin": "e26afbc0d50e919f53ddf57f161355376e07ee5ef28ad11c2bc99d0cafbd9e8b",
    "fused.bin": "22feb60bc46466a9cb93a36a3347c8c5bc1728a4fdc6dad21b757caced7b52c0",
    "inject-head.csv": "ddc1d298068a0ca80754f86532adc257c5532b01d5c83942d4788d283e5f38b0",
    "pillarize.json": "9c4f8c3688ab7e71e3582bf2f4b0e7433ba669bc61741f7d70bfde2f6e6b65c2",
    "pillarize.json.pillars.csv": "e607aaf21e03b8d93425079ace486c6b99a32d5106add16b93caf27c47954ada",
}

BLAS_VALUES = Path(__file__).with_name("golden_blas.json")

# Tolerances, each set from how far a reordered GEMM moves the output and how far
# each of the three mutations above moves it (measured on this fixture):
# - the float64 encoder: summing each GEMM in reverse moved the features by at most
#   5.7e-16 relative; a BN epsilon of 2^-17 instead of 1e-5 on load moved them 1.3e-6;
ENCODE_RTOL = 1e-9
# - the float32 network's detections, per column, relative to the column's largest
#   magnitude: a reversed or a float64-accumulated GEMM moved them by at most 4.2e-5;
#   a BN epsilon of 1e-4 on load moved them 2.7e-3 and one of 1e-3 dropped a detection;
DETECT_COLUMN_TOL = 2.5e-4
# - the train-step losses, float64 sums of float32 network outputs: the reordered GEMMs
#   moved them by at most 7.0e-7 relative; a BN epsilon of 1e-4 moved them 1.2e-4 or more,
#   and swapped head groups moved iou_branch 0.66 relative;
TRAIN_STEP_RTOL = 1e-5
# - the fuse probe's discrepancy is float32 rounding noise, which the reordered GEMMs
#   moved by up to 53%; it is pinned within a factor of 4, and a dropped identity
#   branch in the fused network (4.6e5 times the pinned value) fails the fuse outright.
FUSE_FACTOR = 4.0


def _run(argv) -> str:
    """Standard output of one successful CLI command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def make_outputs(d: Path) -> dict:
    scene, ckpt, ident, fused = d / "scene.bin", d / "ckpt.json", d / "ident.json", d / "fused.json"
    _run(["generate", "--profile", "desk", "--seed", "3", "--objects", "3", "--out", str(scene)])
    _run(["init", "--profile", "desk", "--seed", "1", "--out", str(ckpt)])
    _run(["init", "--profile", "desk", "--mode", "identity", "--out", str(ident)])
    fuse_report = _run(["fuse", str(ckpt), str(fused)])
    targets = render_gaussian_targets(read_boxes(str(scene) + ".boxes.csv"), DESK.grid, DESK.out_stride, DESK.n_classes)
    head = d / "head.npz"
    save_head_output(head_output_from_targets(targets), head)
    desk = ["--profile", "desk", "--cloud", str(scene)]
    outputs = {"fuse-report": fuse_report}
    _run(["detect", *desk, "--checkpoint", str(ckpt), "--inject-head", str(head), "--out", str(d / "inject.csv")])
    _run(["pillarize", *desk, "--out", str(d / "pillarize.json"), "--per-pillar"])
    for name, ck in (("encode-checkpoint", ["--checkpoint", str(ckpt)]), ("encode-identity", [])):
        outputs[name] = _run(["encode", *desk, "--format", "csv", *ck])
    for name, ck in (("detect-fused", fused), ("detect-train", ckpt), ("detect-identity", ident)):
        _run(["detect", *desk, "--checkpoint", str(ck), "--out", str(d / "dets.csv")])
        outputs[name] = (d / "dets.csv").read_text()
    outputs["train-step"] = _run(["train-step", *desk, "--boxes", str(scene) + ".boxes.csv",
                                  "--checkpoint", str(ckpt)])
    files = {
        "init-random.bin": "ckpt.bin",
        "init-identity.bin": "ident.bin",
        "fused.bin": "fused.bin",
        "inject-head.csv": "inject.csv",
        "pillarize.json": "pillarize.json",
        "pillarize.json.pillars.csv": "pillarize.json.pillars.csv",
    }
    return {**outputs, **{name: (d / file).read_bytes() for name, file in files.items()}}


def _table(text: str) -> tuple[list[str], np.ndarray]:
    header, *rows = (line.split(",") for line in text.splitlines())
    return header, np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))


def blas_values(outputs: dict) -> dict:
    """The values ``golden_blas.json`` holds, read from the outputs; an encode row keeps
    only its features, since its cell and count are the pillarize row's."""
    values = {name: json.loads(outputs[name]) for name in ("fuse-report", "train-step")}
    for name in ("encode-checkpoint", "encode-identity", "detect-fused", "detect-identity"):
        header, rows = _table(outputs[name])
        values[name] = {"header": header, "rows": (rows[:, 3:] if name.startswith("encode") else rows).tolist()}
    return values


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return make_outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(BLAS_VALUES.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_its_golden_digest(outputs, name):
    assert hashlib.sha256(outputs[name]).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", ["encode-checkpoint", "encode-identity"])
def test_encode_csv_matches_its_golden_values(outputs, expected, name):
    header, rows = _table(outputs[name])
    want = np.array(expected[name]["rows"])
    _, pillars = _table(outputs["pillarize.json.pillars.csv"].decode())
    assert header == expected[name]["header"] and rows.shape == (len(pillars), 5) and want.shape == (len(pillars), 2)
    np.testing.assert_array_equal(rows[:, :3], pillars)  # ix, iy, count
    np.testing.assert_allclose(rows[:, 3:], want, rtol=ENCODE_RTOL, atol=0.0)


@pytest.mark.parametrize("name,golden", [
    ("detect-fused", "detect-fused"),
    ("detect-train", "detect-fused"),  # detect fuses a train checkpoint at load
    ("detect-identity", "detect-identity"),
])
def test_detect_csv_matches_its_golden_values(outputs, expected, name, golden):
    header, rows = _table(outputs[name])
    want = np.array(expected[golden]["rows"]).reshape(-1, len(header))
    assert header == expected[golden]["header"] and rows.shape == want.shape
    if rows.size:
        assert (rows[:, header.index("class")] == want[:, header.index("class")]).all()
        bound = DETECT_COLUMN_TOL * np.abs(want).max(axis=0)
        assert (np.abs(rows - want) <= bound).all(), np.abs(rows - want).max(axis=0) / np.abs(want).max(axis=0)


def test_train_step_matches_its_golden_values(outputs, expected):
    got, want = json.loads(outputs["train-step"]), expected["train-step"]
    assert got.keys() == want.keys() and got["weights"] == want["weights"]
    for key in sorted(set(want) - {"weights"}):
        assert got[key] == pytest.approx(want[key], rel=TRAIN_STEP_RTOL, abs=0.0), key


def test_fuse_report_matches_its_golden_values(outputs, expected):
    got, want = json.loads(outputs["fuse-report"]), expected["fuse-report"]
    assert (got["probes"], got["bound"]) == (want["probes"], want["bound"])
    pinned = want["max_relative_discrepancy"]
    assert pinned / FUSE_FACTOR <= got["max_relative_discrepancy"] <= pinned * FUSE_FACTOR


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        values = blas_values(make_outputs(Path(tmp)))
    lines = []
    for name, value in values.items():
        if "rows" in value:  # one table row per line, 12 significant digits
            rows = ",\n  ".join("[" + ",".join(f"{v:.12g}" for v in row) + "]" for row in value["rows"])
            lines.append(f'"{name}": {{"header": {json.dumps(value["header"])}, "rows": [\n  {rows}]}}')
        else:
            lines.append(f'"{name}": {json.dumps(value, sort_keys=True)}')
    BLAS_VALUES.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {BLAS_VALUES}", file=sys.stderr)
