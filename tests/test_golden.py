"""Golden sha256 digests of the CLI outputs whose path has no BLAS reduction,
on the desk fixture (``generate --seed 3 --objects 3``).

A change that moves one of these digests on purpose states it, with the reason;
an unintended move (a swapped head group, a different BN epsilon) fails here.
"""

import hashlib

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
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    scene, ckpt, ident, fused = d / "scene.bin", d / "ckpt.json", d / "ident.json", d / "fused.json"
    assert main(["generate", "--profile", "desk", "--seed", "3", "--objects", "3", "--out", str(scene)]) == 0
    assert main(["init", "--profile", "desk", "--seed", "1", "--out", str(ckpt)]) == 0
    assert main(["init", "--profile", "desk", "--mode", "identity", "--out", str(ident)]) == 0
    assert main(["fuse", str(ckpt), str(fused)]) == 0
    targets = render_gaussian_targets(read_boxes(str(scene) + ".boxes.csv"), DESK.grid, DESK.out_stride, DESK.n_classes)
    head = d / "head.npz"
    save_head_output(head_output_from_targets(targets), head)
    dets = d / "dets.csv"
    assert main(["detect", "--profile", "desk", "--cloud", str(scene), "--checkpoint", str(ckpt),
                 "--inject-head", str(head), "--out", str(dets)]) == 0
    return {
        "init-random.bin": d / "ckpt.bin",
        "init-identity.bin": d / "ident.bin",
        "fused.bin": d / "fused.bin",
        "inject-head.csv": dets,
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_its_golden_digest(outputs, name):
    assert hashlib.sha256(outputs[name].read_bytes()).hexdigest() == GOLDEN[name]
