import numpy as np
import pytest
import sympy

from pillardet.backbone import (
    BackboneConfig,
    backbone_forward,
    block_macs,
    build_backbone,
    build_neck,
    count_macs,
    count_params,
    fuse_backbone,
    neck_fuse,
)
from pillardet.errors import ValidationError
from pillardet.profiles import flops_config

REFERENCE_DELTA_MACS = 77.1e9  # published two-extra-block compute delta


def small_cfg(blocks=(1, 1, 1, 1)):
    return BackboneConfig(stage_blocks=blocks, stage_channels=(4, 8, 16, 32), in_channels=4, input_hw=(16, 16))


class TestForward:
    def test_stage_shapes(self):
        cfg = BackboneConfig(stage_blocks=(6, 6, 3, 1), stage_channels=(64, 128, 256, 512),
                             in_channels=64, input_hw=(64, 64))
        params = build_backbone(cfg, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(64, 64, 64)).astype(np.float32)
        outs = backbone_forward(x, params)
        assert [o.shape for o in outs] == [
            (64, 64, 64), (128, 32, 32), (256, 16, 16), (512, 8, 8),
        ]

    def test_zero_block_stage_keeps_transition(self):
        cfg = small_cfg((0, 2, 2, 2))
        params = build_backbone(cfg, np.random.default_rng(2))
        assert params.stages[0] == []
        x = np.random.default_rng(3).normal(size=(4, 16, 16)).astype(np.float32)
        outs = backbone_forward(x, params)
        assert outs[0].shape == (4, 16, 16)
        assert outs[3].shape == (32, 2, 2)

    def test_train_vs_fused_forward(self):
        rng = np.random.default_rng(4)
        cfg = small_cfg((2, 1, 1, 1))
        params = build_backbone(cfg, rng)
        fused = fuse_backbone(params)
        assert params.mode == "train" and fused.mode == "fused"
        x = rng.normal(size=(4, 16, 16)).astype(np.float32)
        a = backbone_forward(x, params)
        b = backbone_forward(x, fused)
        for ta, tb in zip(a, b):
            scale = max(float(np.max(np.abs(ta))), 1e-6)
            assert float(np.max(np.abs(ta - tb))) / scale < 1e-4


class TestNeck:
    def test_output_shape(self):
        rng = np.random.default_rng(5)
        neck = build_neck(16, 32, 24, rng)
        f8 = rng.normal(size=(16, 8, 8)).astype(np.float32)
        f16 = rng.normal(size=(32, 4, 4)).astype(np.float32)
        assert neck_fuse(f8, f16, neck).shape == (24, 8, 8)

    def test_zero_16x_path(self):
        rng = np.random.default_rng(6)
        neck = build_neck(8, 16, 8, rng)
        f8 = rng.normal(size=(8, 6, 6)).astype(np.float32)
        base = neck_fuse(f8, np.zeros((16, 3, 3), dtype=np.float32), neck)
        other = neck_fuse(f8, np.zeros((16, 3, 3), dtype=np.float32), neck)
        np.testing.assert_array_equal(base, other)
        # and the f8 path alone determines it: different f8 changes the output
        assert not np.array_equal(base, neck_fuse(2 * f8, np.zeros((16, 3, 3), dtype=np.float32), neck))

    def test_mismatched_levels_rejected(self):
        neck = build_neck(8, 16, 8)
        with pytest.raises(ValidationError):
            neck_fuse(np.zeros((8, 6, 6), dtype=np.float32), np.zeros((16, 4, 4), dtype=np.float32), neck)


class TestMacCounter:
    def test_per_block_equal_across_stages(self):
        report = count_macs(flops_config((2, 2, 2, 2)))
        assert len(set(report.per_block)) == 1

    def test_per_block_stage_invariance_symbolic(self):
        c, h, w = sympy.symbols("c h w", positive=True)
        this_stage = block_macs(c, h, w)
        next_stage = block_macs(2 * c, h / 2, w / 2)
        assert sympy.simplify(this_stage - next_stage) == 0

    def test_equal_deltas_between_rows(self):
        t = {b: count_macs(flops_config((b, 2, 2, 2))).total for b in (0, 2, 4)}
        assert t[2] - t[0] == t[4] - t[2]

    def test_delta_matches_reference_within_1pct(self):
        t0 = count_macs(flops_config((0, 2, 2, 2))).total
        t2 = count_macs(flops_config((2, 2, 2, 2))).total
        delta = t2 - t0
        assert abs(delta - REFERENCE_DELTA_MACS) / REFERENCE_DELTA_MACS < 0.01

    def test_sixteen_block_configs_equal_exactly(self):
        ours = count_macs(flops_config((6, 6, 3, 1))).total
        ref = count_macs(flops_config((3, 4, 6, 3))).total
        assert ours == ref

    def test_affine_in_each_stage(self):
        base = count_macs(flops_config((2, 2, 2, 2)))
        for stage in range(4):
            totals = []
            for extra in (0, 1, 2, 3):
                blocks = [2, 2, 2, 2]
                blocks[stage] += extra
                totals.append(count_macs(flops_config(tuple(blocks))).total)
            diffs = {totals[i + 1] - totals[i] for i in range(3)}
            assert diffs == {base.per_block[stage]}

    def test_zero_blocks_transitions_only(self):
        report = count_macs(flops_config((0, 0, 0, 0)))
        assert report.total == sum(report.transition_macs) > 0

    def test_resolution_assumptions_echoed(self):
        report = count_macs(flops_config((6, 6, 3, 1)))
        assert report.input_hw == (720, 720)
        assert report.stage_hw == ((720, 720), (360, 360), (180, 180), (90, 90))

    def test_constant_time_in_the_block_count(self):
        n = 10**15  # no backbone with this many units fits in memory
        report = count_macs(flops_config((n, 0, 0, 0)))
        assert report.transition_macs == count_macs(flops_config((0, 0, 0, 0))).transition_macs
        assert report.total == n * report.per_block[0] + sum(report.transition_macs)


class TestParamCounter:
    def test_reallocated_config_halves_params(self):
        ours = count_params(flops_config((6, 6, 3, 1)))
        ref = count_params(flops_config((3, 4, 6, 3)))
        assert ours < ref
        assert abs(ours / ref - 0.5) / 0.5 < 0.05

    def test_counts_match_built_parameters(self):
        cfg = small_cfg((2, 1, 1, 1))
        params = fuse_backbone(build_backbone(cfg, np.random.default_rng(7)))
        built = 0
        units = [params.stem, *params.transitions]
        for blocks in params.stages:
            for pair in blocks:
                units.extend((pair.a, pair.b))
        for u in units:
            built += u.kernel.size + u.bias.size
        assert built == count_params(cfg)

    def test_constant_time_in_the_block_count(self):
        n, c = 10**15, 64  # no backbone with this many units fits in memory
        per_block = 2 * (9 * c * c + c)  # two fused 3x3 convs with bias at stage 1's width
        assert count_params(flops_config((n, 0, 0, 0))) == n * per_block + count_params(flops_config((0, 0, 0, 0)))


class TestConfigValidation:
    def test_channels_must_double(self):
        with pytest.raises(ValidationError):
            BackboneConfig(stage_blocks=(1, 1, 1, 1), stage_channels=(4, 8, 12, 24), in_channels=4)

    def test_negative_blocks_rejected(self):
        with pytest.raises(ValidationError):
            BackboneConfig(stage_blocks=(1, -1, 1, 1), stage_channels=(4, 8, 16, 32), in_channels=4)

    def test_input_hw_divisibility(self):
        with pytest.raises(ValidationError):
            BackboneConfig(stage_blocks=(1, 1, 1, 1), stage_channels=(4, 8, 16, 32),
                           in_channels=4, input_hw=(20, 16))
