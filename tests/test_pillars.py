import numpy as np
import pytest

from pillardet.errors import ValidationError
from pillardet.pillars import GridConfig, Pillar, assign_pillars, augment_points, scatter
from pillardet.pointcloud import PointCloud, Range3D

GRID = GridConfig(Range3D(0.0, 1.6, 0.0, 1.6, -2.0, 4.0), 0.2, 0.2)


def cloud_from_xy(pairs, z=0.0):
    data = np.zeros((len(pairs), 5))
    for i, (x, y) in enumerate(pairs):
        data[i, 0], data[i, 1], data[i, 2] = x, y, z
    return PointCloud(data)


class TestAssign:
    def test_floor_arithmetic(self):
        pillars = assign_pillars(cloud_from_xy([(0.50, 0.30)]), GRID)
        assert len(pillars) == 1
        assert (pillars[0].ix, pillars[0].iy) == (2, 1)

    def test_two_points_same_cell(self):
        pillars = assign_pillars(cloud_from_xy([(0.41, 0.01), (0.59, 0.19)]), GRID)
        assert len(pillars) == 1
        assert pillars[0].count == 2

    def test_out_of_range_rejected_with_index(self):
        with pytest.raises(ValidationError, match="point 1"):
            assign_pillars(cloud_from_xy([(0.5, 0.5), (2.0, 0.5)]), GRID)

    def test_empty_cloud(self):
        assert assign_pillars(PointCloud(np.zeros((0, 5))), GRID) == []

    def test_sorted_by_row_then_col(self):
        pillars = assign_pillars(cloud_from_xy([(1.5, 1.5), (0.1, 0.1), (1.5, 0.1)]), GRID)
        keys = [(p.iy, p.ix) for p in pillars]
        assert keys == sorted(keys)

    def test_matches_brute_force_grouping(self):
        rng = np.random.default_rng(0)
        wide = GridConfig(Range3D(-20.0, 20.0, -20.0, 20.0, -2.0, 4.0), 0.25, 0.4)
        data = np.zeros((10_000, 5))
        data[:, 0] = rng.uniform(-20.0, 20.0, 10_000)
        data[:, 1] = rng.uniform(-20.0, 20.0, 10_000)
        data[:, 2] = rng.uniform(-2.0, 4.0, 10_000)
        cloud = PointCloud(data)
        pillars = assign_pillars(cloud, wide)

        groups = {}
        for i, row in enumerate(cloud.data):
            ix = min(int(np.floor((row[0] - wide.range.x_min) / wide.pillar_x)), wide.nx - 1)
            iy = min(int(np.floor((row[1] - wide.range.y_min) / wide.pillar_y)), wide.ny - 1)
            groups.setdefault((iy, ix), []).append(i)
        assert len(pillars) == len(groups)
        for p in pillars:
            assert groups[(p.iy, p.ix)] == list(p.point_indices)

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        data = np.zeros((500, 5))
        data[:, 0] = rng.uniform(0.0, 1.6, 500)
        data[:, 1] = rng.uniform(0.0, 1.6, 500)
        pillars = assign_pillars(PointCloud(data), GRID)
        seen = np.concatenate([p.point_indices for p in pillars])
        assert seen.size == 500
        assert np.array_equal(np.sort(seen), np.arange(500))

    def test_parallel_partition_merge_equals_sequential(self):
        rng = np.random.default_rng(5)
        data = np.zeros((600, 5))
        data[:, 0] = rng.uniform(0.0, 1.6, 600)
        data[:, 1] = rng.uniform(0.0, 1.6, 600)
        cloud = PointCloud(data)
        sequential = assign_pillars(cloud, GRID)

        split = 250
        merged: dict[tuple[int, int], list[int]] = {}
        for offset, chunk in ((0, data[:split]), (split, data[split:])):
            for p in assign_pillars(PointCloud(chunk), GRID):
                merged.setdefault((p.iy, p.ix), []).extend(int(i) + offset for i in p.point_indices)
        assert len(merged) == len(sequential)
        for p in sequential:
            assert merged[(p.iy, p.ix)] == list(p.point_indices)


class TestAugmentPoints:
    def test_center_point_zero_offsets(self):
        # cell (2, 1) has center (0.5, 0.3); z center of [-2, 4] is 1.0
        cloud = cloud_from_xy([(0.5, 0.3)], z=1.0)
        pillar = Pillar(2, 1, np.array([0]))
        aug = augment_points(cloud, pillar, GRID)
        assert aug.shape == (1, 11)
        assert np.allclose(aug[0, 5:8], 0.0)

    def test_hand_arithmetic(self):
        # point (1.0, 1.0, 0.0) measured against cell [0.8, 1.0) x [0.8, 1.0)
        cloud = cloud_from_xy([(1.0, 1.0)], z=0.0)
        pillar = Pillar(4, 4, np.array([0]))
        aug = augment_points(cloud, pillar, GRID)
        np.testing.assert_allclose(aug[0, 5:8], [0.1, 0.1, -1.0], atol=1e-12)
        np.testing.assert_allclose(aug[0, 8:11], [1.0, 1.0, 2.0], atol=1e-12)

    def test_range_minimum_corner(self):
        cloud = cloud_from_xy([(0.0, 0.0)], z=-2.0)
        pillar = Pillar(0, 0, np.array([0]))
        aug = augment_points(cloud, pillar, GRID)
        np.testing.assert_allclose(aug[0, 8:11], [0.0, 0.0, 0.0])

    def test_raw_fields_preserved(self):
        data = np.array([[0.5, 0.3, 1.0, 0.7, 0.25]])
        pillar = Pillar(2, 1, np.array([0]))
        aug = augment_points(PointCloud(data), pillar, GRID)
        np.testing.assert_allclose(aug[0, :5], data[0])

    def test_offsets_bounded_on_real_assignment(self):
        rng = np.random.default_rng(2)
        data = np.zeros((400, 5))
        data[:, 0] = rng.uniform(0.0, 1.6, 400)
        data[:, 1] = rng.uniform(0.0, 1.6, 400)
        data[:, 2] = rng.uniform(-2.0, 4.0, 400)
        cloud = PointCloud(data)
        for pillar in assign_pillars(cloud, GRID):
            aug = augment_points(cloud, pillar, GRID)
            assert np.all(aug[:, 5] >= -GRID.pillar_x / 2) and np.all(aug[:, 5] < GRID.pillar_x / 2)
            assert np.all(aug[:, 6] >= -GRID.pillar_y / 2) and np.all(aug[:, 6] < GRID.pillar_y / 2)
            assert np.isfinite(aug).all()

    def test_bad_indices_rejected(self):
        cloud = cloud_from_xy([(0.5, 0.3)])
        with pytest.raises(ValidationError):
            augment_points(cloud, Pillar(0, 0, np.array([3])), GRID)


class TestScatter:
    def test_empty_input(self):
        canvas = scatter([], GRID, dim=4)
        assert canvas.data.shape == (4, 8, 8)
        assert not canvas.data.any()

    def test_single_pillar_placement(self):
        canvas = scatter([(Pillar(2, 1, np.array([0])), np.array([7.0]))], GRID, dim=1)
        nonzero = np.argwhere(canvas.data[0])
        assert nonzero.tolist() == [[1, 2]]
        assert canvas.data[0, 1, 2] == 7.0

    def test_duplicate_cell_rejected(self):
        items = [
            (Pillar(2, 1, np.array([0])), np.array([1.0])),
            (Pillar(2, 1, np.array([1])), np.array([2.0])),
        ]
        with pytest.raises(ValidationError, match="duplicate"):
            scatter(items, GRID, dim=1)

    def test_mixed_dims_rejected(self):
        items = [
            (Pillar(0, 0, np.array([0])), np.array([1.0])),
            (Pillar(1, 0, np.array([1])), np.array([1.0, 2.0])),
        ]
        with pytest.raises(ValidationError, match="width"):
            scatter(items, GRID, dim=1)

    def test_dim_disagreeing_with_the_features_rejected(self):
        items = [(Pillar(0, 0, np.array([0])), np.zeros(16))]
        with pytest.raises(ValidationError, match="dim=8"):
            scatter(items, GRID, dim=8)
        assert scatter(items, GRID, dim=16).data.shape == (16, 8, 8)

    def test_conservation(self):
        rng = np.random.default_rng(3)
        cells = [(ix, iy) for ix in range(8) for iy in range(8)]
        rng.shuffle(cells)
        items = [(Pillar(ix, iy, np.array([0])), rng.normal(size=3)) for ix, iy in cells[:20]]
        canvas = scatter(items, GRID, dim=3)
        total = sum(float(np.sum(np.asarray(f, dtype=np.float32))) for _, f in items)
        assert np.isclose(canvas.data.sum(), total, rtol=1e-6)
        # untouched cells are exactly zero
        occupied = np.zeros((8, 8), dtype=bool)
        for p, _ in items:
            occupied[p.iy, p.ix] = True
        assert not canvas.data[:, ~occupied].any()

    def test_scatter_gather_identity(self):
        rng = np.random.default_rng(4)
        pillars = [Pillar(i, 2 * i % 8, np.array([0])) for i in range(8)]
        feats = [rng.normal(size=5).astype(np.float32) for _ in pillars]
        canvas = scatter(zip(pillars, feats), GRID, dim=5)
        for p, f in zip(pillars, feats):
            assert np.array_equal(canvas.data[:, p.iy, p.ix], f)


class TestGridConfig:
    def test_dims_use_ceiling(self):
        g = GridConfig(Range3D(0.0, 1.5, 0.0, 1.6, 0.0, 1.0), 0.2, 0.2)
        assert (g.nx, g.ny) == (8, 8)

    def test_invalid_pillar_size(self):
        with pytest.raises(ValidationError):
            GridConfig(Range3D(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 0.0, 0.2)

    @pytest.mark.parametrize("y_max,ok", [(2.0**31 - 1, True), (2.0**31, False)])
    def test_cell_count_must_fit_the_int64_cell_keys(self, y_max, ok):
        rng = Range3D(0.0, 2.0**32, 0.0, y_max, 0.0, 1.0)  # nx = 2**32, so nx * ny reaches 2**63 at ny = 2**31
        if ok:
            grid = GridConfig(rng, 1.0, 1.0)
            assert grid.nx * grid.ny == 2**63 - 2**32
        else:
            with pytest.raises(ValidationError, match="int64 cell keys"):
                GridConfig(rng, 1.0, 1.0)

    @pytest.mark.parametrize("rng,pillar_x", [
        (Range3D(-1e308, 1e308, 0.0, 1.0, 0.0, 1.0), 0.2),  # the range's width overflows to inf
        (Range3D(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), 5e-324),  # so does width / pillar size
    ])
    def test_infinite_cell_count_rejected(self, rng, pillar_x):
        with pytest.raises(ValidationError, match="int64 cell keys"):
            GridConfig(rng, pillar_x, 0.2)
