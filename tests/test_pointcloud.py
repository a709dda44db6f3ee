import json
import math
import re

import numpy as np
import pytest

from pillardet.errors import ValidationError
from pillardet.geometry import Box3D, points_in_box
from pillardet.pointcloud import (
    FIELD_BOUND,
    PointCloud,
    Range3D,
    SceneSpec,
    crop_to_range,
    generate_scene,
    load_cloud,
    meta_path,
    save_cloud,
)

RANGE = Range3D(-10.0, 10.0, -10.0, 10.0, -2.0, 4.0)


def random_cloud(rng, n, rng3d=RANGE):
    data = np.empty((n, 5))
    data[:, 0] = rng.uniform(rng3d.x_min, rng3d.x_max, n)
    data[:, 1] = rng.uniform(rng3d.y_min, rng3d.y_max, n)
    data[:, 2] = rng.uniform(rng3d.z_min, rng3d.z_max, n)
    data[:, 3] = rng.uniform(0.0, 1.0, n)
    data[:, 4] = 0.0
    return PointCloud(data.astype(np.float32).astype(np.float64))


class TestIO:
    def test_empty_file_roundtrip(self, tmp_path):
        p = tmp_path / "empty.bin"
        save_cloud(PointCloud(np.zeros((0, 5))), p)
        assert len(load_cloud(p)) == 0

    def test_single_record(self, tmp_path):
        p = tmp_path / "one.bin"
        p.write_bytes(np.array([[1.0, 2.0, 3.0, 0.5, 0.0]], dtype="<f4").tobytes())
        cloud = load_cloud(p)
        assert len(cloud) == 1
        assert np.array_equal(cloud.data[0], [1.0, 2.0, 3.0, 0.5, 0.0])

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 1000)
        p = tmp_path / "cloud.bin"
        save_cloud(cloud, p)
        loaded = load_cloud(p)
        assert np.array_equal(loaded.data, cloud.data)
        # a second trip is also bitwise stable
        p2 = tmp_path / "cloud2.bin"
        save_cloud(loaded, p2)
        assert p2.read_bytes() == p.read_bytes()

    def test_malformed_length_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 23)
        with pytest.raises(ValidationError, match="record size"):
            load_cloud(p)

    def test_nonfinite_rejected_with_index(self, tmp_path):
        data = np.zeros((3, 5), dtype="<f4")
        data[2, 1] = np.nan
        p = tmp_path / "nan.bin"
        p.write_bytes(data.tobytes())
        with pytest.raises(ValidationError, match="record 2"):
            load_cloud(p)

    @pytest.mark.parametrize("column,field", [(3, "reflectance"), (4, "timestamp")])
    def test_field_beyond_the_bound_rejected_naming_point_and_field(self, column, field):
        data = np.zeros((3, 5))
        data[:2, column] = [FIELD_BOUND, -FIELD_BOUND]
        assert len(PointCloud(data.copy())) == 3  # the bound itself is in the domain
        for value in (np.nextafter(FIELD_BOUND, np.inf), np.nextafter(-FIELD_BOUND, -np.inf), 3e38):
            data[2, column] = value
            with pytest.raises(ValidationError, match=re.escape(f"point record 2 {field} {float(value)!r} lies outside")):
                PointCloud(data.copy())

    def test_metadata_count_mismatch(self, tmp_path):
        p = tmp_path / "cloud.bin"
        save_cloud(PointCloud(np.zeros((2, 5))), p)
        meta_path(p).write_text('{"record_count": 3, "declared_range": null}')
        with pytest.raises(ValidationError, match="3 records"):
            load_cloud(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_cloud(tmp_path / "nope.bin")

    def test_metadata_is_the_record_count(self, tmp_path):
        p = tmp_path / "cloud.bin"
        save_cloud(PointCloud(np.ones((2, 5))), p)
        assert json.loads(meta_path(p).read_text()) == {"record_count": 2}
        # older files also carry a declared range, which a load does not read
        rng = {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0, "z_min": -1.0, "z_max": 1.0}
        for declared in (None, rng, dict(rng, w_min=0.0)):
            meta_path(p).write_text(json.dumps({"declared_range": declared, "record_count": 2}))
            assert np.array_equal(load_cloud(p).data, np.ones((2, 5)))


class TestCrop:
    def test_all_inside_is_identity(self):
        rng = np.random.default_rng(0)
        cloud = random_cloud(rng, 50)
        out = crop_to_range(cloud, RANGE)
        assert np.array_equal(out.data, cloud.data)

    def test_max_boundary_dropped(self):
        cloud = PointCloud(np.array([[10.0, 0.0, 0.0, 0.0, 0.0]]))
        assert len(crop_to_range(cloud, RANGE)) == 0

    def test_min_boundary_kept(self):
        cloud = PointCloud(np.array([[-10.0, 0.0, 0.0, 0.0, 0.0]]))
        assert len(crop_to_range(cloud, RANGE)) == 1

    def test_matches_per_point_filter(self):
        rng = np.random.default_rng(3)
        wide = Range3D(-15.0, 15.0, -15.0, 15.0, -4.0, 6.0)
        cloud = random_cloud(rng, 2000, wide)
        out = crop_to_range(cloud, RANGE)
        expected = [
            row
            for row in cloud.data
            if RANGE.x_min <= row[0] < RANGE.x_max
            and RANGE.y_min <= row[1] < RANGE.y_max
            and RANGE.z_min <= row[2] < RANGE.z_max
        ]
        assert np.array_equal(out.data, np.array(expected).reshape(len(expected), 5))


class TestSceneGen:
    def test_background_only(self):
        spec = SceneSpec(range=RANGE, n_objects=0, n_background=50)
        cloud, boxes = generate_scene(spec, seed=0)
        assert len(cloud) == 50 and boxes == []

    def test_object_points_contained(self):
        spec = SceneSpec(range=RANGE, n_objects=1, points_per_object=100, n_background=0)
        cloud, boxes = generate_scene(spec, seed=1)
        assert len(boxes) == 1 and len(cloud) == 100
        assert points_in_box(cloud.xyz, boxes[0]).all()

    def test_every_box_has_a_point(self):
        spec = SceneSpec(range=RANGE, n_objects=5, points_per_object=7, n_background=10)
        cloud, boxes = generate_scene(spec, seed=2)
        for b in boxes:
            assert points_in_box(cloud.xyz, b).any()

    def test_determinism(self):
        spec = SceneSpec(range=RANGE, n_objects=3)
        a_cloud, a_boxes = generate_scene(spec, seed=3)
        b_cloud, b_boxes = generate_scene(spec, seed=3)
        assert np.array_equal(a_cloud.data, b_cloud.data)
        assert a_boxes == b_boxes

    def test_infeasible_spec(self):
        small = Range3D(0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError, match="cannot fit"):
            generate_scene(SceneSpec(range=small, n_objects=1), seed=0)

    def test_points_inside_declared_range(self):
        spec = SceneSpec(range=RANGE, n_objects=4, n_background=100)
        cloud, _ = generate_scene(spec, seed=4)
        assert RANGE.contains_mask(cloud.xyz).all()


class TestTypes:
    @pytest.mark.parametrize("make", [lambda a: a, lambda a: a[1:], lambda a: a.astype(np.float32)])
    def test_cloud_owns_its_array(self, make):
        a = np.arange(15.0).reshape(3, 5)
        source = make(a)
        cloud = PointCloud(source)
        source[0, 0] = 99.0  # the caller's array stays writable
        a[-1, -1] = -1.0
        np.testing.assert_array_equal(cloud.data, make(np.arange(15.0).reshape(3, 5)))
        assert not cloud.data.flags.writeable

    def test_range_requires_order(self):
        with pytest.raises(ValidationError):
            Range3D(1.0, -1.0, 0.0, 1.0, 0.0, 1.0)

    def test_box_yaw_normalized(self):
        assert Box3D(0, 0, 0, 1, 1, 1, math.pi).yaw == -math.pi
        assert abs(Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi + 0.1).yaw - (-math.pi + 0.1)) < 1e-12

    def test_box_positive_sizes(self):
        with pytest.raises(ValidationError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)
