"""Point-cloud data model, binary I/O, cropping, synthetic scenes.

The on-disk format is headerless little-endian float32 records of
(x, y, z, reflectance, timestamp); a companion ``<file>.meta.json`` holds the
JSON object ``{"record_count": n}``, which a load checks against the file. All
cropping and gridding downstream uses half-open intervals [min, max) per axis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError, check_record, read_json
from .geometry import Box3D, points_in_box

RECORD_FIELDS = 5
RECORD_BYTES = RECORD_FIELDS * 4
_DTYPE = np.dtype("<f4")
# Largest |reflectance| and |timestamp| a point may carry: above any sensor's intensity
# count (16 bits at most) and any sweep's time lag in microseconds. The `init --seed 1`
# nets first overflow float32 at ~1e32 (nuscenes, waymo) and ~1e38 (desk). A profile's
# range bounds are held to it too, so it also limits every coordinate the crop keeps.
FIELD_BOUND = 1e6


@dataclass(frozen=True)
class Range3D:
    """Axis-aligned spatial extent; each axis is the half-open [min, max)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        for lo, hi, axis in ((self.x_min, self.x_max, "x"), (self.y_min, self.y_max, "y"), (self.z_min, self.z_max, "z")):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(f"range {axis} bounds must be finite")
            if not lo < hi:
                raise ValidationError(f"range {axis}: min must be < max, got [{lo}, {hi})")

    def contains_mask(self, xyz: np.ndarray) -> np.ndarray:
        xyz = np.asarray(xyz, dtype=np.float64)
        return (
            (xyz[:, 0] >= self.x_min) & (xyz[:, 0] < self.x_max)
            & (xyz[:, 1] >= self.y_min) & (xyz[:, 1] < self.y_max)
            & (xyz[:, 2] >= self.z_min) & (xyz[:, 2] < self.z_max)
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Range3D":
        check_record("range", d, {f.name: float for f in fields(cls)})
        return cls(**{name: float(value) for name, value in d.items()})


class PointCloud:
    """Ordered point set backed by an immutable (N, 5) float64 array of its own."""

    def __init__(self, data: np.ndarray):
        data = np.array(data, dtype=np.float64, order="C")  # a copy, so the caller's array stays theirs
        if data.size == 0:
            data = data.reshape(0, RECORD_FIELDS)
        if data.ndim != 2 or data.shape[1] != RECORD_FIELDS:
            raise ValidationError(f"point data must be (N, {RECORD_FIELDS}), got {data.shape}")
        bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if bad.size:
            raise ValidationError(f"non-finite values in point record {int(bad[0])}")
        far = np.argwhere(np.abs(data[:, 3:]) > FIELD_BOUND)
        if far.size:
            i, j = far[0]
            field = ("reflectance", "timestamp")[j]
            raise ValidationError(f"point record {i} {field} {float(data[i, 3 + j])!r} lies outside +-{FIELD_BOUND:g}")
        data.setflags(write=False)
        self._data = data

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def xyz(self) -> np.ndarray:
        return self._data[:, :3]

    def __len__(self) -> int:
        return self._data.shape[0]


def save_cloud(cloud: PointCloud, path) -> None:
    """Write raw float32 records plus the ``.meta.json`` companion."""
    path = Path(path)
    path.write_bytes(cloud.data.astype(_DTYPE).tobytes())
    meta_path(path).write_text(json.dumps({"record_count": len(cloud)}, indent=1) + "\n")


def meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def load_cloud(path) -> PointCloud:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ValidationError(f"cannot read point cloud {path}: {e}") from e
    if len(raw) % RECORD_BYTES != 0:
        raise ValidationError(
            f"{path}: byte length {len(raw)} is not a multiple of the {RECORD_BYTES}-byte record size"
        )
    data = np.frombuffer(raw, dtype=_DTYPE).reshape(-1, RECORD_FIELDS)  # PointCloud converts it to float64
    mp = meta_path(path)
    if mp.exists():
        meta = read_json(mp, "cloud metadata")
        meta.pop("declared_range", None)  # older files carry it; nothing reads it
        count = check_record(f"{mp}: cloud metadata", meta, {"record_count": int})["record_count"]
        if count != data.shape[0]:
            raise ValidationError(f"{path}: metadata says {count} records, file holds {data.shape[0]}")
    return PointCloud(data)


def crop_to_range(cloud: PointCloud, rng: Range3D) -> PointCloud:
    """Keep exactly the points inside the half-open range."""
    return PointCloud(cloud.data[rng.contains_mask(cloud.xyz)])


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene: boxes with interior points plus uniform background."""

    range: Range3D
    n_objects: int = 4
    points_per_object: int = 120
    n_background: int = 400
    length_range: tuple[float, float] = (2.0, 5.0)
    width_range: tuple[float, float] = (1.2, 2.4)
    height_range: tuple[float, float] = (1.2, 2.2)
    n_classes: int = 3

    def __post_init__(self):
        if self.n_objects < 0 or self.n_background < 0:
            raise ValidationError("object and background counts must be >= 0")
        if self.n_objects > 0 and self.points_per_object < 1:
            raise ValidationError("points_per_object must be >= 1")
        if self.n_classes < 1:
            raise ValidationError("n_classes must be >= 1")


def generate_scene(spec: SceneSpec, seed: int) -> tuple[PointCloud, list[Box3D]]:
    """Deterministic synthetic scene; every emitted box contains its points."""
    rng = np.random.default_rng(seed)
    r = spec.range
    boxes: list[Box3D] = []
    chunks: list[np.ndarray] = []
    for _ in range(spec.n_objects):
        l = rng.uniform(*spec.length_range)
        w = rng.uniform(*spec.width_range)
        h = rng.uniform(*spec.height_range)
        yaw = rng.uniform(-math.pi, math.pi)
        margin_xy = math.hypot(l, w) / 2.0
        lo = np.array([r.x_min + margin_xy, r.y_min + margin_xy, r.z_min + h / 2.0])
        hi = np.array([r.x_max - margin_xy, r.y_max - margin_xy, r.z_max - h / 2.0])
        if np.any(lo >= hi):
            raise ValidationError(
                f"object of size ({l:.2f}, {w:.2f}, {h:.2f}) cannot fit inside the scene range"
            )
        center = rng.uniform(lo, hi)
        box = Box3D(center[0], center[1], center[2], l, w, h, yaw, class_id=int(rng.integers(spec.n_classes)))
        boxes.append(box)

        # inset from the faces so float32 storage cannot push points outside
        lim = 0.5 * np.array([l, w, h]) * (1.0 - 1e-4)
        local = rng.uniform(-1.0, 1.0, size=(spec.points_per_object, 3)) * lim
        c, s = math.cos(yaw), math.sin(yaw)
        pts = np.empty((spec.points_per_object, RECORD_FIELDS))
        pts[:, 0] = center[0] + c * local[:, 0] - s * local[:, 1]
        pts[:, 1] = center[1] + s * local[:, 0] + c * local[:, 1]
        pts[:, 2] = center[2] + local[:, 2]
        pts[:, 3] = rng.uniform(0.0, 1.0, size=spec.points_per_object)
        pts[:, 4] = 0.0
        chunks.append(pts)

    if spec.n_background:
        bg = np.empty((spec.n_background, RECORD_FIELDS))
        bg[:, 0] = rng.uniform(r.x_min, r.x_max, size=spec.n_background)
        bg[:, 1] = rng.uniform(r.y_min, r.y_max, size=spec.n_background)
        bg[:, 2] = rng.uniform(r.z_min, r.z_max, size=spec.n_background)
        bg[:, 3] = rng.uniform(0.0, 1.0, size=spec.n_background)
        bg[:, 4] = 0.0
        chunks.append(bg)

    data = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, RECORD_FIELDS))
    # quantize to the storage precision so save/load round-trips bitwise
    data = data.astype(_DTYPE).astype(np.float64)
    cloud = PointCloud(data)
    for i, box in enumerate(boxes):
        n = spec.points_per_object
        if not points_in_box(cloud.xyz[i * n : (i + 1) * n], box).all():
            raise ValidationError(f"generated box {i} lost interior points to quantization")
    return cloud, boxes
