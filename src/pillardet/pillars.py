"""BEV pillarization: point-to-pillar assignment, 11-d point augmentation, scatter.

Each point maps to exactly one grid cell via floor((x - x_min) / pillar_size)
on the half-open grid; pillars are full-height columns, never split in z.
No sampling or per-pillar point cap is applied. At run time ``pillar_segments``'
arrays feed ``augment`` with every point at once; ``Pillar``, ``assign_pillars``,
``augment_points`` and ``scatter`` are one-pillar views of the same steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pointcloud import PointCloud, Range3D

AUGMENTED_DIM = 11


@dataclass(frozen=True)
class GridConfig:
    """BEV grid geometry: spatial range plus pillar footprint in meters."""

    range: Range3D
    pillar_x: float
    pillar_y: float

    def __post_init__(self):
        if not (self.pillar_x > 0.0 and self.pillar_y > 0.0):
            raise ValidationError("pillar sizes must be positive")
        r = self.range
        # pillar_segments sorts the int64 cell keys iy * nx + ix, the largest of which is nx * ny - 1
        cells_per_axis = ((r.x_max - r.x_min) / self.pillar_x, (r.y_max - r.y_min) / self.pillar_y)
        if not all(map(math.isfinite, cells_per_axis)) or self.nx * self.ny >= 2**63:
            raise ValidationError(
                f"pillar size ({self.pillar_x}, {self.pillar_y}) over range x [{r.x_min}, {r.x_max}),"
                f" y [{r.y_min}, {r.y_max}) gives more grid cells than int64 cell keys can index"
            )
        if self.nx < 1 or self.ny < 1:
            raise ValidationError("grid must have at least one cell per axis")

    @property
    def nx(self) -> int:
        return int(math.ceil((self.range.x_max - self.range.x_min) / self.pillar_x))

    @property
    def ny(self) -> int:
        return int(math.ceil((self.range.y_max - self.range.y_min) / self.pillar_y))


@dataclass(frozen=True)
class Pillar:
    """One non-empty grid cell and the indices of its points in the source cloud."""

    ix: int
    iy: int
    point_indices: np.ndarray

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.point_indices, dtype=np.int64))
        if idx.ndim != 1 or idx.size < 1:
            raise ValidationError("a pillar must hold at least one point index")
        idx.setflags(write=False)
        object.__setattr__(self, "point_indices", idx)

    @property
    def count(self) -> int:
        return int(self.point_indices.size)


def pillar_segments(cloud: PointCloud, cfg: GridConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group every point into its pillar in one array pass: ``(order, bounds, ix, iy)``.

    Pillar k of P, sorted by (iy, ix), is cell (ix[k], iy[k]) and holds the points
    ``order[bounds[k]:bounds[k + 1]]`` in ascending index order. The cloud must
    already be cropped to cfg.range; an out-of-range point is rejected with its index.
    """
    xyz = cloud.xyz
    in_range = cfg.range.contains_mask(xyz)
    if not in_range.all():
        bad = int(np.flatnonzero(~in_range)[0])
        raise ValidationError(f"point {bad} lies outside the grid range")
    ix = np.floor((xyz[:, 0] - cfg.range.x_min) / cfg.pillar_x).astype(np.int64)
    iy = np.floor((xyz[:, 1] - cfg.range.y_min) / cfg.pillar_y).astype(np.int64)
    # division can round onto the upper edge for points just inside the range
    np.minimum(ix, cfg.nx - 1, out=ix)
    np.minimum(iy, cfg.ny - 1, out=iy)

    order = np.lexsort((ix, iy))  # stable, so each pillar's point indices ascend
    key = iy[order] * cfg.nx + ix[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # every key is >= 0, so the first point starts a pillar
    return order, np.append(starts, key.size), ix[order[starts]], iy[order[starts]]


def assign_pillars(cloud: PointCloud, cfg: GridConfig) -> list[Pillar]:
    """The pillars of ``pillar_segments`` as ``Pillar`` objects, sorted by (iy, ix)."""
    order, bounds, ix, iy = pillar_segments(cloud, cfg)
    return [Pillar(x, y, order[s:e]) for x, y, s, e in zip(ix.tolist(), iy.tolist(), bounds[:-1], bounds[1:])]


def augment(pts: np.ndarray, ix: int | np.ndarray, iy: int | np.ndarray, cfg: GridConfig) -> np.ndarray:
    """Per-point 11-d features of (N, 5) points in cell (ix, iy), or with one cell per
    point: raw (x, y, z, r, t), offsets from the cell center (z against the mid-height
    of the full z extent), and coordinates relative to the range minimum corner."""
    out = np.empty((pts.shape[0], AUGMENTED_DIM))
    out[:, :5] = pts
    out[:, 5] = pts[:, 0] - (cfg.range.x_min + (ix + 0.5) * cfg.pillar_x)
    out[:, 6] = pts[:, 1] - (cfg.range.y_min + (iy + 0.5) * cfg.pillar_y)
    out[:, 7] = pts[:, 2] - 0.5 * (cfg.range.z_min + cfg.range.z_max)
    out[:, 8] = pts[:, 0] - cfg.range.x_min
    out[:, 9] = pts[:, 1] - cfg.range.y_min
    out[:, 10] = pts[:, 2] - cfg.range.z_min
    return out


def augment_points(cloud: PointCloud, pillar: Pillar, cfg: GridConfig) -> np.ndarray:
    """``augment`` of one pillar's points, shape (N_v, 11)."""
    if pillar.point_indices.max(initial=-1) >= len(cloud) or pillar.point_indices.min(initial=0) < 0:
        raise ValidationError("pillar indexes points outside the cloud")
    return augment(cloud.data[pillar.point_indices], pillar.ix, pillar.iy, cfg)


@dataclass(frozen=True)
class BEVCanvas:
    """Dense pseudo-image (D, ny, nx)."""

    data: np.ndarray


def scatter(pillar_features, cfg: GridConfig, dim: int) -> BEVCanvas:
    """Place one (dim,) feature vector per pillar on a zeroed canvas.

    Cells not covered by a pillar stay exactly zero; duplicate cells are
    rejected.
    """
    data = np.zeros((dim, cfg.ny, cfg.nx), dtype=np.float32)
    occupied = np.zeros((cfg.ny, cfg.nx), dtype=bool)
    for pillar, feat in pillar_features:
        if np.shape(feat) != (dim,):
            raise ValidationError(f"feature of shape {np.shape(feat)} does not have width dim={dim}")
        if occupied[pillar.iy, pillar.ix]:
            raise ValidationError(f"duplicate pillar cell (ix={pillar.ix}, iy={pillar.iy})")
        data[:, pillar.iy, pillar.ix] = feat
        occupied[pillar.iy, pillar.ix] = True
    return BEVCanvas(data)
