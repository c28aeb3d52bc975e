"""Privileged world model: point clouds, truncated ESDF, forests, raycasts.

The distance field stores, per voxel, the truncated Euclidean distance from
the voxel center to the nearest cloud point. Queries interpolate trilinearly
and return the analytic gradient of the interpolant.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "PointCloud",
    "EsdfGrid",
    "ForestSpec",
    "generate_forest",
    "build_esdf",
    "raycast",
    "save_cloud",
    "load_cloud",
    "save_esdf",
    "load_esdf",
]


@dataclass(frozen=True)
class PointCloud:
    """World-frame obstacle points, shape (N, 3)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, float))
        if pts.size == 0:
            pts = np.zeros((0, 3))
        if pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ForestSpec:
    """Homogeneous Poisson forest of vertical cylindrical trunks.

    The area rectangle spans x in [0, depth] and y in [-width/2, width/2].
    """

    intensity: float = 1.0 / 16.0
    area: tuple[float, float] = (80.0, 80.0)  # (width, depth) meters
    trunk_radius: float = 0.15
    trunk_height: float = 4.0
    seed: int = 0
    spawn_clear_radius: float = 2.0
    min_spacing: float | None = None  # hard-core thinning distance

    def __post_init__(self):
        if not self.intensity > 0:
            raise ValueError("intensity must be positive")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area must be positive")


def trunk_positions(spec: ForestSpec, clear_points=()) -> np.ndarray:
    """Sampled (x, y) trunk centers; clear discs around spawn points are empty."""
    rng = np.random.default_rng(spec.seed)
    width, depth = spec.area
    count = rng.poisson(spec.intensity * width * depth)
    xy = np.column_stack([rng.uniform(0.0, depth, count),
                          rng.uniform(-width / 2, width / 2, count)])
    if spec.min_spacing is not None:
        kept: list[np.ndarray] = []
        for p in xy:
            if all(np.hypot(*(p - k)) >= spec.min_spacing for k in kept):
                kept.append(p)
        xy = np.asarray(kept).reshape(-1, 2)
    for cp in clear_points:
        cp = np.asarray(cp, float)[:2]
        keep = np.linalg.norm(xy - cp, axis=1) > spec.spawn_clear_radius
        xy = xy[keep]
    return xy


def generate_forest(spec: ForestSpec, resolution: float = 0.2,
                    clear_points=()) -> PointCloud:
    """Render the Poisson forest into a point cloud.

    Trunk lateral surfaces are sampled at the grid resolution so a grid at
    that resolution cannot tunnel through them. Deterministic per seed.
    """
    xy = trunk_positions(spec, clear_points)
    if len(xy) == 0:
        return PointCloud(np.zeros((0, 3)))
    n_ang = max(8, int(np.ceil(2 * np.pi * spec.trunk_radius / resolution)))
    angles = np.linspace(0.0, 2 * np.pi, n_ang, endpoint=False)
    ring = spec.trunk_radius * np.column_stack([np.cos(angles), np.sin(angles)])
    n_z = max(2, int(np.ceil(spec.trunk_height / resolution)) + 1)
    zs = np.linspace(0.0, spec.trunk_height, n_z)
    pts = (xy[:, None, None, :] + ring[None, :, None, :])  # (T, A, 1, 2)
    pts = np.broadcast_to(pts, (len(xy), n_ang, n_z, 2)).reshape(-1, 2)
    z = np.broadcast_to(zs[None, None, :], (len(xy), n_ang, n_z)).reshape(-1, 1)
    return PointCloud(np.hstack([pts, z]))


@dataclass(frozen=True)
class EsdfGrid:
    """Voxelized truncated distance field with trilinear queries.

    distance[i, j, k] is the (truncated) distance from the center of voxel
    (i, j, k) to the nearest obstacle point.
    """

    origin: np.ndarray
    resolution: float
    distance: np.ndarray  # (nx, ny, nz)
    d_trunc: float

    def __post_init__(self):
        object.__setattr__(self, "origin", np.asarray(self.origin, float))
        dist = np.asarray(self.distance, float)
        if dist.ndim != 3 or min(dist.shape) < 2:
            raise ValueError("distance grid must be 3-D with dims >= 2")
        object.__setattr__(self, "distance", dist)
        ny, nz = dist.shape[1], dist.shape[2]
        # query constants: the flat field, its x and y strides, the eight
        # corner offsets of a cell, and the origin and lattice bounds as
        # columns (queries work on coordinates of shape (3, N))
        object.__setattr__(self, "_flat", np.ascontiguousarray(dist).ravel())
        object.__setattr__(self, "_s0", ny * nz)
        object.__setattr__(self, "_s1", nz)
        off = np.array([0, 1, nz, nz + 1,
                        ny * nz, ny * nz + 1, ny * nz + nz, ny * nz + nz + 1])
        object.__setattr__(self, "_corner_off", off[:, None])
        object.__setattr__(self, "_origin_col", self.origin[:, None])
        hi = np.array(dist.shape, float)[:, None] - 1.0
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_hi_band", hi + 1e-12)
        object.__setattr__(self, "_hi_cell", np.array(dist.shape)[:, None] - 2)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.distance.shape

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) corners of the voxel-center lattice."""
        low = self.origin + 0.5 * self.resolution
        high = self.origin + (np.array(self.dims) - 0.5) * self.resolution
        return low, high

    # -- interpolation ----------------------------------------------------

    def _cells(self, u: np.ndarray) -> np.ndarray:
        """Low corners (3, N) of the cells holding lattice coordinates u."""
        i = np.floor(u).astype(np.intp)
        return np.minimum(np.maximum(i, 0, out=i), self._hi_cell, out=i)

    def _gather(self, i0: np.ndarray) -> np.ndarray:
        """Corner values (8, N) of the cells with low corners i0 (3, N)."""
        base = i0[0] * self._s0 + i0[1] * self._s1 + i0[2]
        return self._flat.take(self._corner_off + base)

    @staticmethod
    def _cell_eval(c: np.ndarray, f: np.ndarray, with_grad: bool = True):
        """Trilinear value and in-cell derivative (lattice units, (N, 3), or
        None without the gradient) from corners c (8, N) at offsets f (3, N).

        Corner row order follows (x, y, z) bits: 000, 001, 010, ... 111.
        """
        fx, fy, fz = f
        gx, gy, gz = 1.0 - f
        a = c[::2] * gz + c[1::2] * fz  # (4, N)
        v0 = a[0] * gy + a[1] * fy
        v1 = a[2] * gy + a[3] * fy
        val = v0 * gx + v1 * fx
        if not with_grad:
            return val, None
        grad = np.empty((len(val), 3))
        grad[:, 0] = v1 - v0
        grad[:, 1] = (a[1] - a[0]) * gx + (a[3] - a[2]) * fx
        dz0 = (c[1] - c[0]) * gy + (c[3] - c[2]) * fy
        dz1 = (c[5] - c[4]) * gy + (c[7] - c[6]) * fy
        grad[:, 2] = dz0 * gx + dz1 * fx
        return val, grad

    def query(self, p, with_grad: bool = True):
        """(distance, gradient) at world points p, shape (..., 3).

        The gradient is the spatial derivative of the trilinear interpolant:
        exact inside a cell, the average of the two one-sided slopes on
        shared cell faces (a central difference of neighbors at voxel
        centers). The value does not depend on with_grad: it is read from
        the cell that holds the point, the upper one on a face. Queries
        outside the voxel-center lattice are clamped to it: they return the
        boundary value with zero gradient along the clamped axes.
        with_grad=False skips the gradient (returned as None).
        """
        p = np.asarray(p, float)
        shape = p.shape[:-1]
        # lattice coordinates, one row per axis
        u = np.subtract(p.reshape(-1, 3).T, self._origin_col, order="C")
        u /= self.resolution
        u -= 0.5
        if not with_grad:
            np.minimum(np.maximum(u, 0.0, out=u), self._hi, out=u)
            i0 = self._cells(u)
            val, _ = self._cell_eval(self._gather(i0), u - i0, False)
            return val.reshape(shape), None
        clamped = (u < -1e-12) | (u > self._hi_band)
        np.minimum(np.maximum(u, 0.0, out=u), self._hi, out=u)
        h = 1e-3  # lattice units; selects the two cells sharing a face
        im = self._cells(u - h)
        ip = self._cells(u + h)
        split = im != ip
        mixed = np.flatnonzero(split[0] | split[1] | split[2])
        n, k = u.shape[1], len(mixed)
        cells, at = im, u
        if k:
            # a point near a face also needs the upper cell's slope, and its
            # value from the cell the gradient-free query reads: all three
            # kinds of column go through one batch
            um = u[:, mixed]
            cells = np.concatenate([im, ip[:, mixed], self._cells(um)], axis=1)
            at = np.concatenate([u, um, um], axis=1)
        val, grad = self._cell_eval(self._gather(cells), at - cells)
        if k:
            grad[mixed] = 0.5 * (grad[mixed] + grad[n:n + k])
            val[mixed] = val[n + k:]
            val, grad = val[:n], grad[:n]
        grad /= self.resolution
        grad[clamped.T] = 0.0
        return val.reshape(shape), grad.reshape(p.shape)


_D_TRUNC = 4.0  # field truncation distance, meters


def build_esdf(cloud: PointCloud, origin, dims,
               resolution: float) -> EsdfGrid:
    """Exact distance field over a voxel grid, truncated at 4 m.

    Per-voxel nearest-point distances are computed with a KD-tree, which
    matches the brute-force definition exactly while staying fast; an empty
    cloud yields a uniform field at the truncation distance.
    """
    dims = tuple(int(n) for n in dims)
    if min(dims) < 2:
        raise ValueError("dims must each be >= 2")
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    origin = np.asarray(origin, float)
    if len(cloud) == 0:
        return EsdfGrid(origin, resolution, np.full(dims, _D_TRUNC), _D_TRUNC)
    # voxel centres origin + (i + 0.5) * resolution, written axis by axis
    # into one array so that no index-grid temporaries are allocated
    centers = np.empty((*dims, 3))
    centers[..., 0] = ((np.arange(dims[0]) + 0.5) * resolution
                       + origin[0])[:, None, None]
    centers[..., 1] = ((np.arange(dims[1]) + 0.5) * resolution
                       + origin[1])[None, :, None]
    centers[..., 2] = (np.arange(dims[2]) + 0.5) * resolution + origin[2]
    # an unbalanced, non-compacted tree builds faster and answers the same
    tree = cKDTree(cloud.points, balanced_tree=False, compact_nodes=False)
    dist, _ = tree.query(centers.reshape(-1, 3), workers=-1,
                         distance_upper_bound=_D_TRUNC)
    np.minimum(dist, _D_TRUNC, out=dist)
    return EsdfGrid(origin, resolution, dist.reshape(dims), _D_TRUNC)


def raycast(grid: EsdfGrid, p0, p1, occupancy_threshold: float) -> bool:
    """True iff every sample on the segment clears the occupancy threshold.

    Samples are spaced half a voxel apart and include both endpoints.
    """
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    length = float(np.linalg.norm(p1 - p0))
    n = max(2, int(np.ceil(length / (grid.resolution / 2))) + 1)
    s = np.linspace(0.0, 1.0, n)[:, None]
    pts = p0 + s * (p1 - p0)
    dist, _ = grid.query(pts, with_grad=False)
    return bool(np.all(dist > occupancy_threshold))


# -- file formats ---------------------------------------------------------

def save_cloud(path, cloud: PointCloud) -> None:
    """Whitespace-separated `x y z` text lines, one point per line."""
    np.savetxt(path, cloud.points, fmt="%.6f")


def load_cloud(path) -> PointCloud:
    pts = np.loadtxt(path, ndmin=2)
    if pts.size == 0:
        pts = np.zeros((0, 3))
    return PointCloud(pts)


_ESDF_MAGIC = b"PTESDF01"


def save_esdf(path, grid: EsdfGrid) -> None:
    """Binary dump: magic, origin (3 f64), dims (3 u32), resolution (f64),
    d_trunc (f64), then row-major (x-major) float32 distances, little-endian.
    """
    with open(path, "wb") as f:
        f.write(_ESDF_MAGIC)
        f.write(struct.pack("<3d", *grid.origin))
        f.write(struct.pack("<3I", *grid.dims))
        f.write(struct.pack("<2d", grid.resolution, grid.d_trunc))
        f.write(grid.distance.astype("<f4").tobytes(order="C"))


def load_esdf(path) -> EsdfGrid:
    with open(path, "rb") as f:
        magic = f.read(8)
        if magic != _ESDF_MAGIC:
            raise ValueError(f"not an ESDF dump (magic {magic!r})")
        origin = struct.unpack("<3d", f.read(24))
        dims = struct.unpack("<3I", f.read(12))
        resolution, d_trunc = struct.unpack("<2d", f.read(16))
        data = np.frombuffer(f.read(), dtype="<f4").astype(float)
    return EsdfGrid(np.array(origin), resolution,
                    data.reshape(dims), d_trunc)
