"""Pinhole camera model, grid-cell bookkeeping, and world/pixel transforms.

Camera frame convention: x forward, y left, z up. Pixels: u rightward,
v downward. The image is divided into M_phi x M_theta cells of DS x DS
pixels; cell (col, row) corresponds to lattice anchor (i, j) by index
mirroring (ascending azimuth is leftward, ascending polar is upward).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .primitives import LatticeConfig, build_library, spherical_endpoint

__all__ = ["CameraModel", "anchor_to_cell", "cell_to_anchor"]

DS = 32  # grid cell edge, pixels: the image downsampling rate

# Rows map camera-frame (x fwd, y left, z up) to optical (right, down, fwd).
_CAM_TO_OPT = np.array([[0.0, -1.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics, image geometry, and the world-from-camera rigid
    transform; for_lattice builds it and with_pose places it."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    rotation: np.ndarray = None  # type: ignore[assignment]  # world-from-camera
    position: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        rot = np.eye(3) if self.rotation is None else np.asarray(self.rotation, float)
        pos = np.zeros(3) if self.position is None else np.asarray(self.position, float)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "position", pos)

    @classmethod
    def for_lattice(cls, cfg: LatticeConfig) -> "CameraModel":
        """Camera matching a lattice at the origin: the lattice's fields of
        view, and one DS x DS pixel cell per anchor. Anchors are equiangular
        and cells equal in pixels, so a wide or fine lattice can put an
        anchor endpoint outside its own cell; that raises a ValueError."""
        width, height = cfg.m_phi * DS, cfg.m_theta * DS
        fx = (width / 2) / np.tan(cfg.fov_h / 2)
        fy = (height / 2) / np.tan(cfg.fov_v / 2)
        cam = cls(fx, fy, width / 2, height / 2, width, height)
        u, v, _ = cam.project_camera(
            spherical_endpoint(*build_library(cfg), cfg.r))
        col, row = anchor_to_cell(*np.divmod(np.arange(cfg.n_cells),
                                             cfg.m_theta), cfg)
        stray = np.flatnonzero((np.floor(u / DS) != col)
                               | (np.floor(v / DS) != row))
        if len(stray):
            raise ValueError(f"fov_h: anchors {stray.tolist()} project "
                             "outside their own image cells; narrow the "
                             "field of view or use fewer cells")
        return cam

    def with_pose(self, rotation, position) -> "CameraModel":
        return replace(self, rotation=np.asarray(rotation, float),
                       position=np.asarray(position, float))

    # -- transforms --------------------------------------------------------

    def world_to_camera(self, p_w) -> np.ndarray:
        return (np.asarray(p_w, float) - self.position) @ self.rotation

    def camera_to_world(self, p_c) -> np.ndarray:
        return np.asarray(p_c, float) @ self.rotation.T + self.position

    def project_camera(self, p_c) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, depth) for camera-frame points; depth is the forward range."""
        p_c = np.asarray(p_c, float)
        opt = p_c @ _CAM_TO_OPT.T
        z = opt[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * opt[..., 0] / z + self.cx
            v = self.fy * opt[..., 1] / z + self.cy
        return u, v, z

    def project_world(self, p_w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.project_camera(self.world_to_camera(p_w))

    def unproject_camera(self, u, v, depth) -> np.ndarray:
        """Camera-frame point from a pixel and forward depth."""
        x = (np.asarray(u, float) - self.cx) / self.fx
        y = (np.asarray(v, float) - self.cy) / self.fy
        opt = np.stack(np.broadcast_arrays(x, y, np.ones_like(x)), axis=-1) \
            * np.asarray(depth, float)[..., None]
        return opt @ _CAM_TO_OPT

    def unproject(self, u, v, depth) -> np.ndarray:
        """World point from a pixel and forward depth."""
        return self.camera_to_world(self.unproject_camera(u, v, depth))

    # -- visibility and cells ----------------------------------------------

    def in_frustum(self, p_c, max_depth: float | None = None) -> np.ndarray:
        """True where a camera-frame point projects inside the image."""
        u, v, z = self.project_camera(p_c)
        ok = (z > 1e-9) & (u >= 0) & (u < self.width) & (v >= 0) & (v < self.height)
        if max_depth is not None:
            ok &= z <= max_depth
        return ok

    def pixel_to_cell(self, u, v) -> tuple[np.ndarray, np.ndarray]:
        """(col, row) grid cell indices containing a pixel."""
        col = np.clip(np.floor(np.asarray(u) / DS).astype(int), 0,
                      self.width // DS - 1)
        row = np.clip(np.floor(np.asarray(v) / DS).astype(int), 0,
                      self.height // DS - 1)
        return col, row


def anchor_to_cell(i: int, j: int, cfg: LatticeConfig) -> tuple[int, int]:
    """Image grid cell (col, row) of lattice anchor (i, j)."""
    return cfg.m_phi - 1 - i, cfg.m_theta - 1 - j


def cell_to_anchor(col: int, row: int, cfg: LatticeConfig) -> tuple[int, int]:
    """Lattice anchor (i, j) owning image grid cell (col, row)."""
    return cfg.m_phi - 1 - col, cfg.m_theta - 1 - row
