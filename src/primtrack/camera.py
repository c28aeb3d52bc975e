"""Pinhole camera model, grid-cell bookkeeping, and world/pixel transforms.

Camera frame convention: x forward, y left, z up. Pixels: u rightward,
v downward. The image is divided into M_phi x M_theta cells of ds x ds
pixels; cell (col, row) corresponds to lattice anchor (i, j) by index
mirroring (ascending azimuth is leftward, ascending polar is upward).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .primitives import LatticeConfig

__all__ = ["CameraModel", "anchor_to_cell", "cell_to_anchor"]

# Rows map camera-frame (x fwd, y left, z up) to optical (right, down, fwd).
_CAM_TO_OPT = np.array([[0.0, -1.0, 0.0],
                        [0.0, 0.0, -1.0],
                        [1.0, 0.0, 0.0]])


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics, image geometry, and the world-from-camera rigid transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 160
    height: int = 96
    ds: int = 32
    rotation: np.ndarray = None  # type: ignore[assignment]  # world-from-camera
    position: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        rot = np.eye(3) if self.rotation is None else np.asarray(self.rotation, float)
        pos = np.zeros(3) if self.position is None else np.asarray(self.position, float)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "position", pos)

    @classmethod
    def from_fov(cls, fov_h: float, fov_v: float, width: int = 160,
                 height: int = 96, ds: int = 32, **kw) -> "CameraModel":
        fx = (width / 2) / np.tan(fov_h / 2)
        fy = (height / 2) / np.tan(fov_v / 2)
        return cls(fx, fy, width / 2, height / 2, width, height, ds, **kw)

    @classmethod
    def for_lattice(cls, cfg: LatticeConfig, **kw) -> "CameraModel":
        """Camera matching a lattice: grid counts times downsampling rate."""
        ds = kw.pop("ds", 32)
        return cls.from_fov(cfg.fov_h, cfg.fov_v, width=cfg.m_phi * ds,
                            height=cfg.m_theta * ds, ds=ds, **kw)

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
        col = np.clip(np.floor(np.asarray(u) / self.ds).astype(int), 0,
                      self.width // self.ds - 1)
        row = np.clip(np.floor(np.asarray(v) / self.ds).astype(int), 0,
                      self.height // self.ds - 1)
        return col, row


def anchor_to_cell(i: int, j: int, cfg: LatticeConfig) -> tuple[int, int]:
    """Image grid cell (col, row) of lattice anchor (i, j)."""
    return cfg.m_phi - 1 - i, cfg.m_theta - 1 - j


def cell_to_anchor(col: int, row: int, cfg: LatticeConfig) -> tuple[int, int]:
    """Lattice anchor (i, j) owning image grid cell (col, row)."""
    return cfg.m_phi - 1 - col, cfg.m_theta - 1 - row
