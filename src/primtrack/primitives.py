"""Spherical state-lattice anchors over the camera FOV.

Anchors are trajectory endpoints placed at grid-cell-center angles on a
sphere of radius r in the camera frame (x forward, y left, z up). Raw
predictions refine an anchor by tanh-bounded angular/radial offsets and
carry denormalized end derivatives; `costs.CostEngine.decode` decodes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "LatticeConfig",
    "build_library",
    "horizon",
    "spherical_endpoint",
]


def spherical_endpoint(theta: float, phi: float, r: float) -> np.ndarray:
    """Camera-frame point (r cos(theta)cos(phi), r cos(theta)sin(phi), r sin(theta))."""
    theta, phi, r = np.broadcast_arrays(np.asarray(theta, float), phi, r)
    ct = np.cos(theta)
    return np.asarray(r)[..., None] * np.stack(
        [ct * np.cos(phi), ct * np.sin(phi), np.sin(theta)], axis=-1)


@dataclass(frozen=True)
class LatticeConfig:
    """Anchor lattice geometry: grid counts, FOV, planning radius, offset ranges.

    The offset ranges d_theta / d_phi are 1.25x the angular half-pitch of
    the grid, so neighboring cells overlap slightly at their shared boundary.
    Errors name the offending field first, as "field: reason".
    """

    m_phi: int = 5
    m_theta: int = 3
    fov_h: float = np.deg2rad(90.0)
    fov_v: float = 2.0 * np.arctan(np.tan(np.deg2rad(45.0)) * 9.0 / 16.0)
    r: float = 5.0
    d_theta: float = field(init=False)
    d_phi: float = field(init=False)

    def __post_init__(self):
        for name in ("m_phi", "m_theta"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name}: grid counts must be >= 1")
        for name in ("fov_h", "fov_v"):
            if not 0.0 < getattr(self, name) < np.pi:
                raise ValueError(f"{name}: FOV angles must lie strictly "
                                 "between 0 and 180 degrees")
        if not self.r > 0:
            raise ValueError("r: planning radius must be positive")
        object.__setattr__(self, "d_phi", 1.25 * self.fov_h / (2 * self.m_phi))
        object.__setattr__(self, "d_theta",
                           1.25 * self.fov_v / (2 * self.m_theta))

    @property
    def n_cells(self) -> int:
        return self.m_phi * self.m_theta

    def azimuths(self) -> np.ndarray:
        """Cell-center azimuth angles, ascending (rightmost to leftmost)."""
        pitch = self.fov_h / self.m_phi
        return -self.fov_h / 2 + (np.arange(self.m_phi) + 0.5) * pitch

    def polars(self) -> np.ndarray:
        """Cell-center polar angles, ascending (lowest to highest)."""
        pitch = self.fov_v / self.m_theta
        return -self.fov_v / 2 + (np.arange(self.m_theta) + 0.5) * pitch


@lru_cache(maxsize=16)
def build_library(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (thetas, phis) of all M_phi * M_theta anchors at grid-cell
    centers, in flat order k = i * M_theta + j (i over azimuth, j over polar).
    Every anchor lies on the sphere of radius cfg.r."""
    thetas = np.tile(cfg.polars(), cfg.m_phi)
    phis = np.repeat(cfg.azimuths(), cfg.m_theta)
    thetas.setflags(write=False)
    phis.setflags(write=False)
    return thetas, phis


def horizon(cfg: LatticeConfig, alpha: float, v_max: float) -> float:
    """Fixed execution time T = 2 r / (alpha v_max)."""
    if not (alpha > 0 and v_max > 0):
        raise ValueError("scales must be positive")
    return 2.0 * cfg.r / (alpha * v_max)
