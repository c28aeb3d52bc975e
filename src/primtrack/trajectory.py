"""Quintic Hermite trajectories: one fifth-order polynomial segment per axis.

A segment is parameterized by its boundary derivatives (position, velocity,
acceleration) at t=0 and t=T rather than by raw coefficients, which makes the
endpoint state the natural optimization variable downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Trajectory",
    "hermite_matrix",
    "evaluate",
    "time_scaled_geometry_check",
]

# Derivative scaling factors for t^i per order: coeff * i! / (i - k)!
_DERIV_FACTORS = {
    0: np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0]),
    1: np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
    2: np.array([0.0, 0.0, 2.0, 6.0, 12.0, 20.0]),
    3: np.array([0.0, 0.0, 0.0, 6.0, 24.0, 60.0]),
}


def power_row(t: float, order: int = 0) -> np.ndarray:
    """Row vector of t-powers for the given derivative order, shape (6,)."""
    if order not in _DERIV_FACTORS:
        raise ValueError(f"unsupported derivative order {order} (max 3)")
    exps = np.maximum(np.arange(6) - order, 0)
    row = _DERIV_FACTORS[order] * float(t) ** exps
    # t^0 terms below the order are already zeroed by the factor table
    return row


@lru_cache(maxsize=64)
def hermite_matrix(horizon_T: float) -> np.ndarray:
    """Map boundary derivatives d = [d_F, d_P] to coefficients a = M d.

    d is ordered (p0, v0, a0, pT, vT, aT). Assembled in closed form from the
    standard quintic Hermite solution; cached per horizon since the horizon
    is constant within a run.
    """
    T = float(horizon_T)
    if not T > 0.0:
        raise ValueError(f"horizon_T must be positive, got {T}")
    T2, T3, T4, T5 = T * T, T ** 3, T ** 4, T ** 5
    M = np.zeros((6, 6))
    # a0..a2 from the initial conditions directly.
    M[0, 0] = 1.0
    M[1, 1] = 1.0
    M[2, 2] = 0.5
    # a3 = (20 h - (8 vT + 12 v0) T - (3 a0 - aT) T^2) / (2 T^3), h = pT - p0
    M[3] = [-20.0 / (2 * T3), -12.0 * T / (2 * T3), -3.0 * T2 / (2 * T3),
            20.0 / (2 * T3), -8.0 * T / (2 * T3), T2 / (2 * T3)]
    # a4 = (-30 h + (14 vT + 16 v0) T + (3 a0 - 2 aT) T^2) / (2 T^4)
    M[4] = [30.0 / (2 * T4), 16.0 * T / (2 * T4), 3.0 * T2 / (2 * T4),
            -30.0 / (2 * T4), 14.0 * T / (2 * T4), -2.0 * T2 / (2 * T4)]
    # a5 = (12 h - 6 (vT + v0) T + (aT - a0) T^2) / (2 T^5)
    M[5] = [-12.0 / (2 * T5), -6.0 * T / (2 * T5), -T2 / (2 * T5),
            12.0 / (2 * T5), -6.0 * T / (2 * T5), T2 / (2 * T5)]
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class Trajectory:
    """Quintic segment per axis: coefficients (3, 6) and horizon T > 0."""

    coefficients: np.ndarray
    horizon_T: float

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, float)
        if coeffs.shape != (3, 6):
            raise ValueError(f"coefficients must be (3, 6), got {coeffs.shape}")
        if not self.horizon_T > 0.0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T}")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_boundary(cls, d_F: np.ndarray, d_P: np.ndarray,
                      horizon_T: float) -> "Trajectory":
        """Solve coefficients from boundary derivatives at t=0 and t=T.

        d_F and d_P are (3, 3): rows are axes, columns (pos, vel, acc).
        """
        M = hermite_matrix(horizon_T)
        d = np.concatenate([np.asarray(d_F, float), np.asarray(d_P, float)],
                           axis=1)  # (3, 6)
        return cls(d @ M.T, float(horizon_T))

    def boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """Recover (d_F, d_P) as (3, 3) arrays by evaluation."""
        dF = np.stack([self.sample(0.0, k) for k in range(3)], axis=1)
        dP = np.stack([self.sample(self.horizon_T, k) for k in range(3)], axis=1)
        return dF, dP

    def sample(self, t: float, order: int = 0) -> np.ndarray:
        """Evaluate the order-th derivative at time t, all three axes."""
        return evaluate(self, t, order)

    def sample_many(self, ts: np.ndarray, order: int = 0) -> np.ndarray:
        """Vectorized evaluation at times ts, shape (len(ts), 3)."""
        ts = np.asarray(ts, float)
        rows = np.stack([power_row(t, order) for t in ts])  # (K, 6)
        return rows @ self.coefficients.T


def evaluate(traj: Trajectory, t: float, order: int = 0) -> np.ndarray:
    """Order-th derivative of the trajectory at t in [0, T], shape (3,)."""
    if not (0.0 <= t <= traj.horizon_T + 1e-12):
        raise ValueError(f"t={t} outside [0, {traj.horizon_T}]")
    return traj.coefficients @ power_row(t, order)


def time_scale(traj: Trajectory, alpha: float) -> Trajectory:
    """Speed-scaled trajectory f_a(t) = f(alpha t) on horizon T/alpha."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    dF, dP = traj.boundary()
    scale = np.array([1.0, alpha, alpha ** 2])
    return Trajectory.from_boundary(dF * scale, dP * scale,
                                    traj.horizon_T / alpha)


def time_scaled_geometry_check(traj: Trajectory, alpha: float,
                               n_samples: int = 1000) -> float:
    """Max position deviation between f(sT) and the alpha-scaled segment.

    Speed scaling should preserve geometry exactly; the returned deviation
    is a numerical-zero witness of that invariance.
    """
    scaled = time_scale(traj, alpha)
    s = np.linspace(0.0, 1.0, n_samples)
    p = traj.sample_many(s * traj.horizon_T, 0)
    p_scaled = scaled.sample_many(s * scaled.horizon_T, 0)
    return float(np.max(np.linalg.norm(p - p_scaled, axis=1)))
