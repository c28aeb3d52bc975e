"""Runtime target-state maintenance and yaw planning.

A constant-velocity Kalman filter tracks the target; candidate detections
are gated by the position change a tentative update would cause, which
suppresses false positives without predicting the target's future path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "TargetEstimate",
    "predict",
    "gated_update",
    "plan_yaw",
]

_H = np.hstack([np.eye(3), np.zeros((3, 3))])  # measurement matrix
_POSITION_VAR = 1.0  # initial position variance of a new track, m^2
_VELOCITY_VAR = 4.0  # initial velocity variance of a new track, m^2/s^2


def process_noise(q: float, dt: float) -> np.ndarray:
    """Exact discretization of continuous white acceleration with intensity q."""
    I3 = np.eye(3)
    return q * np.block([[dt ** 3 / 3 * I3, dt ** 2 / 2 * I3],
                         [dt ** 2 / 2 * I3, dt * I3]])


@dataclass(frozen=True)
class TargetEstimate:
    """Position/velocity state with covariance and gating parameters."""

    x: np.ndarray  # (6,): position, velocity
    P: np.ndarray  # (6, 6)
    q: float = 4.0  # process-noise intensity (m^2/s^3); deliberately large
    R_m: np.ndarray = None  # type: ignore[assignment]
    gate: float = 2.0  # max accepted position innovation (m)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "P", np.asarray(self.P, float))
        if self.R_m is None:
            object.__setattr__(self, "R_m", 0.04 * np.eye(3))
        else:
            object.__setattr__(self, "R_m", np.asarray(self.R_m, float))

    @classmethod
    def from_position(cls, position) -> "TargetEstimate":
        x = np.concatenate([np.asarray(position, float), np.zeros(3)])
        P = np.diag([_POSITION_VAR] * 3 + [_VELOCITY_VAR] * 3)
        return cls(x, P)

    @property
    def position(self) -> np.ndarray:
        return self.x[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.x[3:]

    def kalman_gain(self) -> np.ndarray:
        S = _H @ self.P @ _H.T + self.R_m
        return self.P @ _H.T @ np.linalg.inv(S)


def predict(est: TargetEstimate, dt: float) -> TargetEstimate:
    """Constant-velocity propagation; no future-trajectory extrapolation."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    x = F @ est.x
    P = F @ est.P @ F.T + process_noise(est.q, dt)
    return replace(est, x=x, P=P)


def gated_update(est: TargetEstimate, detections):
    """Commit the most consistent in-gate detection, if any.

    Every detection is tentatively applied with the current Kalman gain; the
    position change it would cause is the inconsistency. Detections beyond
    the gate are rejected outright; among the rest the smallest-inconsistency
    one is committed. Returns (estimate, accepted index or None).
    """
    detections = [np.asarray(d, float) for d in detections]
    if not detections:
        return est, None
    K = est.kalman_gain()
    best, best_inc = None, est.gate
    for idx, z in enumerate(detections):
        innovation = z - _H @ est.x
        inconsistency = float(np.linalg.norm((K @ innovation)[:3]))
        if inconsistency <= best_inc:
            best, best_inc = idx, inconsistency
    if best is None:
        return est, None
    z = detections[best]
    x = est.x + K @ (z - _H @ est.x)
    I_KH = np.eye(6) - K @ _H
    P = I_KH @ est.P @ I_KH.T + K @ est.R_m @ K.T  # Joseph form
    return replace(est, x=x, P=P), best


_OMEGA_MAX = 2.5  # yaw rate limit, rad/s


def plan_yaw(target_position, quad_position, current_yaw: float,
             dt: float, lost: bool = False,
             last_bearing: float | None = None) -> float:
    """Yaw toward the estimated target (or the lost bearing), rate-limited
    to 2.5 rad/s."""
    if lost and last_bearing is not None:
        desired = last_bearing
    else:
        delta = np.asarray(target_position, float) - np.asarray(quad_position, float)
        if np.hypot(delta[0], delta[1]) < 1e-9:
            return current_yaw
        desired = float(np.arctan2(delta[1], delta[0]))
    err = (desired - current_yaw + np.pi) % (2 * np.pi) - np.pi
    step = np.clip(err, -_OMEGA_MAX * dt, _OMEGA_MAX * dt)
    return float(current_yaw + step)
