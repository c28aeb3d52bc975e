"""Flatness-based command synthesis and the high-gain disturbance observer.

Desired acceleration plus yaw map to a desired attitude and collective
thrust; the observer recursively estimates the lumped disturbance (drag,
model mismatch, external forces) from measured velocity and the last
commanded thrust so it can be compensated in the command computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["Command", "ObserverState", "flatness_commands", "observer_step",
           "GRAVITY"]

GRAVITY = 9.8  # m/s^2, world z up
_EZ = np.array([0.0, 0.0, 1.0])
_EPS = 1e-6  # norms below this leave a command direction undefined
# observer gains: momentum and disturbance innovation gains, and the time
# scale zeta they are divided by (zeta and zeta^2)
_ALPHA1 = 2.0
_ALPHA2 = 1.0
_ZETA = 0.05


@dataclass(frozen=True)
class Command:
    """Desired world-from-body attitude and collective thrust (newtons)."""

    attitude: np.ndarray  # (3, 3)
    thrust: float

    def __post_init__(self):
        object.__setattr__(self, "attitude", np.asarray(self.attitude, float))

    def acceleration(self, mass: float, d_hat=None) -> np.ndarray:
        """Translational acceleration this command produces (inverts the
        rigid-body dynamics; d_hat in newtons)."""
        d = np.zeros(3) if d_hat is None else np.asarray(d_hat, float)
        return (self.attitude @ _EZ) * self.thrust / mass \
            - GRAVITY * _EZ + d / mass


def flatness_commands(acc_des, yaw: float, d_hat, mass: float,
                      prev_body_y=None) -> Command:
    """Attitude and collective thrust realizing a desired acceleration.

    The thrust direction is the disturbance-compensated specific force;
    body y is built from the yaw heading. A nearly-free-fall command (thrust
    direction undefined) is an error the caller must clamp. When the thrust
    axis is parallel to the heading vector the previous body y, if supplied,
    breaks the singularity.
    """
    acc_des = np.asarray(acc_des, float)
    d_hat = np.asarray(d_hat, float)
    F = acc_des - d_hat / mass + GRAVITY * _EZ  # specific force, m/s^2
    # norms and cross products of 3-vectors written out (np.linalg.norm of
    # a vector is the square root of its dot product with itself)
    norm_F = math.sqrt(F.dot(F))
    if norm_F < _EPS:
        raise ValueError("degenerate (free-fall) thrust command")
    R_z = F / norm_F
    zx, zy, zz = R_z.tolist()
    hx, hy, hz = float(np.cos(yaw)), float(np.sin(yaw)), 0.0  # heading
    y_axis = np.array([zy * hz - zz * hy, zz * hx - zx * hz,
                       zx * hy - zy * hx])
    ny = math.sqrt(y_axis.dot(y_axis))
    if ny < _EPS:
        if prev_body_y is None:
            raise ValueError("thrust direction parallel to heading; "
                             "no previous body y to fall back on")
        y_axis = np.asarray(prev_body_y, float)
        y_axis = y_axis - (y_axis @ R_z) * R_z
        y_axis /= np.linalg.norm(y_axis)
    else:
        y_axis /= ny
    yx, yy, yz = y_axis.tolist()
    R = np.array([[yy * zz - yz * zy, yx, zx],
                  [yz * zx - yx * zz, yy, zy],
                  [yx * zy - yy * zx, yz, zz]])  # columns x = y cross z, y, z
    return Command(R, mass * norm_F)


@dataclass(frozen=True)
class ObserverState:
    """High-gain observer state: momentum and lumped-disturbance estimates."""

    z1_hat: np.ndarray  # kg m/s
    z2_hat: np.ndarray  # newtons (disturbance estimate)
    mass: float = 1.0
    stability_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "z1_hat", np.asarray(self.z1_hat, float))
        object.__setattr__(self, "z2_hat", np.asarray(self.z2_hat, float))

    @classmethod
    def initial(cls, velocity=None, mass: float = 1.0) -> "ObserverState":
        v = np.zeros(3) if velocity is None else np.asarray(velocity, float)
        return cls(mass * v, np.zeros(3), mass=mass)

    @property
    def disturbance(self) -> np.ndarray:
        return self.z2_hat


def observer_step(obs: ObserverState, v_meas, attitude, thrust: float,
                  dt: float) -> ObserverState:
    """Forward-Euler update from measured velocity and the last command.

    Momentum innovation drives both estimates with gains alpha1/zeta and
    alpha2/zeta^2 (2/0.05 and 1/0.05^2). Steps larger than zeta/2 violate
    the stiff-integration margin and set the stability flag.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    z1 = obs.mass * np.asarray(v_meas, float)
    err = z1 - obs.z1_hat
    thrust_force = np.asarray(attitude, float) @ _EZ * thrust
    z1_dot = thrust_force - obs.mass * GRAVITY * _EZ + obs.z2_hat \
        + (_ALPHA1 / _ZETA) * err
    z2_dot = (_ALPHA2 / _ZETA ** 2) * err
    return replace(obs,
                   z1_hat=obs.z1_hat + dt * z1_dot,
                   z2_hat=obs.z2_hat + dt * z2_dot,
                   stability_flag=dt > _ZETA / 2)
