"""Thrust-attitude command synthesis and the disturbance observer."""

import numpy as np
import pytest

from primtrack.control import (GRAVITY, Command, ObserverState,
                               flatness_commands, observer_step)

_EZ = np.array([0.0, 0.0, 1.0])


def test_hover_command():
    cmd = flatness_commands(np.zeros(3), 0.0, np.zeros(3), mass=1.3)
    assert np.isclose(cmd.thrust, 1.3 * GRAVITY)
    assert np.allclose(cmd.attitude, np.eye(3), atol=1e-12)
    assert np.allclose(cmd.acceleration(1.3), 0.0, atol=1e-12)


def test_round_trip_random_commands():
    rng = np.random.default_rng(0)
    mass = 1.0
    for _ in range(500):
        acc = rng.uniform(-4.0, 4.0, 3)
        d = rng.uniform(-3.0, 3.0, 3)
        yaw = rng.uniform(-np.pi, np.pi)
        cmd = flatness_commands(acc, yaw, d, mass)
        assert np.allclose(cmd.acceleration(mass, d), acc, atol=1e-9)
        R = cmd.attitude
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(R), 1.0, atol=1e-9)
        # body y is built perpendicular to the commanded heading vector
        heading = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        assert abs(R[:, 1] @ heading) < 1e-9


def test_degenerate_commands_raise():
    with pytest.raises(ValueError):
        flatness_commands([0.0, 0.0, -GRAVITY], 0.0, np.zeros(3), 1.0)
    # thrust axis parallel to the heading: needs the previous body y
    with pytest.raises(ValueError):
        flatness_commands([50.0, 0.0, -GRAVITY], 0.0, np.zeros(3), 1.0)
    cmd = flatness_commands([50.0, 0.0, -GRAVITY], 0.0, np.zeros(3), 1.0,
                            prev_body_y=np.array([0.0, 1.0, 0.0]))
    assert np.allclose(cmd.acceleration(1.0), [50.0, 0.0, -GRAVITY],
                       atol=1e-9)


def test_observer_validation_and_flag():
    obs = ObserverState.initial()
    out = observer_step(obs, np.zeros(3), np.eye(3), GRAVITY, dt=0.04)
    assert out.stability_flag  # dt above zeta/2 breaks the stiff margin
    out2 = observer_step(obs, np.zeros(3), np.eye(3), GRAVITY, dt=0.001)
    assert not out2.stability_flag
    with pytest.raises(ValueError):
        observer_step(obs, np.zeros(3), np.eye(3), GRAVITY, dt=0.0)


def _simulate(d_true, t_end, dt=0.001, mass=1.0):
    """Plant at hover thrust under a constant disturbance force."""
    v = np.zeros(3)
    obs = ObserverState.initial(v, mass=mass)
    thrust = mass * GRAVITY
    for _ in range(int(t_end / dt)):
        obs = observer_step(obs, v, np.eye(3), thrust, dt)
        v = v + dt * (d_true / mass)
    return obs


def test_observer_tracks_constant_disturbance():
    d = np.array([2.0, 0.0, 0.0])
    obs = _simulate(d, t_end=20 * 0.05)
    assert np.linalg.norm(obs.disturbance - d) <= 0.05 * np.linalg.norm(d)


def test_observer_zero_disturbance_no_drift():
    obs = _simulate(np.zeros(3), t_end=10.0)
    assert np.linalg.norm(obs.disturbance) < 1e-6


def test_command_acceleration_inverts_dynamics():
    R = np.eye(3)
    cmd = Command(R, 2.0 * GRAVITY)
    acc = cmd.acceleration(2.0, d_hat=np.array([0.0, 0.0, 1.0]))
    assert np.allclose(acc, [0.0, 0.0, 0.5], atol=1e-12)
