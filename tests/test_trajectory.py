"""Quintic segment algebra: boundary solves, derivatives, time scaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from primtrack.trajectory import (Trajectory, evaluate, hermite_matrix,
                                  power_row, time_scale,
                                  time_scaled_geometry_check)


def test_power_row_orders():
    t = 1.7
    # d^k/dt^k of t^i, evaluated by hand
    assert np.allclose(power_row(t, 0), [1, t, t**2, t**3, t**4, t**5])
    assert np.allclose(power_row(t, 1),
                       [0, 1, 2 * t, 3 * t**2, 4 * t**3, 5 * t**4])
    assert np.allclose(power_row(t, 2),
                       [0, 0, 2, 6 * t, 12 * t**2, 20 * t**3])
    assert np.allclose(power_row(t, 3), [0, 0, 0, 6, 24 * t, 60 * t**2])


def test_power_row_rejects_high_order():
    with pytest.raises(ValueError):
        power_row(0.5, 4)


def test_hermite_matrix_is_inverse_of_constraint_matrix():
    # independent oracle: M must invert the boundary-evaluation matrix
    for T in (0.3, 1.25, 2.0, 5.0):
        A = np.stack([power_row(0.0, k) for k in range(3)]
                     + [power_row(T, k) for k in range(3)])
        assert np.allclose(hermite_matrix(T) @ A, np.eye(6), atol=1e-9)


def test_hermite_matrix_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        hermite_matrix(0.0)
    with pytest.raises(ValueError):
        hermite_matrix(-1.0)


def test_boundary_round_trip_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        d_F = rng.normal(size=(3, 3)) * 3
        d_P = rng.normal(size=(3, 3)) * 3
        T = float(rng.uniform(0.2, 4.0))
        traj = Trajectory.from_boundary(d_F, d_P, T)
        rF, rP = traj.boundary()
        assert np.allclose(rF, d_F, atol=1e-9)
        assert np.allclose(rP, d_P, atol=1e-9)


def test_evaluate_bounds_and_shapes():
    traj = Trajectory.from_boundary(np.zeros((3, 3)), np.eye(3), 2.0)
    assert traj.sample(0.7).shape == (3,)
    with pytest.raises(ValueError):
        evaluate(traj, -0.1)
    with pytest.raises(ValueError):
        evaluate(traj, 2.1)


def test_sample_many_matches_scalar_sampling():
    rng = np.random.default_rng(1)
    traj = Trajectory.from_boundary(rng.normal(size=(3, 3)),
                                    rng.normal(size=(3, 3)), 1.5)
    ts = np.linspace(0.0, 1.5, 17)
    for order in range(3):
        many = traj.sample_many(ts, order)
        one = np.stack([traj.sample(t, order) for t in ts])
        assert np.allclose(many, one, atol=1e-12)


def test_trajectory_validates_shape_and_horizon():
    with pytest.raises(ValueError):
        Trajectory(np.zeros((2, 6)), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.zeros((3, 6)), 0.0)


def test_time_scale_preserves_geometry_and_scales_derivatives():
    rng = np.random.default_rng(2)
    traj = Trajectory.from_boundary(rng.normal(size=(3, 3)),
                                    rng.normal(size=(3, 3)) * 2, 1.25)
    for alpha in (0.5, 1.0, 2.0, 3.7):
        scaled = time_scale(traj, alpha)
        assert np.isclose(scaled.horizon_T, traj.horizon_T / alpha)
        assert time_scaled_geometry_check(traj, alpha) < 1e-9
        # velocity along the scaled segment is alpha times the original
        t = 0.4 * traj.horizon_T
        assert np.allclose(scaled.sample(t / alpha, 1),
                           alpha * traj.sample(t, 1), atol=1e-9)
        assert np.allclose(scaled.sample(t / alpha, 2),
                           alpha**2 * traj.sample(t, 2), atol=1e-8)


def test_time_scale_rejects_nonpositive():
    traj = Trajectory.from_boundary(np.zeros((3, 3)), np.eye(3), 1.0)
    with pytest.raises(ValueError):
        time_scale(traj, 0.0)


_STATES = arrays(float, (3, 3), elements=st.floats(-50.0, 50.0))


@settings(max_examples=200, deadline=None)
@given(d_F=_STATES, d_P=_STATES, T=st.floats(0.1, 10.0))
def test_boundary_round_trip(d_F, d_P, T):
    # sampled at 0 and T, orders 0-2 give back the boundary states
    traj = Trajectory.from_boundary(d_F, d_P, T)
    for order in range(3):
        assert np.allclose(traj.sample(0.0, order), d_F[:, order],
                           rtol=1e-9, atol=1e-9)
        assert np.allclose(traj.sample(T, order), d_P[:, order],
                           rtol=1e-7, atol=1e-7)
