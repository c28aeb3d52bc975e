"""Constant-velocity filtering, gated updates, yaw planning."""

import numpy as np
import pytest

from primtrack.tracker import (TargetEstimate, gated_update, plan_yaw,
                               predict, process_noise)


def test_process_noise_matches_analytic_integral():
    # integral of F(s) G q G' F(s)' ds for the CV model, computed by hand
    q, dt = 2.5, 0.1
    Q = process_noise(q, dt)
    assert np.allclose(Q[:3, :3], q * dt**3 / 3 * np.eye(3))
    assert np.allclose(Q[:3, 3:], q * dt**2 / 2 * np.eye(3))
    assert np.allclose(Q[3:, 3:], q * dt * np.eye(3))
    assert np.allclose(Q, Q.T)
    assert np.all(np.linalg.eigvalsh(Q) >= -1e-12)


def test_predict_propagates_constant_velocity():
    est = TargetEstimate(np.array([1.0, 2.0, 3.0, 0.5, -0.5, 0.0]),
                         np.eye(6))
    out = predict(est, 2.0)
    assert np.allclose(out.position, [2.0, 1.0, 3.0])
    assert np.allclose(out.velocity, est.velocity)
    # covariance grows under prediction
    assert np.all(np.linalg.eigvalsh(out.P - est.P) >= -1e-12)
    with pytest.raises(ValueError):
        predict(est, 0.0)


def test_gated_update_accepts_consistent_rejects_outlier():
    est = TargetEstimate.from_position([0.0, 0.0, 1.5])
    near = np.array([0.1, -0.1, 1.5])
    far = np.array([30.0, 0.0, 1.5])
    out, idx = gated_update(est, [far, near])
    assert idx == 1
    assert np.linalg.norm(out.position - near) < np.linalg.norm(est.position
                                                                - near)
    _, idx2 = gated_update(est, [far])
    assert idx2 is None
    same, idx3 = gated_update(est, [])
    assert idx3 is None and same is est


def test_gated_update_prefers_smallest_position_change():
    est = TargetEstimate.from_position([0.0, 0.0, 1.5])
    a = np.array([0.5, 0.0, 1.5])
    b = np.array([0.1, 0.0, 1.5])
    _, idx = gated_update(est, [a, b])
    assert idx == 1


def test_gated_update_covariance_stays_symmetric_psd():
    est = TargetEstimate.from_position([0.0, 0.0, 1.5])
    rng = np.random.default_rng(0)
    for _ in range(50):
        est = predict(est, 1 / 30)
        est, _ = gated_update(est, [est.position + rng.normal(0, 0.2, 3)])
        assert np.allclose(est.P, est.P.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(est.P) > 0)


def test_plan_yaw_rate_limited_and_wrapped():
    # pi/2 error, limited to 2.5 rad/s * dt
    y = plan_yaw([0.0, 5.0, 0.0], [0.0, 0.0, 0.0], 0.0, dt=0.1)
    assert np.isclose(y, 0.25)
    # wrap: from +3.1 toward -3.1 rad the short way crosses pi
    y2 = plan_yaw([-5.0, -0.3, 0.0], [0.0, 0.0, 0.0], 3.1, dt=0.01)
    assert y2 > 3.1
    # lost: hold the last bearing
    y3 = plan_yaw(None, [0.0, 0.0, 0.0], 0.5, dt=1.0, lost=True,
                  last_bearing=0.5)
    assert np.isclose(y3, 0.5)
    # target overhead: keep the current yaw
    y4 = plan_yaw([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], 0.7, dt=0.1)
    assert y4 == 0.7


def test_filter_converges_on_moving_target():
    rng = np.random.default_rng(1)
    dt = 1 / 30
    truth = np.array([0.0, 0.0, 1.5, 2.0, 0.5, 0.0])
    F = np.eye(6)
    F[:3, 3:] = dt * np.eye(3)
    est = TargetEstimate.from_position(truth[:3])
    for _ in range(300):
        truth = F @ truth
        z = truth[:3] + rng.normal(0, 0.2, 3)
        est = predict(est, dt)
        est, _ = gated_update(est, [z])
    # the deliberately large process noise keeps steady-state errors loose
    assert np.linalg.norm(est.position - truth[:3]) < 0.5
    assert np.linalg.norm(est.velocity - truth[3:]) < 2.0
