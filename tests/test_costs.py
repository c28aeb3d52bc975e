"""Cost terms against quadrature/brute-force oracles, engine consistency."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primtrack import kernels
from primtrack.costs import (CostEngine, CostWeights, PotentialParams,
                             chain_rule_batch, collision, goal,
                             jerk_gram_matrix, smooth_l1, smooth_l1_grad,
                             smoothness)
from primtrack.environment import EsdfGrid, PointCloud, build_esdf
from primtrack.primitives import (LatticeConfig, build_library, horizon,
                                  spherical_endpoint)
from primtrack.simulator import empty_arena
from primtrack.trajectory import Trajectory

_FREE_SPACE = empty_arena().grid  # obstacle-free: saturated at truncation


def _gauss_integral(f, a, b, n=8):
    x, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (b - a) * x + 0.5 * (a + b)
    return 0.5 * (b - a) * np.sum(w * f(t))


def _engine(grid, rng, mode="tracking", use_kernel=True):
    cfg = LatticeConfig()
    d_F = np.column_stack([rng.uniform([0, -2, 0.5], [2, 2, 2]),
                           rng.normal(size=3), rng.normal(size=3)])
    return CostEngine(grid, d_F, cfg, 1.0, 8.0, 6.0,
                      goal_p=d_F[:, 0] + np.array([6.0, 0.5, 0.2]),
                      mode=mode, use_kernel=use_kernel)


def _grid(rng):
    pts = rng.uniform([-1, -4, -1], [9, 4, 4], size=(20, 3))
    return build_esdf(PointCloud(pts), (-2, -5, -2), (48, 40, 28), 0.25)


def _d(d_F, d_P):
    """Boundary arrays (N, 3, 6) from start states and one or N end states."""
    d_P = np.asarray(d_P, float).reshape(-1, 3, 3)
    return np.concatenate([np.broadcast_to(d_F, d_P.shape), d_P], axis=2)


# -- smoothness ------------------------------------------------------------------

def test_jerk_gram_matrix_matches_quadrature():
    for T in (0.7, 1.25, 2.5):
        Q = jerk_gram_matrix(T)
        for i in range(6):
            ci = i * (i - 1) * (i - 2)
            for j in range(6):
                cj = j * (j - 1) * (j - 2)
                ref = _gauss_integral(
                    lambda t: ci * t**max(i - 3, 0) * cj * t**max(j - 3, 0),
                    0.0, T) if ci and cj else 0.0
                assert np.isclose(Q[i, j], ref, rtol=1e-12, atol=1e-12)


def test_smoothness_matches_sampled_jerk_quadrature():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d_F = rng.normal(size=(3, 3))
        d_P = rng.normal(size=(3, 3)) * 2
        T = float(rng.uniform(0.5, 3.0))
        J, _ = smoothness(_d(d_F, d_P), T)
        traj = Trajectory.from_boundary(d_F, d_P, T)
        ref = _gauss_integral(
            lambda ts: np.array([np.sum(traj.sample(t, 3)**2) for t in ts]),
            0.0, T)
        assert np.isclose(J[0], ref, rtol=1e-9)


def test_smoothness_zero_for_straight_constant_velocity():
    d_F = np.array([[0.0, 1.0, 0.0]] * 3)
    d_P = np.array([[2.0, 1.0, 0.0]] * 3)  # jerk-free linear motion
    J, g = smoothness(_d(d_F, d_P), 2.0)
    assert abs(J[0]) < 1e-9
    assert np.allclose(g, 0.0, atol=1e-9)


def test_smoothness_batched_matches_loop():
    rng = np.random.default_rng(1)
    d_F = rng.normal(size=(3, 3))
    d_P = rng.normal(size=(5, 3, 3))
    J, g = smoothness(_d(d_F, d_P), 1.25)
    assert J.shape == (5,) and g.shape == (5, 3, 3)
    for k in range(5):  # one-row batches: no coupling between rows
        Jk, gk = smoothness(_d(d_F, d_P[k]), 1.25)
        assert np.isclose(J[k], Jk[0]) and np.allclose(g[k], gk[0])
    J_free, g_free = smoothness(_d(d_F, d_P), 1.25, with_grad=False)
    assert np.array_equal(J_free, J) and g_free is None


# -- collision -------------------------------------------------------------------

def test_collision_matches_brute_force_sum():
    rng = np.random.default_rng(2)
    grid = _grid(rng)
    pot = PotentialParams()
    dt = 1.25 / 20  # 21 samples over the horizon, endpoints included
    for _ in range(10):
        d_F = np.column_stack([rng.uniform([0, -2, 0], [2, 2, 2]),
                               rng.normal(size=3), rng.normal(size=3)])
        d_P = np.column_stack([rng.uniform([2, -3, 0], [7, 3, 3]),
                               rng.normal(size=3), rng.normal(size=3)])
        J, _ = collision(_d(d_F, d_P), 1.25, grid, pot)
        traj = Trajectory.from_boundary(d_F, d_P, 1.25)
        ref = 0.0
        for k in range(21):
            d, _ = grid.query(traj.sample(k * dt))
            if d < pot.cutoff:
                ref += np.exp((pot.d_safe - d) / pot.falloff) * dt
        assert np.isclose(J[0], ref, rtol=1e-9)


def test_potential_value_and_slope():
    """The potential as collision applies it, on a hover at the origin in
    the field d(x) = x + level: 21 equal samples, a slope that matches a
    central difference, and neither a value nor a slope past the cutoff."""
    pot = PotentialParams()
    T, h = 1.0, 1e-4
    centers = -3.75 + 0.5 * np.arange(16)
    for level in (0.1, 1.0, 1.99, 2.5):
        field = np.broadcast_to((centers + level)[:, None, None], (16, 4, 4))
        grid = EsdfGrid((-4.0, -1.0, -1.0), 0.5, field, 10.0)
        hover, step = np.zeros((3, 3)), np.zeros((3, 3))
        step[0, 0] = h  # the end position, moved along x
        J, g = collision(_d(hover, hover), T, grid, pot)
        fd = (collision(_d(hover, step), T, grid, pot)[0]
              - collision(_d(hover, -step), T, grid, pot)[0]) / (2 * h)
        if level < pot.cutoff:
            c = np.exp((pot.d_safe - level) / pot.falloff)
            assert np.isclose(J[0], 21 * c * T / 20, rtol=1e-12)
            assert g[0, 0, 0] < 0 and np.isclose(g[0, 0, 0], fd[0], rtol=1e-6)
        else:
            assert J[0] == 0.0 and np.all(g == 0.0)


# -- goal ------------------------------------------------------------------------

def test_goal_tracking_quadratic():
    p = np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 3.0]])
    g = np.array([4.0, 6.0, 3.0])
    J, grad = goal(p, g)
    assert np.allclose(J, [25.0, 0.0])
    assert np.allclose(grad, 2 * (p - g))
    J_free, grad_free = goal(p, g, with_grad=False)
    assert np.array_equal(J_free, J) and grad_free is None


# -- chain rule --------------------------------------------------------------------

def _spherical_jacobian(theta, phi, r):
    """d endpoint / d (theta, phi, r), shape (..., 3, 3), columns in that
    order: the decode's Jacobian, written out entry by entry."""
    theta, phi, r = np.broadcast_arrays(np.asarray(theta, float), phi, r)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    J = np.empty(theta.shape + (3, 3))
    J[..., 0, 0] = -r * st * cp
    J[..., 1, 0] = -r * st * sp
    J[..., 2, 0] = r * ct
    J[..., 0, 1] = -r * ct * sp
    J[..., 1, 1] = r * ct * cp
    J[..., 2, 1] = 0.0
    J[..., 0, 2] = ct * cp
    J[..., 1, 2] = ct * sp
    J[..., 2, 2] = st
    return J


def _oracle_chain_rule(grad_dP, raw, thetas, phis, cfg, alpha, v_max, a_max,
                       R):
    """Raw-variable gradient through the spherical Jacobian, the camera
    rotation and the tanh bounds, one factor at a time."""
    th = thetas + np.tanh(raw[:, 0]) * cfg.d_theta
    ph = phis + np.tanh(raw[:, 1]) * cfg.d_phi
    rr = cfg.r * (1.0 + np.tanh(raw[:, 2]))
    g_sph = np.einsum("na,nae->ne", grad_dP[:, :, 0] @ R,
                      _spherical_jacobian(th, ph, rr))
    sech2 = 1.0 - np.tanh(raw) ** 2
    out = np.empty((len(raw), 9))
    out[:, 0] = g_sph[:, 0] * sech2[:, 0] * cfg.d_theta
    out[:, 1] = g_sph[:, 1] * sech2[:, 1] * cfg.d_phi
    out[:, 2] = g_sph[:, 2] * sech2[:, 2] * cfg.r
    out[:, 3:6] = (grad_dP[:, :, 1] @ R) * sech2[:, 3:6] * alpha * v_max
    out[:, 6:9] = (grad_dP[:, :, 2] @ R) * sech2[:, 6:9] * alpha ** 2 * a_max
    return out


def test_spherical_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(100):
        th, ph = rng.uniform(-1.2, 1.2), rng.uniform(-np.pi, np.pi)
        r = rng.uniform(0.5, 6.0)
        J = _spherical_jacobian(th, ph, r)
        fd = np.column_stack([
            (spherical_endpoint(th + h, ph, r)
             - spherical_endpoint(th - h, ph, r)) / (2 * h),
            (spherical_endpoint(th, ph + h, r)
             - spherical_endpoint(th, ph - h, r)) / (2 * h),
            (spherical_endpoint(th, ph, r + h)
             - spherical_endpoint(th, ph, r - h)) / (2 * h)])
        assert np.allclose(J, fd, atol=1e-6)


def test_chain_rule_batch_matches_jacobian_oracle():
    rng = np.random.default_rng(5)
    cfg = LatticeConfig()
    th, ph = build_library(cfg)
    for alpha in (0.5, 1.0, 2.0):
        R = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        raw = rng.normal(size=(15, 9))
        grad_dP = rng.normal(size=(15, 3, 3))
        got = chain_rule_batch(grad_dP, raw, cfg, alpha, 8.0, 6.0, R)
        ref = _oracle_chain_rule(grad_dP, raw, th, ph, cfg, alpha, 8.0, 6.0,
                                 R)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)

def test_chain_rule_matches_finite_differences_free_space():
    rng = np.random.default_rng(4)
    eng = _engine(_FREE_SPACE, rng, use_kernel=False)
    raw = rng.normal(size=(15, 9)) * 0.5
    total, _, ga = eng.evaluate(raw)
    h = 1e-5
    for i in (0, 7, 14):
        fd = np.zeros(9)
        for d in range(9):
            rp, rm = raw[i].copy(), raw[i].copy()
            rp[d] += h
            rm[d] -= h
            fp = eng.evaluate(rp[None], with_grad=False, idx=np.array([i]))[0][0]
            fm = eng.evaluate(rm[None], with_grad=False, idx=np.array([i]))[0][0]
            fd[d] = (fp - fm) / (2 * h)
        assert np.linalg.norm(ga[i] - fd) / max(np.linalg.norm(ga[i]), 1e-9) \
            < 1e-6


def test_engine_decode_zero_offsets_hit_anchors():
    cfg = LatticeConfig()
    eng = CostEngine(_FREE_SPACE, np.zeros((3, 3)), cfg, 1.0, 8.0, 6.0,
                     goal_p=[10.0, 0.0, 0.0])
    d_P = eng.decode(np.zeros((cfg.n_cells, 9)))
    assert np.allclose(d_P[:, :, 0], spherical_endpoint(*build_library(cfg),
                                                        cfg.r), atol=1e-12)
    assert np.allclose(d_P[:, :, 1:], 0.0)
    assert np.allclose(np.linalg.norm(d_P[:, :, 0], axis=1), cfg.r)


# -- engine consistency ---------------------------------------------------------

def _unit_paths(T):
    """Trajectories from a zero start to the end state with one column of
    d_P set to 1 on every axis: d x(t) / d d_P[:, c] for c = pos, vel, acc."""
    out = []
    for c in range(3):
        e = np.zeros((3, 3))
        e[:, c] = 1.0
        out.append(Trajectory.from_boundary(np.zeros((3, 3)), e, T))
    return out


def test_engine_matches_quadrature_and_field_oracles():
    """J_s against a quadrature of the sampled jerk, J_c against per-sample
    field queries, J_g against the end point; the gradient against the same
    oracles' end-state gradients through the Jacobian chain rule."""
    rng = np.random.default_rng(6)
    grid = _grid(rng)
    eng = _engine(grid, rng, use_kernel=False)
    raw = rng.normal(size=(15, 9)) * 0.6
    total, parts, grad = eng.evaluate(raw)
    d_P = eng.decode(raw)
    T, pot, dt = eng.horizon_T, eng.potential, eng.horizon_T / 20
    units = _unit_paths(T)
    J = np.zeros((3, 15))
    g_dP = np.zeros((15, 3, 3))
    for n in range(15):
        traj = Trajectory.from_boundary(eng.d_F, d_P[n], T)
        J[0, n] = _gauss_integral(
            lambda ts: np.array([np.sum(traj.sample(t, 3)**2) for t in ts]),
            0.0, T)
        for c, u in enumerate(units):  # d/dd_P of the squared jerk integral
            g_dP[n, :, c] += eng.weights.lambda_s * 2 * np.array([
                _gauss_integral(lambda ts: np.array(
                    [traj.sample(t, 3)[a] * u.sample(t, 3)[a] for t in ts]),
                    0.0, T) for a in range(3)])
        for k in range(21):
            dist, dgrad = grid.query(traj.sample(k * dt))
            if dist < pot.cutoff:
                cost = np.exp((pot.d_safe - dist) / pot.falloff) * dt
                J[1, n] += cost
                for c, u in enumerate(units):
                    g_dP[n, :, c] += eng.weights.lambda_c * (
                        -cost / pot.falloff * dgrad * u.sample(k * dt)[0])
        diff = d_P[n, :, 0] - eng.goal_p
        J[2, n] = diff @ diff
        g_dP[n, :, 0] += eng.weights.lambda_g * 2 * diff
    for key, ref in zip(("J_s", "J_c", "J_g"), J):
        assert np.allclose(parts[key], ref, rtol=1e-9, atol=1e-12), key
    w = eng.weights
    assert np.allclose(total, w.lambda_s * J[0] + w.lambda_c * J[1]
                       + w.lambda_g * J[2], rtol=1e-9)
    ref = _oracle_chain_rule(g_dP, raw, eng.thetas, eng.phis, eng.cfg,
                             eng.alpha, eng.v_max, eng.a_max, eng.rotation)
    assert np.allclose(grad, ref, rtol=1e-7, atol=1e-9)


def test_kernel_matches_numpy_path(monkeypatch):
    """The kernel's loop against the numpy path; without numba it runs as
    plain Python."""
    monkeypatch.setattr(kernels, "HAVE_NUMBA", True)
    rng = np.random.default_rng(7)
    grid = _grid(rng)
    for mode in ("tracking", "navigation"):
        eng_k = _engine(grid, np.random.default_rng(8), mode=mode,
                        use_kernel=True)
        eng_n = _engine(grid, np.random.default_rng(8), mode=mode,
                        use_kernel=False)
        raw = rng.normal(size=(15, 9)) * 0.6
        tk, pk, gk = eng_k.evaluate(raw)
        tn, pn, gn = eng_n.evaluate(raw)
        assert np.allclose(tk, tn, rtol=1e-10, atol=1e-12)
        for key in pk:
            assert np.allclose(pk[key], pn[key], rtol=1e-10, atol=1e-12)
        assert np.allclose(gk, gn, rtol=1e-9, atol=1e-11)
        tk2, _, g2 = eng_k.evaluate(raw, with_grad=False)
        assert np.allclose(tk2, tk) and g2 is None


def test_engine_subset_evaluation():
    rng = np.random.default_rng(9)
    eng = _engine(_grid(rng), rng)
    raw = rng.normal(size=(15, 9)) * 0.5
    full, _, gfull = eng.evaluate(raw)
    idx = np.array([2, 9, 14])
    sub, _, gsub = eng.evaluate(raw[idx], idx=idx)
    assert np.allclose(sub, full[idx], rtol=1e-12)
    assert np.allclose(gsub, gfull[idx], rtol=1e-10, atol=1e-12)


def test_engine_navigation_rescales_goal():
    rng = np.random.default_rng(10)
    eng = _engine(_FREE_SPACE, rng, mode="navigation")
    assert np.isclose(np.linalg.norm(eng.goal_p - eng.position), eng.cfg.r)
    with pytest.raises(ValueError):  # no direction to the goal
        CostEngine(_FREE_SPACE, eng.d_F, eng.cfg, 1.0, 8.0, 6.0,
                   goal_p=eng.position, mode="navigation")


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(0.2, 3.0), v_max=st.floats(0.5, 20.0),
       m_phi=st.integers(1, 7), m_theta=st.integers(1, 7),
       r=st.floats(1.0, 8.0), level=st.floats(0.0, 1.9))
def test_engine_derives_horizon_anchors_and_sample_step(alpha, v_max, m_phi,
                                                        m_theta, r, level):
    cfg = LatticeConfig(m_phi=m_phi, m_theta=m_theta, r=r)
    # a uniform field below the cutoff: every sample adds the same potential
    flat = EsdfGrid(np.full(3, -20.0), 1.0, np.full((4, 4, 4), level), 4.0)
    d_F = np.column_stack([[0.0, 0.0, 1.5], np.zeros(3), np.zeros(3)])
    eng = CostEngine(flat, d_F, cfg, alpha, v_max, 6.0,
                     goal_p=[10.0, 0.0, 1.5])
    assert eng.horizon_T == horizon(cfg, alpha, v_max)
    thetas, phis = build_library(cfg)
    assert np.array_equal(eng.thetas, thetas)
    assert np.array_equal(eng.phis, phis)
    # 21 samples, T/20 apart, endpoints included
    _, parts, _ = eng.evaluate(np.zeros((cfg.n_cells, 9)), with_grad=False)
    pot = eng.potential
    c = np.exp((pot.d_safe - level) / pot.falloff)
    assert np.allclose(parts["J_c"], 21 * c * eng.horizon_T / 20,
                       rtol=1e-12)


# -- losses ----------------------------------------------------------------------

def test_smooth_l1_values_and_gradient():
    x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    assert np.allclose(smooth_l1(x), [2.5, 0.125, 0.0, 0.125, 2.5])
    h = 1e-7
    fd = (smooth_l1(x + h) - smooth_l1(x - h)) / (2 * h)
    assert np.allclose(smooth_l1_grad(x), fd, atol=1e-6)


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(lambda_s=-0.1)
