"""Refiner descent, the prediction head, the positive cell, losses, state
sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primtrack.camera import CameraModel
from primtrack.costs import (CostEngine, CostWeights, chain_rule_batch,
                             collision, smooth_l1, smooth_l1_grad,
                             smoothness)
from primtrack.environment import PointCloud, build_esdf
from primtrack.policy import (OUTPUT_DIM, FrustumFeatures, HeadOptimizer,
                              PolicyHead, StateSampler, assign_samples,
                              backward_and_step, compute_features,
                              frame_loss_and_grad, load_head, refine,
                              sample_training_state, save_head)
from primtrack.primitives import (LatticeConfig, build_library,
                                  spherical_endpoint)
from primtrack.simulator import empty_arena

_FREE_SPACE = empty_arena().grid  # obstacle-free: saturated at truncation


def _engine(grid, goal, use_kernel=True, mode="tracking", weights=None):
    cfg = LatticeConfig()
    d_F = np.column_stack([np.array([0.0, 0.0, 1.5]),
                           np.array([1.0, 0.0, 0.0]), np.zeros(3)])
    return CostEngine(grid, d_F, cfg, 1.0, 8.0, 6.0, np.asarray(goal),
                      mode=mode, use_kernel=use_kernel,
                      weights=weights or CostWeights())


def _obstacle_grid():
    pts = np.array([[3.0, y, z] for y in np.arange(-0.6, 0.61, 0.2)
                    for z in np.arange(0.0, 3.01, 0.2)])
    return build_esdf(PointCloud(pts), (-2, -5, -0.5), (40, 40, 20), 0.25)


# -- refiner ----------------------------------------------------------------------

def test_refine_empty_map_reaches_goal():
    # drop smoothness so the goal term alone defines the optimum
    goal = np.array([4.0, 0.5, 1.5])
    eng = _engine(_FREE_SPACE, goal, weights=CostWeights(lambda_s=0.0))
    raw, total, parts = refine(eng, steps=200)
    # at least one candidate ends essentially on the goal
    assert float(np.min(parts["J_g"])) < 1e-3
    assert np.all(np.isfinite(total))


def test_refine_never_increases_cost():
    eng = _engine(_obstacle_grid(), np.array([6.0, 0.0, 1.5]))
    raw0 = np.zeros((15, 9))
    t0, _, _ = eng.evaluate(raw0, with_grad=False)
    raw, total, _ = refine(eng, raw0=raw0)
    assert np.all(total <= t0 + 1e-9)
    assert np.any(total < t0 - 1e-6)  # and it actually makes progress


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12),
       scale=st.sampled_from([0.0, 0.5, 2.0]),
       goal=st.tuples(st.floats(1.0, 8.0), st.floats(-3.0, 3.0),
                      st.floats(0.5, 3.0)))
def test_refine_never_raises_any_candidate_cost(seed, steps, scale, goal):
    eng = _engine(_obstacle_grid(), np.array(goal))
    raw0 = np.random.default_rng(seed).normal(size=(15, 9)) * scale
    t0, _, _ = eng.evaluate(raw0)
    raw, total, parts = refine(eng, steps=steps, raw0=raw0)
    assert np.all(total <= t0 + 1e-9)
    # the returned totals and parts belong to the returned raw rows
    t1, p1, _ = eng.evaluate(raw)
    assert np.allclose(total, t1, rtol=1e-12, atol=1e-12)
    for k in ("J_s", "J_c", "J_g"):
        assert np.allclose(parts[k], p1[k], rtol=1e-12, atol=1e-12)


def test_refine_improves_clearance_near_obstacle():
    # no goal attraction: the collision potential must push paths clear
    grid = _obstacle_grid()
    eng = _engine(grid, np.array([6.0, 0.0, 1.5]),
                  weights=CostWeights(lambda_g=0.0))
    raw0 = np.zeros((15, 9))
    _, p0, _ = eng.evaluate(raw0, with_grad=False)
    raw, _, parts = refine(eng, raw0=raw0)
    k = 7  # center anchor points straight at the wall
    assert parts["J_c"][k] < p0["J_c"][k]


def test_refine_warm_start_and_step_validation():
    eng = _engine(_FREE_SPACE, np.array([4.0, 0.0, 1.5]))
    raw, total, _ = refine(eng, steps=5)
    raw2, total2, _ = refine(eng, steps=5, raw0=raw)
    assert np.all(total2 <= total + 1e-9)
    with pytest.raises(ValueError):
        refine(eng, steps=0)
    with pytest.raises(ValueError):
        refine(eng, max_backtracks=5)


# -- head forward/backward ---------------------------------------------------------

def test_head_forward_matches_manual_matmul():
    head = PolicyHead.create(hidden=(5,), seed=1)
    x = np.random.default_rng(2).normal(size=(4, 9))
    y = head.forward(x)
    ref = np.maximum(x @ head.weights[0] + head.biases[0], 0.0) \
        @ head.weights[1] + head.biases[1]
    assert np.allclose(y, ref, atol=1e-12)
    with pytest.raises(ValueError):
        head.forward(np.zeros((4, 7)))


def test_head_weight_sharing_across_rows():
    head = PolicyHead.create(seed=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 9))
    perm = rng.permutation(15)
    assert np.allclose(head.forward(x)[perm], head.forward(x[perm]),
                       atol=1e-12)


def test_head_backward_matches_finite_differences():
    head = PolicyHead.create(hidden=(6,), seed=5)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 9))
    C = rng.normal(size=(5, OUTPUT_DIM))  # loss = sum(C * y): dL/dy = C

    def loss():
        return float(np.sum(C * head.forward(x)))

    _, cache = head.forward(x, keep_cache=True)
    gw, gb = head.backward(cache, C)
    h = 1e-6
    for params, grads in ((head.weights, gw), (head.biases, gb)):
        for p, g in zip(params, grads):
            flat = p.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 5)):
                orig = flat[i]
                flat[i] = orig + h
                fp = loss()
                flat[i] = orig - h
                fm = loss()
                flat[i] = orig
                assert np.isclose(g.reshape(-1)[i], (fp - fm) / (2 * h),
                                  atol=1e-5)


def test_head_save_load_round_trip(tmp_path):
    head = PolicyHead.create(seed=7)
    save_head(tmp_path / "h.bin", head)
    back = load_head(tmp_path / "h.bin")
    assert back.layer_sizes == head.layer_sizes
    x = np.random.default_rng(8).normal(size=(15, 9))
    # float32 checkpoint: agreement to storage precision
    assert np.allclose(back.forward(x), head.forward(x), atol=1e-4)
    (tmp_path / "bad.bin").write_bytes(b"NOTAHEAD")
    with pytest.raises(ValueError):
        load_head(tmp_path / "bad.bin")


def test_head_create_keeps_the_14_wide_output_draw():
    # a seed draws the weights it drew when the head had 14 outputs
    head = PolicyHead.create(hidden=(8,), seed=2)
    rng = np.random.default_rng(2)
    w0 = rng.normal(0.0, np.sqrt(2.0 / 9), size=(9, 8))
    w1 = rng.normal(0.0, np.sqrt(2.0 / 8), size=(8, 14))
    assert head.layer_sizes == [9, 8, OUTPUT_DIM]
    assert np.array_equal(head.weights[0], w0)
    assert np.array_equal(head.weights[1], w1[:, :OUTPUT_DIM])
    assert np.all(head.biases[1] == 0.0)


def test_optimizer_methods_descend():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(20, 9))
    y_t = rng.normal(size=(20, OUTPUT_DIM))
    for method in ("sgd", "momentum", "adam"):
        head = PolicyHead.create(hidden=(16,), seed=10)
        opt = HeadOptimizer(learning_rate=1e-3, method=method)
        losses = []
        for _ in range(200):
            out, cache = head.forward(x, keep_cache=True)
            losses.append(float(np.sum((out - y_t)**2)))
            gw, gb = head.backward(cache, 2 * (out - y_t))
            opt.step(head, gw, gb)
        assert losses[-1] < 0.5 * losses[0], method
    with pytest.raises(ValueError):
        HeadOptimizer(method="bogus").step(head, gw, gb)


# -- features -----------------------------------------------------------------------

def test_compute_features_empty_map():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    feats = compute_features(_FREE_SPACE, cam, cfg, np.array([0.5, 0.0, 0.0]),
                             np.zeros(3))
    assert feats.values.shape == (cfg.n_cells, 9)
    # free space everywhere: both depth summaries saturate at the radius
    assert np.allclose(feats.values[:, 0], 1.0)
    assert np.allclose(feats.values[:, 1], 1.0)
    assert np.all(feats.values[:, 2] == -1.0)  # no target sentinel


def test_compute_features_sees_obstacle_and_target():
    cfg = LatticeConfig()
    grid = _obstacle_grid()
    cam = CameraModel.for_lattice(cfg).with_pose(np.eye(3),
                                                 np.array([0.0, 0.0, 1.5]))
    target = np.array([2.0, 0.0, 1.5])
    feats = compute_features(grid, cam, cfg, np.zeros(3), np.zeros(3),
                             target_world=target).values
    center = 7  # flat index of the central cell
    assert feats[center, 0] < 0.8  # wall at 3 m cuts the forward rays short
    assert np.isclose(feats[center, 2], np.linalg.norm(target
                                                       - cam.position) / cfg.r)
    assert np.all(np.delete(feats[:, 2], center) == -1.0)


def test_compute_features_state_rows_rotate_per_cell():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    v = np.array([0.7, -0.2, 0.1])
    feats = compute_features(_FREE_SPACE, cam, cfg, v, np.zeros(3)).values
    # rotation preserves the norm in every cell frame
    assert np.allclose(np.linalg.norm(feats[:, 3:6], axis=1),
                       np.linalg.norm(v), atol=1e-12)
    assert not np.allclose(feats[0, 3:6], feats[14, 3:6])


# -- the positive cell ----------------------------------------------------------------

def test_assign_samples_geometry():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    target = np.array([4.0, 0.0, 0.0])  # optical axis: the center cell
    assert assign_samples(target, cam, cfg, _FREE_SPACE) == 7
    # the target feature marks the same cell
    feats = compute_features(_FREE_SPACE, cam, cfg, np.zeros(3), np.zeros(3),
                             target_world=target).values
    assert np.flatnonzero(feats[:, 2] != -1.0).tolist() == [7]
    # off axis, it is the cell whose anchor points nearest the target
    dirs = spherical_endpoint(*build_library(cfg), 1.0)
    for target in ([4.0, 2.5, 1.0], [4.0, -2.5, -1.0], [4.0, 0.0, 1.0]):
        bearing = np.array(target) / np.linalg.norm(target)
        assert assign_samples(np.array(target), cam, cfg, _FREE_SPACE) \
            == np.argmax(dirs @ bearing)


def test_assign_samples_no_target_or_hidden():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    for tgt in (None, np.array([-4.0, 0.0, 0.0])):
        assert assign_samples(tgt, cam, cfg, _FREE_SPACE) is None
    # occluded behind a solid slab on the privileged map
    cam = cam.with_pose(np.eye(3), np.array([0.0, 0.0, 1.5]))
    slab = np.stack(np.meshgrid(np.arange(2.8, 3.21, 0.05),
                                np.arange(-0.6, 0.61, 0.05),
                                np.arange(0.5, 2.51, 0.05)),
                    axis=-1).reshape(-1, 3)
    grid = build_esdf(PointCloud(slab), (-2, -5, -0.5), (40, 40, 20), 0.25)
    target = np.array([4.5, 0.0, 1.5])
    assert assign_samples(target, cam, cfg, _FREE_SPACE) == 7
    assert assign_samples(target, cam, cfg, grid) is None


# -- state sampling -----------------------------------------------------------------

def _forward_pdf(sampler, v):
    """Density of the forward velocity on v < v_m: (v_m - v) is log-normal."""
    v = np.asarray(v, float)
    gap = sampler.v_m - v
    out = np.zeros_like(gap)
    ok = gap > 0
    g = gap[ok]
    out[ok] = np.exp(-((np.log(g) - sampler.mu) ** 2)
                     / (2 * sampler.sigma ** 2)) \
        / (g * sampler.sigma * np.sqrt(2 * np.pi))
    return out


def test_sampler_forward_velocity_bounded():
    sampler = StateSampler()
    rng = np.random.default_rng(11)
    v, a = sample_training_state(sampler, rng, size=5000)
    assert v.shape == (5000, 3) and a.shape == (5000, 3)
    assert np.all(v[:, 0] < sampler.v_m)
    # lateral/vertical stds roughly match the configuration
    assert abs(np.std(v[:, 1]) - sampler.lateral_std) < 0.1 * sampler.lateral_std
    v1, a1 = sample_training_state(sampler, rng)
    assert v1.shape == (3,) and a1.shape == (3,)


def test_sampler_pdf_integrates_to_one():
    sampler = StateSampler(sigma=0.6, v_m=8.8)
    v = np.linspace(sampler.v_m - 60.0, sampler.v_m - 1e-9, 400000)
    mass = np.trapezoid(_forward_pdf(sampler, v), v)
    assert abs(mass - 1.0) < 1e-3
    assert np.all(_forward_pdf(sampler, np.array([sampler.v_m + 1.0])) == 0.0)


def test_sampler_matches_empirical_histogram():
    sampler = StateSampler()
    rng = np.random.default_rng(12)
    v, _ = sample_training_state(sampler, rng, size=200000)
    hist, edges = np.histogram(v[:, 0], bins=30,
                               range=(sampler.v_m - 12, sampler.v_m),
                               density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert np.max(np.abs(hist - _forward_pdf(sampler, centers))) < 0.02


def test_sampler_validation():
    with pytest.raises(ValueError):
        StateSampler(v_m=0.0)


# -- end-to-end gradient -------------------------------------------------------------

def test_frame_loss_grad_matches_finite_differences():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg).with_pose(np.eye(3),
                                                 np.array([0.0, 0.0, 1.5]))
    target = np.array([4.0, 0.3, 1.6])
    eng = _engine(_FREE_SPACE, target, use_kernel=False)
    positive = assign_samples(target, cam, cfg, _FREE_SPACE)
    assert positive == 7
    rng = np.random.default_rng(13)
    y = rng.normal(size=(15, OUTPUT_DIM)) * 0.5
    loss, dLdy = frame_loss_and_grad(y, eng, cfg, cam, positive,
                                     target_world=target, mode="tracking")
    h = 1e-6
    # the positive cell, and two cells weighted by lambda_1
    for k in (positive, 0, 14):
        for d in range(OUTPUT_DIM):
            yp, ym = y.copy(), y.copy()
            yp[k, d] += h
            ym[k, d] -= h
            fp, _ = frame_loss_and_grad(yp, eng, cfg, cam, positive,
                                        target_world=target, mode="tracking")
            fm, _ = frame_loss_and_grad(ym, eng, cfg, cam, positive,
                                        target_world=target, mode="tracking")
            assert np.isclose(dLdy[k, d], (fp - fm) / (2 * h),
                              rtol=1e-4, atol=1e-6)


def _composable_frame_loss(y, engine, cfg, positive, mode):
    """The frame loss, assembled here from the cost term functions and the
    chain rule: (loss, dL/dy[:, :10])."""
    w = engine.weights
    raw = y[:, :9]
    d_P = engine.decode(raw)
    d = np.concatenate([np.broadcast_to(engine.d_F, d_P.shape), d_P], axis=2)
    J_s, g_s = smoothness(d, engine.horizon_T)
    J_c, g_c = collision(d, engine.horizon_T, engine.grid, engine.potential)
    diff = d_P[:, :, 0] - engine.goal_p
    J_g, g_goal = np.sum(diff * diff, axis=1), 2.0 * diff
    cells = np.arange(len(y))
    if mode == "navigation":
        traj_w = np.ones(len(y))
        goal_on = np.ones(len(y), bool)
    else:
        traj_w = np.where(cells == positive, 1.0, w.lambda_1)
        goal_on = cells == positive
    y_c_hat = w.lambda_s * J_s + w.lambda_c * J_c
    if mode == "navigation":
        y_c_hat = y_c_hat + w.lambda_g * J_g
    resid = y[:, 9] - y_c_hat
    coef = traj_w * (1.0 - smooth_l1_grad(resid))
    grad_dP = coef[:, None, None] * (w.lambda_s * g_s + w.lambda_c * g_c)
    goal_coef = coef if mode == "navigation" else goal_on.astype(float)
    grad_dP[:, :, 0] += (w.lambda_g * goal_coef)[:, None] * g_goal
    dLdy = np.zeros((len(y), 10))
    dLdy[:, :9] = chain_rule_batch(grad_dP, raw, cfg, engine.alpha,
                                   engine.v_max, engine.a_max,
                                   engine.rotation)
    dLdy[:, 9] = traj_w * smooth_l1_grad(resid)
    loss = np.sum(traj_w * (w.lambda_s * J_s + w.lambda_c * J_c
                            + smooth_l1(resid))) \
        + np.sum(w.lambda_g * J_g[goal_on])
    return float(loss), dLdy


@pytest.mark.parametrize("mode", ["navigation", "tracking"])
def test_frame_loss_one_query_matches_composable_path(mode):
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg).with_pose(np.eye(3),
                                                 np.array([0.0, 0.0, 1.5]))
    target = np.array([4.0, 0.3, 1.6])
    eng = _engine(_obstacle_grid(), target, use_kernel=False, mode=mode)
    positive = assign_samples(target, cam, cfg, _FREE_SPACE) \
        if mode == "tracking" else None
    y = np.random.default_rng(16).normal(size=(15, OUTPUT_DIM)) * 0.5
    loss, dLdy = frame_loss_and_grad(y, eng, cfg, cam, positive,
                                     target_world=target, mode=mode)
    ref_loss, ref_grad = _composable_frame_loss(y, eng, cfg, positive, mode)
    # collision terms must be active for the comparison to mean anything
    assert np.any(eng.evaluate(y[:, :9], with_grad=False)[1]["J_c"] > 1e-3)
    assert np.allclose(dLdy, ref_grad, rtol=1e-12, atol=1e-12)
    assert np.isclose(loss, ref_loss, rtol=1e-12)
    # a head saved with 4 more outputs: the same loss, and no gradient into
    # the extra columns
    wide = np.column_stack([y, np.random.default_rng(17).normal(size=(15, 4))])
    loss14, dLdy14 = frame_loss_and_grad(wide, eng, cfg, cam, positive,
                                         target_world=target, mode=mode)
    assert loss14 == loss and dLdy14.shape == wide.shape
    assert np.array_equal(dLdy14[:, :OUTPUT_DIM], dLdy)
    assert np.all(dLdy14[:, OUTPUT_DIM:] == 0.0)
    if mode == "tracking":  # no positive cell: every cell weighs lambda_1
        loss, dLdy = frame_loss_and_grad(y, eng, cfg, cam, None,
                                         target_world=None, mode=mode)
        ref_loss, ref_grad = _composable_frame_loss(y, eng, cfg, None, mode)
        assert np.allclose(dLdy, ref_grad, rtol=1e-12, atol=1e-12)
        assert np.isclose(loss, ref_loss, rtol=1e-12)


def test_frame_loss_grad_navigation_mode():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    eng = _engine(_FREE_SPACE, np.array([10.0, 0.0, 1.5]), use_kernel=False,
                  mode="navigation")
    rng = np.random.default_rng(14)
    y = rng.normal(size=(15, OUTPUT_DIM)) * 0.5
    loss, dLdy = frame_loss_and_grad(y, eng, cfg, cam, None,
                                     mode="navigation")
    assert np.isfinite(loss)
    h = 1e-6
    for d in (0, 5, 9):
        yp, ym = y.copy(), y.copy()
        yp[3, d] += h
        ym[3, d] -= h
        fp, _ = frame_loss_and_grad(yp, eng, cfg, cam, None, mode="navigation")
        fm, _ = frame_loss_and_grad(ym, eng, cfg, cam, None, mode="navigation")
        assert np.isclose(dLdy[3, d], (fp - fm) / (2 * h), rtol=1e-4,
                          atol=1e-6)


def test_backward_and_step_reduces_toy_loss():
    cfg = LatticeConfig()
    cam = CameraModel.for_lattice(cfg)
    eng = _engine(_FREE_SPACE, np.array([10.0, 0.0, 1.5]), mode="navigation")
    feats = compute_features(_FREE_SPACE, cam, cfg, np.array([0.3, 0.0, 0.0]),
                             np.zeros(3))
    frames = [{"features": FrustumFeatures(feats.values), "engine": eng,
               "cfg": cfg, "cam": cam, "assignment": None,
               "mode": "navigation"}]
    head = PolicyHead.create(hidden=(16,), seed=15)
    opt = HeadOptimizer(learning_rate=1e-3, method="adam")
    losses = [backward_and_step(head, frames, opt) for _ in range(80)]
    assert losses[-1] < losses[0]
