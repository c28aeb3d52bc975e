"""Plant physics, synthetic detections, evader scripting, episode loops."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from primtrack.camera import CameraModel
from primtrack.control import GRAVITY, Command, flatness_commands
from primtrack.primitives import LatticeConfig
from primtrack.simulator import (Arena, DetectionSim, EvaderScript, QuadState,
                                 SimParams, empty_arena, make_forest_arena,
                                 run_navigation_episode, run_tracking_episode,
                                 simulate_detection, step)


def _hover_cmd(mass=1.0):
    return Command(np.eye(3), mass * GRAVITY)


# -- plant ---------------------------------------------------------------------

def test_hover_is_an_equilibrium():
    state = QuadState.hover([0.0, 0.0, 2.0])
    for _ in range(400):
        state = step(state, _hover_cmd(), 0.005)
    assert np.allclose(state.position, [0.0, 0.0, 2.0], atol=1e-9)
    assert np.allclose(state.velocity, 0.0, atol=1e-9)


def test_tilt_gives_g_tan_theta_acceleration():
    # constant tilt, thrust scaled to hold altitude, no drag or lag:
    # horizontal acceleration is g tan(theta) exactly
    theta = np.deg2rad(15.0)
    R = Rotation.from_euler("y", theta).as_matrix()
    cmd = Command(R, GRAVITY / np.cos(theta))
    state = QuadState.hover([0.0, 0.0, 2.0])
    state = step(state, cmd, 0.001, tau_att=0.0, drag_k=0.0)
    assert np.isclose(state.acceleration[0], GRAVITY * np.tan(theta),
                      rtol=1e-9)
    assert np.isclose(state.acceleration[2], 0.0, atol=1e-9)


def test_attitude_lag_first_order():
    yaw_cmd = 0.8
    cmd = Command(Rotation.from_euler("z", yaw_cmd).as_matrix(), GRAVITY)
    state = QuadState.hover([0.0, 0.0, 2.0])
    tau = 0.06
    state = step(state, cmd, tau, tau_att=tau)
    # after one time constant the yaw closes 1 - 1/e of the gap
    assert np.isclose(state.yaw, yaw_cmd * (1 - np.exp(-1.0)), atol=1e-6)


def test_drag_opposes_velocity_quadratically():
    state = QuadState.hover([0.0, 0.0, 2.0])
    state = QuadState(state.position, np.array([2.0, 0.0, 0.0]),
                      np.zeros(3), state.attitude, 0.0)
    out = step(state, _hover_cmd(), 0.001, tau_att=0.0, drag_k=0.05)
    assert np.isclose(out.acceleration[0], -0.05 * 4.0, atol=1e-9)


def test_external_bias_enters_dynamics():
    state = QuadState.hover([0.0, 0.0, 2.0])
    out = step(state, _hover_cmd(), 0.001, drag_k=0.0, bias=(0.5, 0.0, 0.0))
    assert np.isclose(out.acceleration[0], 0.5, atol=1e-9)


def test_step_halving_converges_first_order():
    cmd = flatness_commands(np.array([1.0, 0.5, 0.0]), 0.0, np.zeros(3), 1.0)

    def integrate(dt):
        s = QuadState.hover([0.0, 0.0, 2.0])
        for _ in range(int(round(0.5 / dt))):
            s = step(s, cmd, dt, tau_att=0.0)
        return s.position

    e1 = np.linalg.norm(integrate(0.01) - integrate(0.00125))
    e2 = np.linalg.norm(integrate(0.005) - integrate(0.00125))
    assert e2 < 0.75 * e1  # error shrinks with the step size


_UNIT = st.tuples(*(st.floats(-1.0, 1.0),) * 3).filter(
    lambda v: 0.1 < np.linalg.norm(v))


@settings(max_examples=300, deadline=None)
@given(q=st.tuples(*(st.floats(-1.0, 1.0),) * 4).filter(
           lambda q: 0.1 < np.linalg.norm(q)),
       axis=_UNIT, angle=st.floats(0.0, np.pi - 1e-3),
       frac=st.floats(1e-9, 1.0))
def test_attitude_lag_is_the_slerp(q, axis, angle, frac):
    # the closed-form lag against scipy's rotation power (the slerp)
    from primtrack.simulator import _attitude_lag
    R_s = Rotation.from_quat(q)
    axis = np.asarray(axis) / np.linalg.norm(axis)
    R_c = R_s * Rotation.from_rotvec(angle * axis)
    ref = (R_s * ((R_s.inv() * R_c) ** frac)).as_matrix()
    got = _attitude_lag(R_s.as_matrix(), R_c.as_matrix(), frac)
    assert np.allclose(got, ref, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("angle", [np.pi, np.pi - 1e-9, np.pi - 1e-5])
def test_attitude_lag_near_a_half_turn(angle):
    # the skew part vanishes at a half turn; the axis comes from the
    # symmetric part, its sign (free at exactly pi) from the skew part
    from primtrack.simulator import _attitude_lag
    R_s = Rotation.from_euler("xyz", [0.3, -0.2, 1.1])
    axis = np.array([1.0, 2.0, -2.0]) / 3.0
    R_c = R_s * Rotation.from_rotvec(angle * axis)
    got = Rotation.from_matrix(_attitude_lag(R_s.as_matrix(),
                                             R_c.as_matrix(), 0.25))
    step_vec = (R_s.inv() * got).as_rotvec()
    if angle == np.pi and step_vec @ axis < 0:
        axis = -axis
    assert np.allclose(step_vec, 0.25 * angle * axis, rtol=0.0, atol=1e-9)


def test_attitude_lag_stays_orthonormal():
    # 100 s of 5 ms steps toward a command that keeps turning and tilting
    state = QuadState.hover([0.0, 0.0, 2.0])
    for k in range(20_000):
        t = k * 0.005
        acc = np.array([3.0 * np.sin(1.3 * t), 2.0 * np.cos(0.7 * t), 0.0])
        cmd = flatness_commands(acc, 2.0 * np.sin(0.4 * t), np.zeros(3), 1.0)
        state = step(state, cmd, 0.005)
    R = state.attitude
    assert np.abs(R.T @ R - np.eye(3)).max() < 1e-9
    assert np.isclose(np.linalg.det(R), 1.0, atol=1e-9)


def test_step_validates_dt():
    with pytest.raises(ValueError):
        step(QuadState.hover([0, 0, 1]), _hover_cmd(), 0.0)


# -- detections -----------------------------------------------------------------

_FREE_SPACE = empty_arena().grid  # obstacle-free: saturated at truncation


def _cam_at(position, yaw=0.0):
    R = Rotation.from_euler("z", yaw).as_matrix()
    return CameraModel.for_lattice(LatticeConfig()).with_pose(R, position)


def test_detection_noise_free_is_exact():
    cam = _cam_at(np.array([0.0, 0.0, 1.5]))
    target = np.array([5.0, 0.5, 1.7])
    det = simulate_detection(target, cam, _FREE_SPACE, DetectionSim())
    assert np.allclose(det, target, atol=1e-9)


def test_detection_visibility_rules():
    det = DetectionSim(max_depth=20.0)
    cam = _cam_at(np.array([0.0, 0.0, 1.5]))
    assert simulate_detection([-3.0, 0.0, 1.5], cam, _FREE_SPACE, det) is None
    assert simulate_detection([25.0, 0.0, 1.5], cam, _FREE_SPACE, det) is None
    # occlusion on the privileged map
    arena = make_forest_arena(0, intensity=1e-9, area=(10.0, 10.0))
    from primtrack.environment import PointCloud, build_esdf
    wall = PointCloud(np.array([[3.0, y, z] for y in np.arange(-1, 1.01, 0.2)
                                for z in np.arange(0, 3.01, 0.2)]))
    grid = build_esdf(wall, (-2, -5, -0.5), (40, 40, 20), 0.25)
    assert simulate_detection([6.0, 0.0, 1.5], cam, grid, det) is None


def test_detection_false_negative_rate():
    cam = _cam_at(np.array([0.0, 0.0, 1.5]))
    target = np.array([5.0, 0.0, 1.5])
    det = DetectionSim(false_negative=0.3, pixel_std=0.0, depth_std=0.0)
    rng = np.random.default_rng(0)
    misses = sum(simulate_detection(target, cam, _FREE_SPACE, det, rng) is None
                 for _ in range(2000))
    assert abs(misses / 2000 - 0.3) < 0.04


def test_detection_noise_statistics():
    cam = _cam_at(np.array([0.0, 0.0, 1.5]))
    target = np.array([8.0, 0.0, 1.5])
    det = DetectionSim(pixel_std=1.0, depth_std=0.02, false_negative=0.0)
    rng = np.random.default_rng(1)
    pts = np.array([simulate_detection(target, cam, _FREE_SPACE, det, rng)
                    for _ in range(500)])
    err = pts - target
    assert np.abs(np.mean(err, axis=0)).max() < 0.05
    # depth noise dominates the forward axis at 2% of 8 m
    assert abs(np.std(err[:, 0]) - 0.16) < 0.05


# -- evader ---------------------------------------------------------------------

def test_evader_ramps_and_follows_path():
    ev = EvaderScript(np.zeros((0, 2)), (0.0, 30.0, -5.0, 5.0), speed=3.0,
                      switches=0)
    ev.set_course((0.0, 0.0), (20.0, 0.0))
    p0 = ev.position.copy()
    ev.step(0.5)
    # still ramping: covered distance below full-speed travel
    assert np.linalg.norm(ev.position - p0) < 3.0 * 0.5
    for _ in range(400):
        ev.step(0.05)
    assert ev.done
    assert np.allclose(ev.position[:2], [20.0, 0.0], atol=1e-6)


def test_evader_avoids_trunks():
    arena = make_forest_arena(3, intensity=1.0 / 16.0, area=(12.0, 30.0),
                              clear_points=[(0.0, 0.0), (25.0, 0.0)])
    ev = EvaderScript(arena.trunks, arena.bounds, speed=3.0, switches=0)
    ev.set_course((0.0, 0.0), (25.0, 0.0))
    min_d = np.inf
    for _ in range(1500):
        ev.step(0.02)
        if len(arena.trunks):
            min_d = min(min_d, float(np.min(np.linalg.norm(
                arena.trunks - ev.position[:2], axis=1))))
        if ev.done:
            break
    assert ev.done
    assert min_d > arena.trunk_radius


def test_evader_requires_course():
    ev = EvaderScript(np.zeros((0, 2)), (0.0, 10.0, -5.0, 5.0), speed=1.0)
    with pytest.raises(RuntimeError):
        ev.step(0.1)


# -- arenas ---------------------------------------------------------------------

def test_arena_constructors():
    arena = empty_arena()
    assert isinstance(arena, Arena)
    assert len(arena.trunks) == 0
    assert np.all(arena.grid.distance == arena.grid.d_trunc)
    forest = make_forest_arena(1, clear_points=[(0.0, 0.0)])
    assert len(forest.trunks) > 0
    low, high = forest.grid.bounds()
    assert low[0] < 0.0 < 40.0 < high[0]  # margin covers the course


def test_make_forest_arena_deterministic():
    a = make_forest_arena(7)
    b = make_forest_arena(7)
    assert np.array_equal(a.trunks, b.trunks)
    assert np.array_equal(a.grid.distance, b.grid.distance)


# -- episodes --------------------------------------------------------------------

def _fast_params():
    return SimParams(max_time=30.0)


def test_navigation_episode_on_empty_arena_succeeds():
    arena = empty_arena(area=(16.0, 30.0))
    m = run_navigation_episode(arena, _fast_params(), seed=0,
                               goal_distance=20.0)
    assert m.success and m.failure_class == "none"
    assert m.final_distance <= 1.0
    assert m.path_length >= 19.0
    assert np.isfinite(m.smoothness) and m.smoothness > 0.0
    assert m.mean_latency_ms > 0.0


def test_navigation_goal_inside_obstacle_flagged_unreachable():
    from primtrack.environment import PointCloud, build_esdf
    pillar = PointCloud(np.array([[20.0, 0.0, z] for z in
                                  np.arange(0.0, 4.01, 0.1)]))
    grid = build_esdf(pillar, (-3, -11, 0), (224, 88, 18), 0.25)
    arena = Arena(grid, np.array([[20.0, 0.0]]), 0.15, 4.0,
                  (0.0, 50.0, -8.0, 8.0))
    m = run_navigation_episode(arena, _fast_params(), seed=0,
                               goal_distance=20.0)
    assert not m.success
    assert "goal_unreachable" in m.flags
    assert m.duration == 0.0


def test_tracking_episode_on_empty_arena_succeeds():
    arena = empty_arena(area=(16.0, 30.0))
    m = run_tracking_episode(arena, _fast_params(), seed=0, evader_speed=2.0,
                             course_length=12.0, switches=0)
    assert m.success, m.failure_class
    assert m.final_distance <= 8.0
    assert m.fov_fraction > 0.8
    assert len(m.target_distances) > 0


def test_tracking_episode_deterministic():
    arena = empty_arena(area=(16.0, 20.0))
    p = _fast_params()
    a = run_tracking_episode(arena, p, seed=3, evader_speed=2.0,
                             course_length=8.0, switches=0)
    b = run_tracking_episode(arena, p, seed=3, evader_speed=2.0,
                             course_length=8.0, switches=0)
    assert a.success == b.success
    assert a.path_length == b.path_length
    assert a.smoothness == b.smoothness
    assert np.array_equal(a.target_distances, b.target_distances)


def test_episode_log_csv(tmp_path):
    arena = empty_arena(area=(16.0, 20.0))
    path = tmp_path / "ep.csv"
    run_navigation_episode(arena, _fast_params(), seed=0, goal_distance=10.0,
                           log_path=path)
    header = path.read_text().splitlines()[0]
    assert header.split(",") == ["t", "px", "py", "pz", "vx", "vy", "vz",
                                 "ax", "ay", "az", "yaw", "thrust"]


# -- planning cycle ----------------------------------------------------------------

def _wall_arena():
    from primtrack.environment import PointCloud, build_esdf
    wall = PointCloud(np.array([[3.0, y, z] for y in np.arange(-1, 1.01, 0.2)
                                for z in np.arange(0, 3.01, 0.2)]))
    grid = build_esdf(wall, (-6, -5, -0.5), (64, 40, 20), 0.25)
    return Arena(grid, np.zeros((0, 2)), 0.15, 4.0, (-5.0, 9.0, -4.0, 4.0))


def test_emergency_flag_is_set_per_cycle():
    from primtrack.simulator import _Planner
    planner = _Planner(_wall_arena(), SimParams())
    # inside the clearance threshold of the wall every trajectory brakes
    planner.plan(QuadState.hover([2.8, 0.0, 1.5]), [6.0, 0.0, 1.5],
                 "navigation")
    assert planner.emergency
    # the next cycle, in free space, clears the flag again
    planner.plan(QuadState.hover([-1.0, 0.0, 1.5], yaw=np.pi),
                 [-5.0, 0.0, 1.5], "tracking")
    assert not planner.emergency


def test_selection_skips_nan_candidates(monkeypatch):
    from primtrack import simulator
    refine, seen, poison = simulator.refine, [], []

    def nan_refine(engine, **kw):  # refine, with the rows in poison NaN
        raw, total, parts = refine(engine, **kw)
        total = total.copy()
        total[poison] = np.nan
        seen.append(total)
        return raw, total, parts

    monkeypatch.setattr(simulator, "refine", nan_refine)
    planner = simulator._Planner(_wall_arena(), SimParams())
    state = replace(QuadState.hover([-1.0, 0.0, 1.5], yaw=np.pi),
                    velocity=np.array([-2.0, 0.0, 0.0]))
    goal = [-5.0, 0.0, 1.5]
    # a NaN first row is passed over for the cheapest finite one
    poison[:] = [0]
    _, cost, _ = planner.plan(state, goal, "tracking")
    assert cost == np.nanmin(seen[-1]) and not planner.emergency
    # with no finite row the cycle brakes
    poison[:] = list(range(planner.p.lattice.n_cells))
    traj, cost, _ = planner.plan(state, goal, "tracking")
    assert np.isnan(cost) and planner.emergency
    stop = simulator._braking_endpoint(state, planner.p)
    assert np.allclose(traj.sample(traj.horizon_T), stop[:, 0])


class _StubHead:
    """Fixed raw rows with a given cost output, in the head's 10 columns."""

    def __init__(self, raw, scores):
        self.raw, self.scores = raw, scores

    def forward(self, features):
        return np.column_stack([self.raw, self.scores])


def test_head_flies_the_least_realized_cost(monkeypatch):
    from primtrack import simulator
    from primtrack.costs import CostEngine
    n = LatticeConfig().n_cells
    head = _StubHead(np.random.default_rng(3).normal(size=(n, 9)) * 0.5,
                     np.zeros(n))
    totals, evaluate = [], CostEngine.evaluate

    def spy(self, *a, **kw):  # evaluate, keeping each call's totals
        out = evaluate(self, *a, **kw)
        totals.append(out[0])
        return out

    monkeypatch.setattr(CostEngine, "evaluate", spy)
    planner = simulator._Planner(_wall_arena(), SimParams(), head)
    state = replace(QuadState.hover([-1.0, 0.0, 1.5], yaw=np.pi),
                    velocity=np.array([-2.0, 0.0, 0.0]))
    goal = [-5.0, 0.0, 1.5]
    planner.plan(state, goal, "tracking")
    realized = totals[-1]
    assert np.all(np.isfinite(realized)) and len(set(realized)) == n
    # a cost output that ranks the rows backwards does not steer the pick
    head.scores = -realized
    _, cost, _ = planner.plan(state, goal, "tracking")
    assert cost == realized.min()
    # a NaN raw row is never scored, and is passed over for the least
    # finite realized cost
    head.raw[np.argmin(realized), 4] = np.nan
    _, cost, _ = planner.plan(state, goal, "tracking")
    assert len(totals[-1]) == n - 1
    assert cost == np.sort(realized)[1]
    # with no finite row the cycle brakes
    head.raw[:] = np.nan
    calls = len(totals)
    _, cost, _ = planner.plan(state, goal, "tracking")
    assert np.isnan(cost) and planner.emergency and len(totals) == calls


def test_planning_cycle_evaluates_at_most_20_times(monkeypatch):
    from primtrack import simulator
    from primtrack.costs import CostEngine
    counts = []
    evaluate, plan = CostEngine.evaluate, simulator._Planner.plan

    def counted_evaluate(self, *a, **kw):
        counts[-1] += 1
        return evaluate(self, *a, **kw)

    def counted_plan(self, *a, **kw):
        counts.append(0)
        return plan(self, *a, **kw)

    monkeypatch.setattr(CostEngine, "evaluate", counted_evaluate)
    monkeypatch.setattr(simulator._Planner, "plan", counted_plan)
    arena = make_forest_arena(1000, clear_points=[(0.0, 0.0), (40.0, 0.0)])
    run_navigation_episode(arena, SimParams(max_time=1.0), 0,
                           goal_distance=40.0)
    assert len(counts) > 30
    assert max(counts) <= 20, max(counts)


def test_forest_1000_flight_reaches_goal():
    # brakes mid-course and recovers; a recovered brake is not a failure
    arena = make_forest_arena(1000, clear_points=[(0.0, 0.0), (40.0, 0.0)])
    m = run_navigation_episode(arena, SimParams(), 0, goal_distance=40.0)
    assert m.success, m.failure_class
    assert m.final_distance <= 1.0


def test_tracking_raycasts_once_per_cycle(monkeypatch):
    from primtrack import simulator
    rays, cycles = [], []
    raycast, plan = simulator.raycast, simulator._Planner.plan
    monkeypatch.setattr(simulator, "raycast",
                        lambda *a, **kw: rays.append(1) or raycast(*a, **kw))
    monkeypatch.setattr(simulator._Planner, "plan",
                        lambda *a, **kw: cycles.append(1) or plan(*a, **kw))
    arena = make_forest_arena(103, clear_points=[(0.0, 0.0), (4.0, 0.0)])
    run_tracking_episode(arena, SimParams(max_time=1.0), 3, 3.0)
    assert len(cycles) > 20
    assert 0 < len(rays) <= len(cycles)
