"""Deterministic point-mass flight simulation and episode orchestration.

The plant integrates thrust-vector commands with a first-order attitude
lag, quadratic drag, and an optional constant force bias. Scripted evaders
follow shortest-path polylines over the privileged obstacle map and switch
goals mid-run. Detections are synthesized from the true target pose with
FOV/occlusion checks and configurable noise. One episode loop closes the
full perception-plan-control chain for pursuit and navigation alike and
reports standard metrics.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np
from scipy.spatial.transform import Rotation

from .camera import CameraModel
from .control import GRAVITY, Command, ObserverState, flatness_commands, \
    observer_step
from .costs import CostEngine, CostWeights
from .environment import EsdfGrid, ForestSpec, PointCloud, build_esdf, \
    generate_forest, raycast, trunk_positions
from .policy import PolicyHead, compute_features, refine
from .primitives import LatticeConfig
from .tracker import TargetEstimate, gated_update, plan_yaw, predict
from .trajectory import Trajectory

__all__ = [
    "QuadState",
    "SimParams",
    "DetectionSim",
    "EvaderScript",
    "Arena",
    "EpisodeLog",
    "EpisodeMetrics",
    "step",
    "simulate_detection",
    "make_forest_arena",
    "empty_arena",
    "run_tracking_episode",
    "run_navigation_episode",
    "compute_metrics",
]

_EZ = np.array([0.0, 0.0, 1.0])


# -- plant ------------------------------------------------------------------

@dataclass(frozen=True)
class QuadState:
    """Point-mass vehicle state with attitude and heading."""

    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    attitude: np.ndarray  # world-from-body
    yaw: float
    mass: float = 1.0

    def __post_init__(self):
        for name in ("position", "velocity", "acceleration", "attitude"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))

    @classmethod
    def hover(cls, position, yaw: float = 0.0, mass: float = 1.0) -> "QuadState":
        R = Rotation.from_euler("z", yaw).as_matrix()
        return cls(np.asarray(position, float), np.zeros(3), np.zeros(3),
                   R, yaw, mass)


def _attitude_lag(R_s: np.ndarray, R_c: np.ndarray,
                  frac: float) -> np.ndarray:
    """R_s exp(frac log(R_s^T R_c)): the rotation frac of the way from R_s
    to R_c along the geodesic, by axis-angle (Rodrigues) on the matrices.

    The axis comes from the skew part of the relative rotation up to a
    right angle and from its symmetric part beyond, where that part is the
    better conditioned; a near-zero angle returns R_s.
    """
    rel = R_s.T @ R_c
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rel.tolist()
    wx, wy, wz = r21 - r12, r02 - r20, r10 - r01  # 2 sin(angle) * axis
    s2 = math.sqrt(wx * wx + wy * wy + wz * wz)
    c2 = r00 + r11 + r22 - 1.0  # 2 cos(angle)
    angle = math.atan2(s2, c2)
    if angle < 1e-12:
        return R_s
    if c2 >= 0.0:
        kx, ky, kz = wx / s2, wy / s2, wz / s2
    else:  # (rel + rel^T) / 2 - cos(angle) I = (1 - cos(angle)) k k^T
        B = 0.5 * (rel + rel.T) - (0.5 * c2) * np.eye(3)
        col = B[:, int(np.argmax(np.diag(B)))]
        if col @ (wx, wy, wz) < 0.0:
            col = -col
        kx, ky, kz = (col / np.linalg.norm(col)).tolist()
    a = frac * angle
    sa, ca = math.sin(a), math.cos(a)
    v = 1.0 - ca
    E = np.array([[ca + v * kx * kx, v * kx * ky - sa * kz,
                   v * kx * kz + sa * ky],
                  [v * kx * ky + sa * kz, ca + v * ky * ky,
                   v * ky * kz - sa * kx],
                  [v * kx * kz - sa * ky, v * ky * kz + sa * kx,
                   ca + v * kz * kz]])
    return R_s @ E


def step(state: QuadState, cmd: Command, dt: float, tau_att: float = 0.06,
         drag_k: float = 0.05, bias=(0.0, 0.0, 0.0)) -> QuadState:
    """Semi-implicit Euler step under a thrust-attitude command.

    The attitude relaxes toward the commanded one with first-order time
    constant tau_att (zero means instantaneous), along the geodesic between
    the two. The true disturbance is per-axis quadratic drag plus the
    constant bias force.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if tau_att > 0:
        frac = 1.0 - math.exp(-dt / tau_att)
        R = _attitude_lag(state.attitude, cmd.attitude, frac)
    else:
        R = np.asarray(cmd.attitude, float)
    v = state.velocity
    d_true = -drag_k * v * np.abs(v) + np.asarray(bias, float)
    acc = (R @ _EZ) * cmd.thrust / state.mass - GRAVITY * _EZ \
        + d_true / state.mass
    v_new = v + dt * acc
    p_new = state.position + dt * v_new
    yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    return replace(state, position=p_new, velocity=v_new, acceleration=acc,
                   attitude=R, yaw=yaw)


# -- synthetic detections -----------------------------------------------------

@dataclass(frozen=True)
class DetectionSim:
    """Noise and visibility model of the target detector stand-in."""

    pixel_std: float = 1.0
    depth_std: float = 0.02  # multiplicative
    false_negative: float = 0.05
    max_depth: float = 20.0


_SIGHT_OCCUPANCY = 0.2  # a line of sight is blocked below this clearance


def _visible(target_world, cam: CameraModel, grid: EsdfGrid,
             det: DetectionSim) -> bool:
    p_c = cam.world_to_camera(target_world)
    if not cam.in_frustum(p_c, max_depth=det.max_depth):
        return False
    return raycast(grid, cam.position, target_world, _SIGHT_OCCUPANCY)


def simulate_detection(target_world, cam: CameraModel, grid: EsdfGrid,
                       det: DetectionSim,
                       rng: np.random.Generator | None = None,
                       visible: bool | None = None):
    """Noisy world-frame detection of the true target, or None.

    None when the target is outside the frustum, beyond the depth range,
    occluded on the ground-truth map, or dropped by a false-negative draw.
    With rng omitted the detection is noise-free. A caller that has already
    tested the visibility passes it as `visible`, saving the raycast.
    """
    target_world = np.asarray(target_world, float)
    if visible is None:
        visible = _visible(target_world, cam, grid, det)
    if not visible:
        return None
    if rng is not None and rng.uniform() < det.false_negative:
        return None
    u, v, depth = cam.project_world(target_world)
    if rng is not None:
        u = u + rng.normal(0.0, det.pixel_std)
        v = v + rng.normal(0.0, det.pixel_std)
        depth = depth * (1.0 + rng.normal(0.0, det.depth_std))
    return cam.unproject(float(u), float(v), float(depth))


# -- scripted evader ----------------------------------------------------------

_EVADER_CELL = 0.5  # planning grid pitch, meters
_EVADER_CLEARANCE = 0.6  # planning cells this close to a trunk are blocked
_EVADER_ACCEL = 1.0  # speed ramp from rest, m/s^2
_SWITCH_FRACTION = 0.5  # share of the course run before a goal switch


class EvaderScript:
    """Scripted target on shortest collision-free polylines.

    Paths come from A* over an inflated 2D occupancy grid of the true trunk
    layout, shortcut along lines of sight. Partway through the course the
    goal is re-randomized to force an evasive turn. The speed ramps up from
    rest at 1 m/s^2, then stays constant.
    """

    def __init__(self, trunks, bounds, speed: float, height: float = 1.5,
                 switches: int = 1, rng: np.random.Generator | None = None):
        self.trunks = np.asarray(trunks, float).reshape(-1, 2)
        self.bounds = tuple(float(b) for b in bounds)  # xmin, xmax, ymin, ymax
        self.speed = float(speed)
        self._speed = 0.0
        self.height = float(height)
        self.switches_left = int(switches)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        xmin, xmax, ymin, ymax = self.bounds
        self._xs = np.arange(xmin + _EVADER_CELL / 2, xmax, _EVADER_CELL)
        self._ys = np.arange(ymin + _EVADER_CELL / 2, ymax, _EVADER_CELL)
        occ = np.zeros((len(self._xs), len(self._ys)), bool)
        if len(self.trunks):
            gx, gy = np.meshgrid(self._xs, self._ys, indexing="ij")
            centers = np.stack([gx, gy], axis=-1)
            d = np.linalg.norm(centers[:, :, None, :]
                               - self.trunks[None, None, :, :], axis=-1)
            occ = d.min(axis=2) < _EVADER_CLEARANCE
        self._occ = occ
        self.position = None
        self.path = None
        self._traveled = 0.0
        self._seg = 0
        self._path_len = 0.0

    # grid helpers

    def _cell_of(self, xy):
        i = int(np.clip(round((xy[0] - self._xs[0]) / _EVADER_CELL), 0,
                        len(self._xs) - 1))
        j = int(np.clip(round((xy[1] - self._ys[0]) / _EVADER_CELL), 0,
                        len(self._ys) - 1))
        return i, j

    def _free(self, i, j) -> bool:
        return not self._occ[i, j]

    def _nearest_free(self, xy):
        i0, j0 = self._cell_of(xy)
        if self._free(i0, j0):
            return i0, j0
        free = np.argwhere(~self._occ)
        k = np.argmin((free[:, 0] - i0) ** 2 + (free[:, 1] - j0) ** 2)
        return tuple(int(v) for v in free[k])

    def _segment_free(self, a, b) -> bool:
        a, b = np.asarray(a, float), np.asarray(b, float)
        n = max(2, int(np.ceil(np.linalg.norm(b - a) / (_EVADER_CELL / 2))) + 1)
        for s in np.linspace(0.0, 1.0, n):
            i, j = self._cell_of(a + s * (b - a))
            if self._occ[i, j]:
                return False
        return True

    def _astar(self, start, goal):
        si, gi = self._nearest_free(start), self._nearest_free(goal)
        nx, ny = self._occ.shape
        moves = [(-1, 0, 1.0), (1, 0, 1.0), (0, -1, 1.0), (0, 1, 1.0),
                 (-1, -1, np.sqrt(2)), (-1, 1, np.sqrt(2)),
                 (1, -1, np.sqrt(2)), (1, 1, np.sqrt(2))]

        def h(n):
            dx, dy = abs(n[0] - gi[0]), abs(n[1] - gi[1])
            return max(dx, dy) + (np.sqrt(2) - 1) * min(dx, dy)

        g = {si: 0.0}
        came: dict = {}
        heap = [(h(si), 0, si)]
        tie = 0
        while heap:
            _, _, cur = heapq.heappop(heap)
            if cur == gi:
                cells = [cur]
                while cur in came:
                    cur = came[cur]
                    cells.append(cur)
                return cells[::-1]
            for dx, dy, w in moves:
                ni, nj = cur[0] + dx, cur[1] + dy
                if not (0 <= ni < nx and 0 <= nj < ny) or self._occ[ni, nj]:
                    continue
                # forbid cutting a blocked corner diagonally
                if dx and dy and (self._occ[cur[0] + dx, cur[1]]
                                  or self._occ[cur[0], cur[1] + dy]):
                    continue
                cand = g[cur] + w
                if cand < g.get((ni, nj), np.inf):
                    g[(ni, nj)] = cand
                    came[(ni, nj)] = cur
                    tie += 1
                    heapq.heappush(heap, (cand + h((ni, nj)), tie, (ni, nj)))
        raise RuntimeError("no collision-free path for the evader")

    def _plan(self, start, goal):
        cells = self._astar(start, goal)
        pts = [np.asarray(start, float)[:2]]
        pts += [np.array([self._xs[i], self._ys[j]]) for i, j in cells]
        pts.append(np.asarray(goal, float)[:2])
        # line-of-sight shortcutting
        out = [pts[0]]
        k = 0
        while k < len(pts) - 1:
            far = k + 1
            for m in range(len(pts) - 1, k, -1):
                if self._segment_free(pts[k], pts[m]):
                    far = m
                    break
            out.append(pts[far])
            k = far
        return out

    def set_course(self, start_xy, goal_xy) -> None:
        start_xy = np.asarray(start_xy, float)[:2]
        self.goal_xy = np.asarray(goal_xy, float)[:2]
        self.path = self._plan(start_xy, self.goal_xy)
        self.position = np.array([*start_xy, self.height])
        self._traveled = 0.0
        self._seg = 0
        self._path_len = sum(np.linalg.norm(b - a) for a, b
                             in zip(self.path[:-1], self.path[1:]))

    def _random_goal(self):
        xmin, xmax, ymin, ymax = self.bounds
        for _ in range(100):
            xy = np.array([self.goal_xy[0] + self.rng.uniform(-3.0, 3.0),
                           self.rng.uniform(ymin + 1.0, ymax - 1.0)])
            i, j = self._cell_of(xy)
            if self._free(i, j):
                return xy
        return self.goal_xy

    @property
    def done(self) -> bool:
        if self.path is None:
            return False
        return self._seg >= len(self.path) - 1 or self._path_len < 1e-9 \
            or self.speed <= 0

    def step(self, dt: float) -> None:
        if self.path is None:
            raise RuntimeError("set_course before stepping the evader")
        if self.switches_left > 0 \
                and self._traveled >= _SWITCH_FRACTION * self._path_len:
            self.switches_left -= 1
            self.set_course(self.position[:2], self._random_goal())
        self._speed = min(self.speed, self._speed + _EVADER_ACCEL * dt)
        remaining = self._speed * dt
        pos = self.position[:2].copy()
        while remaining > 0 and self._seg < len(self.path) - 1:
            nxt = self.path[self._seg + 1]
            gap = float(np.linalg.norm(nxt - pos))
            if gap <= remaining:
                pos = nxt.copy()
                remaining -= gap
                self._traveled += gap
                self._seg += 1
            else:
                pos = pos + (nxt - pos) / gap * remaining
                self._traveled += remaining
                remaining = 0.0
        self.position = np.array([*pos, self.height])


# -- arenas -------------------------------------------------------------------

_MARGIN = 3.0  # free border around the forest area in the field, meters


@dataclass(frozen=True)
class Arena:
    """Ground-truth world: distance field plus the trunk layout it encodes."""

    grid: EsdfGrid
    trunks: np.ndarray  # (T, 2) centers
    trunk_radius: float
    trunk_height: float
    bounds: tuple  # xmin, xmax, ymin, ymax for path planning
    cloud: PointCloud | None = None  # obstacle points the field is built from


def make_forest_arena(seed: int, intensity: float = 1.0 / 16.0,
                      area=(16.0, 50.0), clear_points=(),
                      min_spacing: float | None = None,
                      resolution: float = 0.25,
                      trunk_height: float = 4.0,
                      trunk_radius: float = 0.15) -> Arena:
    """Poisson-forest world with its truncated distance field."""
    spec = ForestSpec(intensity=intensity, area=area, seed=seed,
                      min_spacing=min_spacing, trunk_radius=trunk_radius,
                      trunk_height=trunk_height)
    cloud = generate_forest(spec, resolution, clear_points)
    width, depth = area
    origin = np.array([-_MARGIN, -width / 2 - _MARGIN, 0.0])
    extent = np.array([depth + 2 * _MARGIN, width + 2 * _MARGIN,
                       trunk_height + 0.5])
    dims = tuple(int(np.ceil(e / resolution)) for e in extent)
    grid = build_esdf(cloud, origin, dims, resolution)
    return Arena(grid, trunk_positions(spec, clear_points),
                 spec.trunk_radius, trunk_height,
                 (0.0, depth, -width / 2, width / 2), cloud)


def empty_arena(area=(16.0, 50.0), resolution: float = 0.5,
                height: float = 4.5) -> Arena:
    """Obstacle-free world (distance field saturated at the truncation)."""
    width, depth = area
    origin = np.array([-_MARGIN, -width / 2 - _MARGIN, 0.0])
    dims = tuple(int(np.ceil(e / resolution)) for e in
                 (depth + 2 * _MARGIN, width + 2 * _MARGIN, height))
    grid = build_esdf(PointCloud(np.zeros((0, 3))), origin, dims, resolution)
    return Arena(grid, np.zeros((0, 2)), 0.15, height,
                 (0.0, depth, -width / 2, width / 2))


# -- episode plumbing ---------------------------------------------------------

_START = (0.0, 0.0)  # vehicle start (x, y) of every episode
_TARGET_START = (4.0, 0.0)  # evader start (x, y) of a pursuit


@dataclass(frozen=True)
class SimParams:
    """Closed-loop defaults for the planner, controller, and plant."""

    control_dt: float = 0.005
    planner_rate: float = 30.0
    tau_att: float = 0.06
    drag_k: float = 0.05
    mass: float = 1.0
    collision_radius: float = 0.2
    emergency_factor: float = 1.5
    v_max: float = 8.0
    a_max: float = 6.0
    alpha: float = 1.0
    standoff: float = 4.0  # commanded follow distance, middle of the band
    min_standoff: float = 1.0  # pursuit point never commanded closer than this
    lead_time: float = 1.25  # matches the plan horizon at the default limits
    follow_distance: float = 8.0
    goal_radius: float = 1.0
    flight_height: float = 1.5
    kp: float = 6.0
    kv: float = 4.0
    external_bias: tuple = (0.0, 0.0, 0.0)
    lost_timeout: float = 3.0
    acquire_timeout: float = 1.5
    max_time: float = 60.0
    refine_steps: int = 8
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    # a heavier collision weight than the open-loop default buys clearance
    # margin against the emergency-stop threshold at speed
    weights: CostWeights = field(
        default_factory=lambda: CostWeights(lambda_c=3.0))
    detection: DetectionSim = field(default_factory=DetectionSim)


@dataclass
class EpisodeLog:
    """Per-step and per-plan records of one episode."""

    control_dt: float
    t: list = field(default_factory=list)
    position: list = field(default_factory=list)
    velocity: list = field(default_factory=list)
    acceleration: list = field(default_factory=list)
    yaw: list = field(default_factory=list)
    thrust: list = field(default_factory=list)
    in_fov: list = field(default_factory=list)  # per plan cycle
    rel_xy: list = field(default_factory=list)  # body-frame target offsets
    target_dist: list = field(default_factory=list)  # planar, per plan cycle
    latency_ms: list = field(default_factory=list)
    chosen_cost: list = field(default_factory=list)
    detected: list = field(default_factory=list)

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t", "px", "py", "pz", "vx", "vy", "vz",
                        "ax", "ay", "az", "yaw", "thrust"])
            for k in range(len(self.t)):
                w.writerow([f"{self.t[k]:.4f}",
                            *(f"{v:.5f}" for v in self.position[k]),
                            *(f"{v:.5f}" for v in self.velocity[k]),
                            *(f"{v:.5f}" for v in self.acceleration[k]),
                            f"{self.yaw[k]:.5f}", f"{self.thrust[k]:.5f}"])


@dataclass(frozen=True)
class EpisodeMetrics:
    """Outcome summary of one closed-loop episode."""

    success: bool
    failure_class: str  # planning_failed | target_missed | none
    min_clearance: float
    smoothness: float  # integral of squared jerk
    fov_fraction: float
    rel_positions: np.ndarray  # (K, 2) body-frame target samples
    mean_latency_ms: float
    final_distance: float
    path_length: float
    duration: float
    target_distances: np.ndarray = field(default_factory=lambda: np.zeros(0))
    flags: tuple = ()


def compute_metrics(log: EpisodeLog, grid: EsdfGrid, success: bool,
                    failure_class: str, final_distance: float,
                    flags=()) -> EpisodeMetrics:
    """Derive the standard metrics from a complete episode log."""
    pos = np.asarray(log.position, float).reshape(-1, 3)
    acc = np.asarray(log.acceleration, float).reshape(-1, 3)
    dt = log.control_dt
    if len(pos):
        dist, _ = grid.query(pos, with_grad=False)
        min_clear = float(np.min(dist))
        path_len = float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))
    else:
        min_clear, path_len = np.inf, 0.0
    if len(acc) >= 2:
        jerk = np.diff(acc, axis=0) / dt
        smooth = float(np.sum(jerk * jerk) * dt)
    else:
        smooth = 0.0
    fov = float(np.mean(log.in_fov)) if log.in_fov else 0.0
    lat = float(np.mean(log.latency_ms)) if log.latency_ms else 0.0
    rel = np.asarray(log.rel_xy, float).reshape(-1, 2)
    dists = np.asarray(log.target_dist, float)
    return EpisodeMetrics(success, failure_class, min_clear, smooth, fov, rel,
                          lat, final_distance, path_len,
                          len(pos) * dt, dists, tuple(flags))


def _collided(pos, arena: Arena, radius: float) -> bool:
    if pos[2] < 0.05:
        return True
    if len(arena.trunks) == 0 or pos[2] > arena.trunk_height:
        return False
    d = np.min(np.linalg.norm(arena.trunks - pos[:2], axis=1)) \
        - arena.trunk_radius
    return d < radius


def _braking_endpoint(state: QuadState, p: SimParams) -> np.ndarray:
    speed = float(np.linalg.norm(state.velocity))
    stop = state.position + state.velocity * min(0.5, speed / p.a_max) * 0.5
    return np.column_stack([stop, np.zeros(3), np.zeros(3)])


class _Planner:
    """One planning cycle: decode anchors, optimize or infer, pick, check.

    The refiner optimizes the anchors, or with a head one forward pass
    predicts them; either way the cycle flies the finite row of least
    realized cost. `emergency` tells whether the latest cycle replaced the
    chosen trajectory with a brake; the next cycle sets it afresh.
    """

    def __init__(self, arena: Arena, p: SimParams,
                 head: PolicyHead | None = None):
        self.arena, self.p, self.head = arena, p, head
        self.cam0 = CameraModel.for_lattice(p.lattice)
        self.emergency = False
        self._warm = None  # previous cycle's raw solution

    def plan(self, state: QuadState, goal_p, mode: str,
             target_world=None) -> tuple[Trajectory, float, float]:
        """Returns (trajectory, chosen weighted cost, latency ms); the cost is
        NaN when no candidate is finite and the cycle brakes.

        The latency covers the whole cycle, from building the cost engine
        to the executed-clearance check.
        """
        t0 = perf_counter()
        p = self.p
        R_cam = Rotation.from_euler("z", state.yaw).as_matrix()
        acc = np.clip(state.acceleration, -p.a_max, p.a_max)
        d_F = np.column_stack([state.position, state.velocity, acc])
        engine = CostEngine(self.arena.grid, d_F, p.lattice, p.alpha, p.v_max,
                            p.a_max, np.asarray(goal_p, float), mode=mode,
                            weights=p.weights, rotation=R_cam)
        T = engine.horizon_T
        if self.head is None:
            raw, total, _ = refine(engine, steps=p.refine_steps,
                                   raw0=self._warm)
            self._warm = raw
        else:
            cam = self.cam0.with_pose(R_cam, state.position)
            v_n = R_cam.T @ state.velocity / (p.alpha * p.v_max)
            a_n = R_cam.T @ acc / (p.alpha ** 2 * p.a_max)
            feats = compute_features(self.arena.grid, cam, p.lattice, v_n,
                                     a_n, target_world=target_world)
            raw = self.head.forward(feats.values)[:, :9]
            # a row with a non-finite entry is infeasible: it keeps a NaN
            # total and never reaches the field query
            ok = np.flatnonzero(np.isfinite(raw).all(axis=1))
            total = np.full(len(raw), np.nan)
            if len(ok):
                total[ok] = engine.evaluate(raw[ok], with_grad=False,
                                            idx=ok)[0]
        # a NaN marks an infeasible candidate: choose among the finite rows,
        # and brake when there is none
        finite = np.isfinite(total)
        if finite.any():
            chosen = int(np.argmin(np.where(finite, total, np.inf)))
            cost = float(total[chosen])
            d_P = engine.decode(raw)[chosen]
            traj = Trajectory.from_boundary(d_F, d_P, T)
            # executed-clearance check over the first half horizon
            ts = np.linspace(0.0, T / 2, 11)
            dist, _ = self.arena.grid.query(traj.sample_many(ts),
                                            with_grad=False)
            self.emergency = bool(
                np.min(dist) < p.emergency_factor * p.collision_radius)
        else:
            cost, self.emergency = float("nan"), True
        if self.emergency:
            traj = Trajectory.from_boundary(d_F, _braking_endpoint(state, p),
                                            T)
        return traj, cost, (perf_counter() - t0) * 1e3


def _control_step(state: QuadState, traj: Trajectory, tau: float,
                  yaw_cmd: float, obs: ObserverState, p: SimParams):
    tau = min(max(tau, 0.0), traj.horizon_T)
    p_des = traj.sample(tau)
    v_des = traj.sample(tau, 1)
    a_des = traj.sample(tau, 2)
    acc_cmd = a_des + p.kp * (p_des - state.position) \
        + p.kv * (v_des - state.velocity)
    acc_cmd = np.clip(acc_cmd, -1.5 * p.a_max, 1.5 * p.a_max)
    acc_cmd[2] = max(acc_cmd[2], -0.8 * GRAVITY)  # keep thrust well-defined
    cmd = flatness_commands(acc_cmd, yaw_cmd, obs.disturbance, p.mass,
                            prev_body_y=state.attitude[:, 1])
    obs = observer_step(obs, state.velocity, cmd.attitude, cmd.thrust,
                        p.control_dt)
    state = step(state, cmd, p.control_dt, p.tau_att, p.drag_k,
                 p.external_bias)
    return state, obs, cmd


def _fly(arena: Arena, p: SimParams, planner: _Planner, state: QuadState,
         yaw_cmd: float, max_time: float, log_path, cycle, finished,
         outcome, advance=None) -> EpisodeMetrics:
    """The closed loop that both kinds of episode fly.

    Each planning period `cycle(state, t, yaw_cmd, log)` returns the cycle's
    (goal, yaw command, cost mode, head target), None to keep the current
    trajectory (before the first plan: hold the plant, log hover thrust),
    or a failure class. After each plant step `advance(dt)` moves the world,
    a collision or a stall (braking, slower than 0.2 m/s) fails, and
    `finished(state, t)` ends the episode. `outcome(state, finished)` gives
    (missed, final distance); a miss that did not fail is target_missed.
    """
    obs = ObserverState.initial(state.velocity, mass=p.mass)
    log = EpisodeLog(p.control_dt)
    every = max(1, round(1.0 / p.planner_rate / p.control_dt))
    traj, t_plan, failure, done = None, 0.0, None, False
    for k in range(int(max_time / p.control_dt)):
        t = k * p.control_dt
        if k % every == 0:
            request = cycle(state, t, yaw_cmd, log)
            if isinstance(request, str):
                failure = request
                break
            if request is not None:
                goal_p, yaw_cmd, mode, target = request
                traj, cost, lat = planner.plan(state, goal_p, mode,
                                               target_world=target)
                t_plan = t
                log.latency_ms.append(lat)
                log.chosen_cost.append(cost)
        if traj is not None:
            state, obs, cmd = _control_step(state, traj, t - t_plan, yaw_cmd,
                                            obs, p)
            thrust = cmd.thrust
        else:
            thrust = p.mass * GRAVITY
        if advance is not None:
            advance(p.control_dt)
        log.t.append(t)
        log.position.append(state.position.copy())
        log.velocity.append(state.velocity.copy())
        log.acceleration.append(state.acceleration.copy())
        log.yaw.append(state.yaw)
        log.thrust.append(thrust)
        if _collided(state.position, arena, p.collision_radius) or (
                planner.emergency and np.linalg.norm(state.velocity) < 0.2):
            failure = "planning_failed"
            break
        if finished(state, t):
            done = True
            break
    missed, final = outcome(state, done)
    if failure is None and missed:
        failure = "target_missed"
    metrics = compute_metrics(log, arena.grid, failure is None,
                              failure or "none", final)
    if log_path is not None:
        log.save_csv(log_path)
    return metrics


def run_tracking_episode(arena: Arena, params: SimParams, seed: int,
                         evader_speed: float, course_length: float = 40.0,
                         head: PolicyHead | None = None, log_path=None,
                         switches: int = 1) -> EpisodeMetrics:
    """Closed-loop pursuit of a scripted evader through the arena.

    Success requires no collision, no stall (the vehicle braking for an
    emergency and slower than 0.2 m/s), the target never lost beyond the
    timeout, and the vehicle within the follow distance when the evader
    reaches its final goal. An emergency brake the flight recovers from is
    not a failure.
    """
    p = params
    rng = np.random.default_rng(seed)
    evader = EvaderScript(arena.trunks, arena.bounds, evader_speed,
                          height=p.flight_height, switches=switches,
                          rng=np.random.default_rng(seed + 1))
    goal_y = float(rng.uniform(-3.0, 3.0)) if evader_speed > 0 \
        else _TARGET_START[1]
    evader.set_course(_TARGET_START,
                      (_TARGET_START[0] + course_length, goal_y))
    yaw0 = float(np.arctan2(_TARGET_START[1] - _START[1],
                            _TARGET_START[0] - _START[0]))
    state = QuadState.hover([*_START, p.flight_height], yaw0, p.mass)
    planner = _Planner(arena, p, head)
    planner_dt = 1.0 / p.planner_rate
    est: TargetEstimate | None = None
    lost_time = 0.0
    goal_p = np.array([*_TARGET_START, p.flight_height])
    grace = None

    def cycle(state, t, yaw_cmd, log):  # detect, filter, lead the target
        nonlocal est, lost_time, goal_p
        R_cam = Rotation.from_euler("z", state.yaw).as_matrix()
        cam = planner.cam0.with_pose(R_cam, state.position)
        tgt_true = evader.position
        visible = _visible(tgt_true, cam, arena.grid, p.detection)
        det = simulate_detection(tgt_true, cam, arena.grid, p.detection,
                                 rng, visible=visible)
        if est is None:
            if det is None:
                return "target_missed" if t > p.acquire_timeout else None
            est = TargetEstimate.from_position(det)
        else:
            est = predict(est, planner_dt)
            est, accepted = gated_update(
                est, [det] if det is not None else [])
            lost_time = 0.0 if accepted is not None else \
                lost_time + planner_dt
            if lost_time > p.lost_timeout:
                return "target_missed"
        lead = est.velocity * p.lead_time
        lnorm = float(np.linalg.norm(lead))
        if lnorm > p.standoff:  # fast targets: lead at most one standoff
            lead *= p.standoff / lnorm
        tgt = est.position + lead
        delta = tgt - state.position
        norm = np.linalg.norm(delta[:2])
        if norm > 0.3:
            goal_p = tgt - delta / np.linalg.norm(delta) * p.standoff
        # a decelerating or turning target can pull the lead point
        # behind itself; never command the pursuit inside min_standoff
        away = (goal_p - est.position)[:2]
        anorm = float(np.linalg.norm(away))
        if anorm < p.min_standoff:
            back = -delta[:2]
            bnorm = float(np.linalg.norm(back))
            direction = back / bnorm if bnorm > 1e-9 else \
                (away / anorm if anorm > 1e-9 else np.array([-1.0, 0.0]))
            goal_p = est.position + p.min_standoff * np.array(
                [*direction, 0.0])
        goal_p = np.array([goal_p[0], goal_p[1], p.flight_height])
        yaw_cmd = plan_yaw(est.position, state.position, state.yaw,
                           planner_dt, lost=lost_time > 0,
                           last_bearing=yaw_cmd)
        rel = R_cam.T @ (tgt_true - state.position)
        log.in_fov.append(visible)
        log.rel_xy.append(rel[:2])
        log.target_dist.append(
            float(np.linalg.norm((tgt_true - state.position)[:2])))
        log.detected.append(det is not None)
        return goal_p, yaw_cmd, "tracking", \
            est.position if head is not None else None

    def finished(state, t):  # a 1.5 s grace period after the evader's goal
        nonlocal grace
        if evader.done:
            if grace is None:
                grace = t + 1.5
            elif t >= grace:
                return True
        return False

    def outcome(state, done):
        final = float(np.linalg.norm((evader.position - state.position)[:2]))
        return not evader.done or final > p.follow_distance, final

    max_time = min(p.max_time, course_length / max(evader_speed, 0.5) + 20.0)
    return _fly(arena, p, planner, state, yaw0, max_time, log_path, cycle,
                finished, outcome, advance=evader.step)


def run_navigation_episode(arena: Arena, params: SimParams, seed: int,
                           goal_distance: float = 40.0,
                           head: PolicyHead | None = None,
                           log_path=None) -> EpisodeMetrics:
    """Closed-loop flight to a fixed goal straight ahead of the start.

    Success requires reaching the goal radius without collision or stall
    (the vehicle braking for an emergency and slower than 0.2 m/s); an
    emergency brake the flight recovers from is not a failure. A goal buried
    inside an obstacle ends the episode immediately, flagged as unreachable
    rather than crashed.
    """
    p = params
    state = QuadState.hover([*_START, p.flight_height], 0.0, p.mass)
    goal = np.array([_START[0] + goal_distance, _START[1], p.flight_height])

    def distance(state):
        return float(np.linalg.norm(goal - state.position))

    gdist, _ = arena.grid.query(goal, with_grad=False)
    if float(gdist) <= p.collision_radius:
        return compute_metrics(EpisodeLog(p.control_dt), arena.grid, False,
                               "target_missed", distance(state),
                               flags=("goal_unreachable",))
    planner = _Planner(arena, p, head)
    planner_dt = 1.0 / p.planner_rate

    def cycle(state, t, yaw_cmd, log):
        mode = "navigation" if distance(state) > p.lattice.r else "tracking"
        yaw_cmd = plan_yaw(goal, state.position, state.yaw, planner_dt)
        return goal, yaw_cmd, mode, None

    max_time = min(p.max_time * 2, 4.0 * goal_distance / p.v_max + 30.0)
    return _fly(arena, p, planner, state, 0.0, max_time, log_path, cycle,
                lambda state, t: distance(state) <= p.goal_radius,
                lambda state, done: (not done, distance(state)))
