"""The benchmark's workloads: inputs built from the seed, rounds, checks.

A round is a fixed list of operations; every run attempts whole rounds, so
the share of failed operations does not depend on how long a run is.
Closed-loop operations are episodes, training operations are epochs.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

# Program entry points are looked up on their modules at call time, so that
# traced runs see the span-recording wrappers.
from primtrack import cli, simulator
from primtrack.config import RunConfig
from primtrack.policy import PolicyHead


@dataclass
class Op:
    """Outcome of one operation of a round."""

    label: str
    ok: bool
    wall_s: float
    sim_s: float  # flight seconds the operation stands for
    frames: int  # planning cycles, or training frame-steps
    note: str = ""  # why the operation failed
    data: dict = field(default_factory=dict)  # what the checks need


# -- closed loop ---------------------------------------------------------------

@dataclass(frozen=True)
class Episode:
    """One closed-loop episode: start at the origin, 1.5 m up, heading +x."""

    label: str
    mode: str  # navigation | tracking
    forest_seed: int
    distance: float  # goal distance or evader course length, m
    episode_seed: int = 0
    evader_speed: float = 0.0

    def clear_points(self):
        far = self.distance if self.mode == "navigation" else 4.0
        return [(0.0, 0.0), (far, 0.0)]

    def arena(self):
        return simulator.make_forest_arena(self.forest_seed,
                                           clear_points=self.clear_points())

    def run(self, arena, params, log_path):
        if self.mode == "navigation":
            return simulator.run_navigation_episode(
                arena, params, self.episode_seed, goal_distance=self.distance,
                log_path=log_path)
        return simulator.run_tracking_episode(
            arena, params, self.episode_seed, self.evader_speed,
            course_length=self.distance, log_path=log_path)


# The seed picks one episode from a pool. Each pool holds the episodes, in
# order of forest seed, that end in success with every check passing; the
# ones left out are listed in CHANGES.md.
NAV_POOL = (1004, 1005, 1006, 1007, 1009, 1012)
TRACK_POOL = (0, 2, 3, 4, 6, 7, 8, 9, 10, 11)

# The `primtrack bench` episode and the one behind the latency test. It
# reaches the goal without collision, yet is reported planning_failed: the
# planner's emergency flag stays set after one brake mid-course.
NAV_FIXED = Episode("forest-1000 nav 40 m", "navigation", 1000, 40.0)
STICKY_EMERGENCY = "sticky emergency"


class ClosedLoop:
    """Episodes through Poisson forests with the refiner backend."""

    def __init__(self, name: str, episodes: list[Episode], workdir: Path):
        self.name, self.episodes, self.workdir = name, episodes, workdir
        self.params = simulator.SimParams()

    def setup(self):
        return [ep.arena() for ep in self.episodes]

    def round(self, arenas, k: int, cycles: list) -> list[Op]:
        ops = []
        for i, (ep, arena) in enumerate(zip(self.episodes, arenas)):
            path = self.workdir / f"{self.name}-ep{i}-round{k}.csv"
            n0 = len(cycles)
            t0 = perf_counter()
            m = ep.run(arena, self.params, path)
            wall = perf_counter() - t0
            ops.append(Op(ep.label, bool(m.success), wall, m.duration,
                          len(cycles) - n0, m.failure_class,
                          {"episode": i, "metrics": m, "log": path}))
        return ops

    def check(self, arenas, rounds: list[list[Op]]) -> list[str]:
        """Violations of every episode of every round; failed operations
        are labelled with what went wrong as a side effect."""
        p = self.params
        out = []
        for ops in rounds:
            for op in ops:
                ep = self.episodes[op.data["episode"]]
                arena = arenas[op.data["episode"]]
                m = op.data["metrics"]
                log = checks.read_log(op.data["log"])
                pos = log[:, checks.P]
                hit = checks.collided(pos, arena, p.collision_radius)
                errs = checks.finite_states(log) \
                    + checks.euler_consistent(log, p.control_dt) \
                    + checks.clearance_agrees(m.min_clearance, pos, arena) \
                    + checks.outcome_consistent(m.success, hit)
                if ep.mode == "navigation":
                    goal = np.array([ep.distance, 0.0, p.flight_height])
                    reached, dist = checks.reached_goal(pos, goal,
                                                        p.goal_radius)
                    rule = reached and not hit
                    if rule and not m.success \
                            and m.failure_class == "planning_failed":
                        op.note = (f"{STICKY_EMERGENCY}: reached the goal "
                                   f"({dist:.3f} m <= {p.goal_radius} m) "
                                   f"without collision, reported "
                                   f"{m.failure_class}")
                    elif rule != m.success:
                        errs.append(f"reported success={m.success} but the "
                                    f"log gives {rule} (final distance "
                                    f"{dist:.3f} m, collision {hit})")
                out += [f"{op.label}: {e}" for e in errs]
        out += self._deterministic(arenas, rounds)
        return out

    def _deterministic(self, arenas, rounds) -> list[str]:
        """Rerun each episode for its first simulated second or two and
        require the same log bytes as the full run wrote, and the same log
        from every round."""
        out = []
        short = replace(self.params, max_time=1.0)
        for i, (ep, arena) in enumerate(zip(self.episodes, arenas)):
            logs = [ops[i].data["log"].read_bytes() for ops in rounds]
            if any(b != logs[0] for b in logs[1:]):
                out.append(f"{ep.label}: rounds wrote different logs")
            path = self.workdir / f"{self.name}-ep{i}-rerun.csv"
            ep.run(arena, short, path)
            out += [f"{ep.label}: {e}"
                    for e in checks.log_is_prefix(logs[0], path.read_bytes())]
        return out


def nav_forest(seed: int, workdir: Path) -> ClosedLoop:
    k = NAV_POOL[seed % len(NAV_POOL)]
    return ClosedLoop("nav-forest", [
        NAV_FIXED,
        Episode(f"forest-{k} nav 20 m", "navigation", k, 20.0),
    ], workdir)


def track_evader(seed: int, workdir: Path) -> ClosedLoop:
    k = TRACK_POOL[seed % len(TRACK_POOL)]
    return ClosedLoop("track-evader", [
        Episode(f"forest-{100 + k} pursuit 5 m/s", "tracking", 100 + k, 40.0,
                episode_seed=k, evader_speed=5.0),
    ], workdir)


# -- training ------------------------------------------------------------------

class TrainHead:
    """Head training on tracking-mode frames with trajectory-cost gradients.

    Each epoch is one `train_head` call; with the default plain gradient
    descent that carries no optimizer state, this is the same computation as
    one call over all epochs.
    """

    name = "train-head"
    epochs_per_round = 200
    fd_frames = 3
    fd_params = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.cfg = RunConfig({"train": {"mode": "tracking", "frames": 50}})
        self._setups = 0
        self.losses: list[float] = []

    def setup(self):
        data = self.workdir / f"dataset{self._setups}"
        self._setups += 1
        with contextlib.redirect_stdout(sys.stderr):
            cli.make_dataset(self.cfg, data, seed=self.seed)
        frames = cli.build_training_frames(self.cfg, cli.load_frames(data),
                                           seed=self.seed)
        head = PolicyHead.create(hidden=self.cfg.hidden_sizes(),
                                 seed=self.seed)
        return {"frames": frames, "head0": head, "head": _copy(head)}

    def round(self, inputs, k: int, cycles: list) -> list[Op]:
        frames, ops = inputs["frames"], []
        dt_frame = 1.0 / simulator.SimParams().planner_rate
        for _ in range(self.epochs_per_round):
            t0 = perf_counter()
            inputs["head"], loss = cli.train_head(self.cfg, frames, epochs=1,
                                                  head=inputs["head"])
            wall = perf_counter() - t0
            cycles.append(wall)
            self.losses += loss
            ops.append(Op("epoch", bool(np.isfinite(loss[0])), wall,
                          len(frames) * dt_frame, len(frames)))
        return ops

    def check(self, inputs, rounds) -> list[str]:
        rng = np.random.default_rng(self.seed)
        head = inputs["head0"]
        picks = []
        for _ in range(self.fd_params):
            L = int(rng.integers(len(head.weights)))
            rows, cols = head.weights[L].shape
            picks.append((L, int(rng.integers(rows)), int(rng.integers(cols))))
        return checks.losses_fall(self.losses) + checks.gradient_agrees(
            head, inputs["frames"][:self.fd_frames], picks)


def _copy(head: PolicyHead) -> PolicyHead:
    return PolicyHead([w.copy() for w in head.weights],
                      [b.copy() for b in head.biases])


WORKLOADS = {
    "nav-forest": nav_forest,
    "track-evader": track_evader,
    "train-head": TrainHead,
}
