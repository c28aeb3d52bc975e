"""Run configuration: flat key-value blocks with documented defaults.

Every parameter has a default; unknown sections or keys are rejected so a
typo cannot silently fall back. Values annotated as tuned defaults are
empirical tuning choices of this package, not externally mandated numbers.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

from .costs import CostWeights, PotentialParams
from .policy import StateSampler
from .primitives import LatticeConfig
from .simulator import Arena, DetectionSim, SimParams, make_forest_arena

__all__ = ["RunConfig", "example_text"]

_NP = "tuned default"

# (default, help) per key; a trailing "*" in help marks tuned defaults
_SCHEMA: dict[str, dict[str, tuple]] = {
    "run": {
        "seeds": ("0 1 2 3 4 5 6 7 8 9", "episode seeds, whitespace-separated"),
        "backend": ("refiner", "refiner | head"),
    },
    "lattice": {
        "m_phi": (5, "horizontal grid cells"),
        "m_theta": (3, "vertical grid cells"),
        "fov_h_deg": (90.0, "horizontal field of view"),
        "fov_v_deg": (math.degrees(2 * math.atan(math.tan(math.pi / 4) * 9 / 16)),
                      "vertical field of view (16:9 aspect)"),
        "radius": (5.0, "planning radius, meters"),
    },
    "cost": {
        "lambda_s": (0.1, "smoothness weight *"),
        "lambda_c": (1.0, "collision weight *"),
        "lambda_g": (1.0, "goal weight *"),
        "lambda_1": (0.2, "non-positive sample weight *"),
        "lambda_2": (0.5, "negative objectness weight *"),
        "d_safe": (0.4, "potential safety distance, meters *"),
        "falloff": (0.4, "potential decay scale, meters *"),
        "cutoff": (2.0, "potential cutoff distance, meters *"),
    },
    "observer": {
        "mass": (1.0, "vehicle mass, kilograms *"),
    },
    "simulator": {
        "control_dt": (0.005, "plant step, seconds *"),
        "planner_rate": (30.0, "replanning rate, hertz *"),
        "tau_att": (0.06, "attitude lag time constant, seconds *"),
        "drag_k": (0.05, "quadratic drag coefficient *"),
        "collision_radius": (0.2, "vehicle radius, meters *"),
        "emergency_factor": (1.5, "clearance multiple triggering a stop *"),
        "v_max": (8.0, "speed limit, m/s *"),
        "a_max": (6.0, "acceleration limit, m/s^2 *"),
        "alpha": (1.0, "aggressiveness time scale"),
        "standoff": (4.0, "commanded follow distance, meters *"),
        "min_standoff": (1.0, "closest commanded pursuit point, meters *"),
        "lead_time": (1.25, "target velocity lead, seconds *"),
        "follow_distance": (8.0, "success follow threshold, meters *"),
        "goal_radius": (1.0, "navigation success radius, meters *"),
        "flight_height": (1.5, "cruise height, meters *"),
        "kp": (6.0, "position feedback gain *"),
        "kv": (4.0, "velocity feedback gain *"),
        "lost_timeout": (3.0, "target-lost failure timeout, seconds *"),
        "acquire_timeout": (1.5, "initial acquisition timeout, seconds *"),
        "max_time": (60.0, "episode wall clock cap, seconds *"),
        "refine_steps": (8, "refiner L-BFGS iterations"),
        "collision_weight": (3.0, "closed-loop collision weight override *"),
        "intensity": (1.0 / 16.0, "forest density, trunks per square meter"),
        "area_width": (16.0, "forest width, meters *"),
        "area_depth": (50.0, "forest depth, meters *"),
        "trunk_radius": (0.15, "trunk radius, meters *"),
        "trunk_height": (4.0, "trunk height, meters *"),
        "min_spacing": (0.0, "hard-core trunk spacing, meters; 0 disables *"),
        "resolution": (0.25, "field voxel size, meters *"),
        "evader_speed": (3.0, "target speed, m/s"),
        "course_length": (40.0, "tracking course length, meters"),
        "goal_distance": (40.0, "navigation goal distance, meters"),
        "switches": (1, "evasive goal switches per course *"),
        "pixel_std": (1.0, "detection pixel noise, pixels *"),
        "depth_std": (0.02, "multiplicative depth noise *"),
        "false_negative": (0.05, "missed detection probability *"),
        "max_depth": (20.0, "detection range, meters *"),
    },
    "sampler": {
        "sigma": (0.6, "forward velocity log std *"),
        "v_m": (8.8, "forward velocity upper bound, m/s *"),
        "lateral_std": (2.4, "lateral velocity std, m/s *"),
        "vertical_std": (2.4, "vertical velocity std, m/s *"),
        "acc_std": (1.8, "acceleration std, m/s^2 *"),
    },
    "train": {
        "epochs": (200, "training epochs"),
        "learning_rate": (1e-3, "head learning rate"),
        "optimizer": ("sgd", "sgd | momentum | adam *"),
        "hidden": ("64 64", "hidden layer widths *"),
        "mode": ("navigation", "training frame mode *"),
        "frames": (50, "frames generated by make-dataset *"),
        "obstacles": (3, "obstacle columns per generated scene *"),
    },
}


def _parse_value(default, text: str):
    if isinstance(default, bool):
        return text.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    return text.strip()


@dataclass
class RunConfig:
    """Validated configuration values, one dict per block."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {s: {k: v[0] for k, v in keys.items()}
                  for s, keys in _SCHEMA.items()}
        for sec, keys in self.values.items():
            if sec not in _SCHEMA:
                raise ValueError(f"unknown config section [{sec}]")
            for key, val in keys.items():
                if key not in _SCHEMA[sec]:
                    raise ValueError(f"unknown key {key!r} in section [{sec}]")
                merged[sec][key] = val
        self.values = merged

    def __getitem__(self, section: str) -> dict:
        return self.values[section]

    # -- text format --------------------------------------------------------

    @classmethod
    def loads(cls, text: str) -> "RunConfig":
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                       interpolation=None)
        cp.read_string(text)
        values: dict = {}
        for sec in cp.sections():
            if sec not in _SCHEMA:
                raise ValueError(f"unknown config section [{sec}]")
            values[sec] = {}
            for key, raw in cp[sec].items():
                if key not in _SCHEMA[sec]:
                    raise ValueError(f"unknown key {key!r} in section [{sec}]")
                values[sec][key] = _parse_value(_SCHEMA[sec][key][0], raw)
        return cls(values)

    def dumps(self, annotate: bool = False) -> str:
        out = io.StringIO()
        for sec, keys in self.values.items():
            out.write(f"[{sec}]\n")
            for key, val in keys.items():
                line = f"{key} = {val}"
                if annotate:
                    note = _SCHEMA[sec][key][1]
                    if note.endswith("*"):
                        note = note[:-1].rstrip() + f"; {_NP}"
                    line += f"  # {note}"
                out.write(line + "\n")
            out.write("\n")
        return out.getvalue()

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.loads(f.read())

    # -- domain objects ------------------------------------------------------

    @property
    def seeds(self) -> list[int]:
        return [int(s) for s in str(self["run"]["seeds"]).split()]

    def lattice_config(self) -> LatticeConfig:
        c = self["lattice"]
        return LatticeConfig(m_phi=c["m_phi"], m_theta=c["m_theta"],
                             fov_h=math.radians(c["fov_h_deg"]),
                             fov_v=math.radians(c["fov_v_deg"]),
                             r=c["radius"])

    def cost_weights(self) -> CostWeights:
        c = self["cost"]
        return CostWeights(c["lambda_s"], c["lambda_c"], c["lambda_g"],
                           c["lambda_1"], c["lambda_2"])

    def potential_params(self, horizon_T: float) -> PotentialParams:
        c = self["cost"]
        return PotentialParams(c["d_safe"], c["falloff"], c["cutoff"],
                               dt=horizon_T / 20.0)

    def forest_arena(self, seed: int, clear_points=()) -> Arena:
        """The configured Poisson forest and its distance field."""
        s = self["simulator"]
        spacing = s["min_spacing"] if s["min_spacing"] > 0 else None
        return make_forest_arena(seed, intensity=s["intensity"],
                                 area=(s["area_width"], s["area_depth"]),
                                 clear_points=clear_points,
                                 min_spacing=spacing,
                                 resolution=s["resolution"],
                                 trunk_height=s["trunk_height"],
                                 trunk_radius=s["trunk_radius"])

    def sim_params(self) -> SimParams:
        s = self["simulator"]
        o = self["observer"]
        det = DetectionSim(pixel_std=s["pixel_std"], depth_std=s["depth_std"],
                           false_negative=s["false_negative"],
                           max_depth=s["max_depth"])
        return SimParams(
            control_dt=s["control_dt"], planner_rate=s["planner_rate"],
            tau_att=s["tau_att"], drag_k=s["drag_k"], mass=o["mass"],
            collision_radius=s["collision_radius"],
            emergency_factor=s["emergency_factor"],
            v_max=s["v_max"], a_max=s["a_max"], alpha=s["alpha"],
            standoff=s["standoff"], min_standoff=s["min_standoff"],
            lead_time=s["lead_time"], follow_distance=s["follow_distance"],
            goal_radius=s["goal_radius"], flight_height=s["flight_height"],
            kp=s["kp"], kv=s["kv"], lost_timeout=s["lost_timeout"],
            acquire_timeout=s["acquire_timeout"], max_time=s["max_time"],
            refine_steps=s["refine_steps"], lattice=self.lattice_config(),
            weights=replace(self.cost_weights(),
                            lambda_c=s["collision_weight"]),
            detection=det)

    def sampler(self) -> StateSampler:
        c = self["sampler"]
        return StateSampler(sigma=c["sigma"], v_m=c["v_m"],
                            lateral_std=c["lateral_std"],
                            vertical_std=c["vertical_std"],
                            acc_std=c["acc_std"])

    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(int(w) for w in str(self["train"]["hidden"]).split())


def example_text() -> str:
    """Fully annotated default configuration."""
    return RunConfig().dumps(annotate=True)
