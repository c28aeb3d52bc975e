"""Primitive-anchored quadrotor tracking and navigation toolkit.

Quintic boundary-derivative trajectories over a spherical anchor lattice,
a truncated distance field with analytic-gradient queries, a differentiable
trajectory-cost engine, refiner and trainable prediction backends, target
tracking with gated filtering, flatness-based control with a disturbance
observer, and a deterministic closed-loop simulator.
"""

from .camera import CameraModel
from .config import RunConfig
from .costs import CostEngine, CostWeights, PotentialParams
from .environment import EsdfGrid, ForestSpec, PointCloud, build_esdf, \
    generate_forest
from .policy import PolicyHead, StateSampler, refine
from .primitives import LatticeConfig, build_library
from .simulator import Arena, QuadState, SimParams, empty_arena, \
    make_forest_arena, run_navigation_episode, run_tracking_episode
from .tracker import TargetEstimate, gated_update, predict
from .trajectory import Trajectory

__version__ = "0.1.0"

__all__ = [
    "Arena", "CameraModel", "CostEngine", "CostWeights", "EsdfGrid",
    "ForestSpec", "LatticeConfig", "PointCloud", "PolicyHead",
    "PotentialParams", "QuadState", "RunConfig",
    "SimParams", "StateSampler", "TargetEstimate", "Trajectory",
    "build_esdf", "build_library", "empty_arena", "gated_update",
    "generate_forest", "make_forest_arena", "predict", "refine",
    "run_navigation_episode", "run_tracking_episode",
]
