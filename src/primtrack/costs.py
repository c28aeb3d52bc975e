"""Differentiable trajectory costs with closed-form end-state gradients.

Smoothness penalizes the integral of squared jerk, collision integrates an
exponential potential of the ESDF distance along the trajectory, and the
goal cost is the squared endpoint-to-goal distance. Gradients are taken
w.r.t. the free end state d_P and chain-ruled through the anchor decoding
(tanh offset bounds, spherical endpoint map, denormalization) down to the
raw prediction variables.

The term functions `smoothness`, `collision` and `goal` are batched: d of
shape (N, 3, 6) stacks each candidate's start state d_F and end state d_P,
rows = axes and columns = (pos, vel, acc) at the start, then at the end.
CostEngine is built from them, so flights, training and the gradient audit
all run the same cost code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels
from .environment import EsdfGrid
from .primitives import LatticeConfig, build_library, horizon
from .trajectory import hermite_matrix, power_row

__all__ = [
    "CostWeights",
    "PotentialParams",
    "smoothness",
    "collision",
    "goal",
    "smooth_l1",
    "CostEngine",
]


@dataclass(frozen=True)
class CostWeights:
    """Weights of the trajectory costs and of the training cells.

    lambda_s/c/g are tuned defaults sized for the desk-scale suite;
    lambda_1 weights every cell but the target's in tracking training.
    """

    lambda_s: float = 0.1
    lambda_c: float = 1.0
    lambda_g: float = 1.0
    lambda_1: float = 0.2

    def __post_init__(self):
        if min(self.lambda_s, self.lambda_c, self.lambda_g,
               self.lambda_1) < 0:
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class PotentialParams:
    """Exponential obstacle potential c(d) = exp(-(d - d_safe)/s), cut off
    beyond `cutoff`.
    """

    d_safe: float = 0.4
    falloff: float = 0.4
    cutoff: float = 2.0

    def __post_init__(self):
        if not self.falloff > 0:
            raise ValueError("falloff must be positive")


@lru_cache(maxsize=64)
def jerk_gram_matrix(horizon_T: float) -> np.ndarray:
    """Q with Q[i, j] = integral over [0, T] of d3(t^i) * d3(t^j) dt."""
    T = float(horizon_T)
    Q = np.zeros((6, 6))
    for i in range(3, 6):
        ci = i * (i - 1) * (i - 2)
        for j in range(3, 6):
            cj = j * (j - 1) * (j - 2)
            p = i + j - 5
            Q[i, j] = ci * cj * T ** p / p
    Q.setflags(write=False)
    return Q


@lru_cache(maxsize=64)
def _hermite_gram(horizon_T: float) -> np.ndarray:
    """B = M^T Q M mapping boundary derivatives to the jerk integral."""
    M = hermite_matrix(horizon_T)
    B = M.T @ jerk_gram_matrix(horizon_T) @ M
    B.setflags(write=False)
    return B


def smoothness(d: np.ndarray, horizon_T: float, with_grad: bool = True):
    """J_s (N,), the squared jerk's integral summed over axes, and its
    gradient (N, 3, 3) w.r.t. the end state d[:, :, 3:], or None."""
    dB = d @ _hermite_gram(horizon_T)
    return np.einsum("nai,nai->n", dB, d), \
        2.0 * dB[:, :, 3:] if with_grad else None


_SAMPLES = 20  # the potential is sampled at 21 points, T/20 apart


@lru_cache(maxsize=64)
def _sample_rows(horizon_T: float):
    """Cached (powers (K, 6), powers @ M[:, 3:] (K, 3)) at the K = 21
    sample times k T / 20."""
    dt = horizon_T / _SAMPLES
    powers = np.stack([power_row(k * dt, 0) for k in range(_SAMPLES + 1)])
    P = powers @ hermite_matrix(horizon_T)[:, 3:]
    powers.setflags(write=False)
    P.setflags(write=False)
    return powers, P


def sample_points(d: np.ndarray, horizon_T: float) -> np.ndarray:
    """Positions (N, 21, 3) at the potential's sample times k T / 20."""
    coeffs = d @ hermite_matrix(horizon_T).T  # (N, 3, 6)
    return np.ascontiguousarray(
        (coeffs @ _sample_rows(horizon_T)[0].T).swapaxes(1, 2))


def collision(d: np.ndarray, horizon_T: float, grid: EsdfGrid,
              params: PotentialParams, with_grad: bool = True):
    """Time integral of the obstacle potential and its end-state gradient.

    The trajectory is sampled at 21 points, T/20 apart, endpoints included;
    out-of-bounds samples use clamped field queries. Returns (J_c (N,),
    grad (N, 3, 3) or None when with_grad is False).
    """
    dt = horizon_T / _SAMPLES
    dist, grad_d = grid.query(sample_points(d, horizon_T),
                              with_grad=with_grad)
    near = dist < params.cutoff
    c = np.zeros_like(dist)
    c[near] = np.exp((params.d_safe - dist[near]) / params.falloff)
    J = c.sum(axis=1) * dt
    if not with_grad:
        return J, None
    # dJ/dd_P[axis, comp] = sum_k c'(d) * dd/dx_axis * (T_k . L_P)[comp] dt
    dcdx = (-dt / params.falloff) * c[..., None] * grad_d  # (N, K, 3)
    return J, dcdx.swapaxes(1, 2) @ _sample_rows(horizon_T)[1]


def goal(p: np.ndarray, goal_p: np.ndarray, with_grad: bool = True):
    """Squared end-position-to-goal distance (N,), gradient (N, 3) or None."""
    diff = p - goal_p
    return np.einsum("na,na->n", diff, diff), 2.0 * diff if with_grad else None


# -- decode and chain rule to raw prediction variables ----------------------

RAW_DIM = 9  # (y_theta, y_phi, y_r, y_v[3], y_a[3])


def _geometry(raw, thetas, phis, cfg: LatticeConfig):
    """tanh(raw) and the decode geometry: cos and sin of the decoded polar
    and azimuth angles, and the decoded radius."""
    y = np.tanh(raw)
    th = thetas + y[:, 0] * cfg.d_theta
    ph = phis + y[:, 1] * cfg.d_phi
    rr = cfg.r * (1.0 + y[:, 2])
    return y, (np.cos(th), np.sin(th), np.cos(ph), np.sin(ph), rr)


def _forward(raw, thetas, phis, cfg: LatticeConfig, vel_scale, acc_scale,
             R, position, out):
    """(tanh(raw), decode geometry, world end states): the end states of
    the raw rows are written to out, shape (N, 3, 3), columns (pos, vel,
    acc); R and position place the camera in the world."""
    y, geo = _geometry(raw, thetas, phis, cfg)
    ct, st, cp, sp, rr = geo
    p_cam = np.empty((len(raw), 3))
    p_cam[:, 0] = rr * ct * cp
    p_cam[:, 1] = rr * ct * sp
    p_cam[:, 2] = rr * st
    out[:, :, 0] = p_cam @ R.T + position
    out[:, :, 1] = (y[:, 3:6] * vel_scale) @ R.T
    out[:, :, 2] = (y[:, 6:9] * acc_scale) @ R.T
    return y, geo, out


def _backward(grad_dP, y, geo, cfg: LatticeConfig, vel_scale, acc_scale,
              R) -> np.ndarray:
    """Gradient w.r.t. the raw rows (N, 9) from end-state gradients (N, 3,
    3), through the world placement, the spherical decode and the tanh."""
    ct, st, cp, sp, rr = geo
    gp = grad_dP[:, :, 0] @ R  # world -> camera
    g_th = rr * (ct * gp[:, 2] - st * (cp * gp[:, 0] + sp * gp[:, 1]))
    g_ph = rr * ct * (cp * gp[:, 1] - sp * gp[:, 0])
    g_r = ct * (cp * gp[:, 0] + sp * gp[:, 1]) + st * gp[:, 2]
    sech2 = 1.0 - y * y
    out = np.empty((len(y), RAW_DIM))
    out[:, 0] = g_th * sech2[:, 0] * cfg.d_theta
    out[:, 1] = g_ph * sech2[:, 1] * cfg.d_phi
    out[:, 2] = g_r * sech2[:, 2] * cfg.r
    out[:, 3:6] = (grad_dP[:, :, 1] @ R) * sech2[:, 3:6] * vel_scale
    out[:, 6:9] = (grad_dP[:, :, 2] @ R) * sech2[:, 6:9] * acc_scale
    return out


def chain_rule_batch(grad_dP: np.ndarray, raw: np.ndarray,
                     cfg: LatticeConfig, alpha: float, v_max: float,
                     a_max: float, rotation: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. raw variables, shape (n_cells, 9), from d_P
    gradients; rows are lattice anchors in flat order, and rotation is the
    camera's world-from-camera rotation."""
    raw = np.atleast_2d(np.asarray(raw, float))
    grad_dP = np.asarray(grad_dP, float).reshape(len(raw), 3, 3)
    y, geo = _geometry(raw, *build_library(cfg), cfg)
    return _backward(grad_dP, y, geo, cfg, alpha * v_max, alpha ** 2 * a_max,
                     np.asarray(rotation, float))


# -- losses -----------------------------------------------------------------

_BETA = 1.0  # half-width of smooth-L1's quadratic zone


def smooth_l1(x):
    """Elementwise smooth-L1 (Huber-style) with quadratic zone |x| < 1."""
    x = np.abs(np.asarray(x, float))
    return np.where(x < _BETA, 0.5 * x * x / _BETA, x - 0.5 * _BETA)


def smooth_l1_grad(x):
    x = np.asarray(x, float)
    return np.where(np.abs(x) < _BETA, x / _BETA, np.sign(x))


# -- batched engine ----------------------------------------------------------

@dataclass
class CostEngine:
    """Batched trajectory-cost evaluation for a fixed frame context.

    Holds everything that is constant across candidates of one planning
    cycle: the start state, field, goal, and decode parameters. The anchors
    (the lattice of cfg), the horizon T = horizon(cfg, alpha, v_max), the
    potential's sample step T / 20 and the camera position (the start
    position, d_F[:, 0]) are derived from them.
    """

    grid: EsdfGrid
    d_F: np.ndarray  # (3, 3) world start state
    cfg: LatticeConfig
    alpha: float
    v_max: float
    a_max: float
    goal_p: np.ndarray
    mode: str = "tracking"  # goal scaling mode
    weights: CostWeights = field(default_factory=CostWeights)
    potential: PotentialParams = field(default_factory=PotentialParams)
    rotation: np.ndarray = None  # type: ignore[assignment]  # world-from-camera
    use_kernel: bool = True  # compiled hot loop when numba is present
    position: np.ndarray = field(init=False)  # camera origin: start position
    horizon_T: float = field(init=False)

    def __post_init__(self):
        self.d_F = np.asarray(self.d_F, float)
        if self.rotation is None:
            self.rotation = np.eye(3)
        self.position = self.d_F[:, 0].copy()
        self.goal_p = np.asarray(self.goal_p, float)
        if self.mode == "navigation":
            delta = self.goal_p - self.position
            norm = np.linalg.norm(delta)
            if norm < 1e-9:
                raise ValueError("navigation goal coincides with position")
            self.goal_p = self.position + delta / norm * self.cfg.r
        if not self.a_max > 0:
            raise ValueError("scales must be positive")
        self.horizon_T = horizon(self.cfg, self.alpha, self.v_max)
        self._vel_scale = self.alpha * self.v_max
        self._acc_scale = self.alpha ** 2 * self.a_max
        self.set_anchors()

    def set_anchors(self) -> None:
        """Read the anchor angles, in flat order, from the lattice."""
        self.thetas, self.phis = build_library(self.cfg)

    def decode(self, raw: np.ndarray) -> np.ndarray:
        """World end states (N, 3, 3) of raw rows, one per anchor."""
        raw = np.atleast_2d(np.asarray(raw, float))
        return _forward(raw, self.thetas, self.phis, self.cfg,
                        self._vel_scale, self._acc_scale, self.rotation,
                        self.position, np.empty((len(raw), 3, 3)))[2]

    def evaluate(self, raw: np.ndarray, with_grad: bool = True, idx=None):
        """Weighted cost per candidate and, optionally, raw-space gradients.

        idx restricts the evaluation to a subset of the anchors (raw rows
        must match). Returns (total (N,), parts dict, grad (N, 9) or None).
        The terms are smoothness, collision and goal, and the chain rule is
        the helper that chain_rule_batch uses.
        """
        raw = np.atleast_2d(np.asarray(raw, float))
        n = len(raw)
        anchor_th, anchor_ph = (self.thetas, self.phis) if idx is None \
            else (self.thetas[idx], self.phis[idx])
        if self.use_kernel and kernels.HAVE_NUMBA:
            w, pot, g, T = self.weights, self.potential, self.grid, \
                self.horizon_T
            out = np.empty((4, n))  # total, J_s, J_c, J_g
            grad_raw = np.empty((n if with_grad else 0, RAW_DIM))
            kernels.eval_batch(
                np.ascontiguousarray(raw), anchor_th, anchor_ph,
                np.full(n, self.cfg.r), self.cfg.d_theta, self.cfg.d_phi,
                self.d_F, _hermite_gram(T), hermite_matrix(T).T,
                *_sample_rows(T), self.rotation, self.position, self.goal_p,
                self._vel_scale, self._acc_scale, w.lambda_s, w.lambda_c,
                w.lambda_g, pot.d_safe, pot.falloff, pot.cutoff,
                T / _SAMPLES, True, g._flat, *g.dims, g.origin,
                float(g.resolution), with_grad, *out, grad_raw)
            parts = dict(zip(("J_s", "J_c", "J_g"), out[1:]))
            return out[0], parts, grad_raw if with_grad else None
        y, geo, parts, terms = self._terms(raw, anchor_th, anchor_ph,
                                           with_grad)
        w = self.weights
        total = w.lambda_s * parts["J_s"] + w.lambda_c * parts["J_c"] \
            + w.lambda_g * parts["J_g"]
        if not with_grad:
            return total, parts, None
        g_s, g_c, g_g = terms
        grad_dP = w.lambda_s * g_s + w.lambda_c * g_c
        grad_dP[:, :, 0] += w.lambda_g * g_g
        return total, parts, _backward(grad_dP, y, geo, self.cfg,
                                       self._vel_scale, self._acc_scale,
                                       self.rotation)

    def evaluate_terms(self, raw: np.ndarray):
        """Unweighted cost terms and their end-state gradients, all anchors.

        Returns (parts, (g_s, g_c, g_goal)): parts as in evaluate, and the
        gradients of J_s and J_c w.r.t. the end state d_P (N, 3, 3) and of
        J_g w.r.t. the end position (N, 3).
        """
        raw = np.atleast_2d(np.asarray(raw, float))
        _, _, parts, terms = self._terms(raw, self.thetas, self.phis, True)
        return parts, terms

    def _terms(self, raw, anchor_th, anchor_ph, with_grad):
        """Decode and score raw rows: (tanh(raw), decode geometry, parts,
        unweighted end-state gradients (g_s, g_c, g_goal) or None)."""
        d = np.empty((len(raw), 3, 6))
        d[:, :, :3] = self.d_F
        y, geo, _ = _forward(raw, anchor_th, anchor_ph, self.cfg,
                             self._vel_scale, self._acc_scale, self.rotation,
                             self.position, d[:, :, 3:])
        T = self.horizon_T
        J_s, g_s = smoothness(d, T, with_grad)
        J_c, g_c = collision(d, T, self.grid, self.potential, with_grad)
        J_g, g_g = goal(d[:, :, 3], self.goal_p, with_grad)
        return y, geo, {"J_s": J_s, "J_c": J_c, "J_g": J_g}, \
            (g_s, g_c, g_g) if with_grad else None
