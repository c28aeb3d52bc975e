"""Differentiable trajectory costs with closed-form end-state gradients.

Smoothness penalizes the integral of squared jerk, collision integrates an
exponential potential of the ESDF distance along the trajectory, and the
goal cost is the squared endpoint-to-goal distance. Gradients are taken
w.r.t. the free end state d_P and chain-ruled through the anchor decoding
(tanh offset bounds, spherical endpoint map, denormalization) down to the
raw prediction variables.

All functions accept either a single candidate or a batch: d_P of shape
(3, 3) or (N, 3, 3) with rows = axes and columns = (pos, vel, acc).
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
    """Weights balancing the trajectory costs and the sample groups.

    lambda_s/c/g are tuned defaults sized for the desk-scale suite;
    lambda_1 and lambda_2 balance non-positive and negative samples.
    """

    lambda_s: float = 0.1
    lambda_c: float = 1.0
    lambda_g: float = 1.0
    lambda_1: float = 0.2
    lambda_2: float = 0.5

    def __post_init__(self):
        if min(self.lambda_s, self.lambda_c, self.lambda_g,
               self.lambda_1, self.lambda_2) < 0:
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

    def value_and_slope(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c(d), c'(d)) with the cutoff applied."""
        c = np.exp(-(d - self.d_safe) / self.falloff)
        mask = d < self.cutoff
        c = np.where(mask, c, 0.0)
        return c, np.where(mask, -c / self.falloff, 0.0)


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


def _stack_d(d_F: np.ndarray, d_P: np.ndarray) -> tuple[np.ndarray, bool]:
    """Concatenate to (N, 3, 6); returns (array, was_batched)."""
    d_F = np.asarray(d_F, float)
    d_P = np.asarray(d_P, float)
    batched = d_P.ndim == 3
    if not batched:
        d_P = d_P[None]
    d_F = np.broadcast_to(d_F, d_P.shape)
    return np.concatenate([d_F, d_P], axis=2), batched


def smoothness(d_F, d_P, horizon_T: float):
    """Integral of squared jerk and its gradient w.r.t. d_P.

    Returns (J_s, grad) with J_s scalar (or (N,)) summed over axes and grad
    of shape (3, 3) (or (N, 3, 3)).
    """
    d, batched = _stack_d(d_F, d_P)
    B = _hermite_gram(horizon_T)
    J = np.einsum("nai,ij,naj->n", d, B, d)
    grad = 2.0 * np.einsum("nai,ij->naj", d, B)[:, :, 3:]
    if not batched:
        return float(J[0]), grad[0]
    return J, grad


def _coefficients(d_F, d_P, horizon_T: float) -> np.ndarray:
    d, _ = _stack_d(d_F, d_P)
    return d @ hermite_matrix(horizon_T).T  # (N, 3, 6)


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


def collision(d_F, d_P, horizon_T: float, grid: EsdfGrid,
              params: PotentialParams, need_grad: bool = True):
    """Time integral of the obstacle potential and its d_P gradient.

    The trajectory is sampled at 21 points, T/20 apart, endpoints included;
    out-of-bounds samples use clamped field queries. With need_grad=False
    the gradient is skipped (returned as None).
    """
    powers, P = _sample_rows(float(horizon_T))
    dt = horizon_T / _SAMPLES
    coeffs = _coefficients(d_F, d_P, horizon_T)  # (N, 3, 6)
    batched = np.asarray(d_P).ndim == 3
    pos = np.einsum("nac,kc->nka", coeffs, powers)  # (N, K, 3)
    dist, grad_d = grid.query(pos, with_grad=need_grad)
    c, c_slope = params.value_and_slope(dist)
    J = c.sum(axis=1) * dt
    if not need_grad:
        return (J, None) if batched else (float(J[0]), None)
    # dJ/dd_P[axis, comp] = sum_k c'(d) * dd/dx_axis * (T_k . L_P)[comp] dt
    dcdx = c_slope[..., None] * grad_d  # (N, K, 3)
    grad = np.einsum("nka,kc->nac", dcdx, P) * dt
    if not batched:
        return float(J[0]), grad[0]
    return J, grad


def goal(d_P_position, goal_p):
    """Squared endpoint-to-goal distance and its gradient."""
    diff = np.asarray(d_P_position, float) - np.asarray(goal_p, float)
    J = np.sum(diff * diff, axis=-1)
    return (float(J) if diff.ndim == 1 else J), 2.0 * diff


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


def decode_raw_batch(raw: np.ndarray, cfg: LatticeConfig, alpha: float,
                     v_max: float, a_max: float, rotation=None,
                     position=None) -> np.ndarray:
    """Decode raw (n_cells, 9) trajectory variables, one row per lattice
    anchor in flat order, into world end states (n_cells, 3, 3).

    rotation/position place the camera in the world (identity/origin when
    omitted).
    """
    if not (alpha > 0 and v_max > 0 and a_max > 0):
        raise ValueError("scales must be positive")
    raw = np.atleast_2d(np.asarray(raw, float))
    R = np.eye(3) if rotation is None else np.asarray(rotation, float)
    position = 0.0 if position is None else np.asarray(position, float)
    return _forward(raw, *build_library(cfg), cfg, alpha * v_max,
                    alpha ** 2 * a_max, R, position,
                    np.empty((len(raw), 3, 3)))[2]


def chain_rule_batch(grad_dP: np.ndarray, raw: np.ndarray,
                     cfg: LatticeConfig, alpha: float, v_max: float,
                     a_max: float, rotation=None) -> np.ndarray:
    """Gradient w.r.t. raw variables, shape (n_cells, 9), from d_P
    gradients; rows are lattice anchors in flat order."""
    raw = np.atleast_2d(np.asarray(raw, float))
    grad_dP = np.asarray(grad_dP, float).reshape(len(raw), 3, 3)
    R = np.eye(3) if rotation is None else np.asarray(rotation, float)
    y, geo = _geometry(raw, *build_library(cfg), cfg)
    return _backward(grad_dP, y, geo, cfg, alpha * v_max, alpha ** 2 * a_max,
                     R)


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
    (the lattice of cfg), the horizon T = horizon(cfg, alpha, v_max) and the
    potential's sample step T / 20 are derived from them.
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
    position: np.ndarray = None  # type: ignore[assignment]
    use_kernel: bool = True  # compiled hot loop when numba is present
    horizon_T: float = field(init=False)

    def __post_init__(self):
        self.d_F = np.asarray(self.d_F, float)
        if self.rotation is None:
            self.rotation = np.eye(3)
        if self.position is None:
            self.position = np.zeros(3)
        self.goal_p = np.asarray(self.goal_p, float)
        if self.mode == "navigation":
            delta = self.goal_p - self.position
            norm = np.linalg.norm(delta)
            if norm < 1e-9:
                raise ValueError("navigation goal coincides with position")
            self.goal_p = self.position + delta / norm * self.cfg.r
        T = self.horizon_T = horizon(self.cfg, self.alpha, self.v_max)
        self._B = _hermite_gram(T)
        self._Mt = hermite_matrix(T).T
        self._powers, self._P = _sample_rows(T)
        self._dt = T / _SAMPLES
        self._vel_scale = self.alpha * self.v_max
        self._acc_scale = self.alpha ** 2 * self.a_max
        g = self.grid
        nx, ny, nz = g.dims
        self._grid_args = (True, g._flat, nx, ny, nz, g.origin,
                           float(g.resolution))
        self.set_anchors()

    def set_anchors(self) -> None:
        """Read the anchor angles, in flat order, from the lattice."""
        self.thetas, self.phis = build_library(self.cfg)

    def decode(self, raw: np.ndarray) -> np.ndarray:
        return decode_raw_batch(raw, self.cfg, self.alpha, self.v_max,
                                self.a_max, self.rotation, self.position)

    def evaluate(self, raw: np.ndarray, with_grad: bool = True, idx=None):
        """Weighted cost per candidate and, optionally, raw-space gradients.

        idx restricts the evaluation to a subset of the anchors (raw rows
        must match). Returns (total (N,), parts dict, grad (N, 9) or None).
        The decode and the chain rule are the helpers that decode_raw_batch
        and chain_rule_batch use.
        """
        raw = np.atleast_2d(np.asarray(raw, float))
        n = len(raw)
        anchor_th, anchor_ph = self.thetas, self.phis
        if idx is not None:
            anchor_th = anchor_th[idx]
            anchor_ph = anchor_ph[idx]
        if self.use_kernel and kernels.HAVE_NUMBA:
            w = self.weights
            pot = self.potential
            total = np.empty(n)
            J_s = np.empty(n)
            J_c = np.empty(n)
            J_g = np.empty(n)
            grad_raw = np.empty((n, RAW_DIM)) if with_grad else np.empty((0, RAW_DIM))
            kernels.eval_batch(
                np.ascontiguousarray(raw), anchor_th, anchor_ph,
                np.full(n, self.cfg.r),
                self.cfg.d_theta, self.cfg.d_phi, self.d_F, self._B, self._Mt,
                self._powers, self._P, self.rotation, self.position,
                self.goal_p, self._vel_scale, self._acc_scale,
                w.lambda_s, w.lambda_c, w.lambda_g,
                pot.d_safe, pot.falloff, pot.cutoff, self._dt,
                *self._grid_args, with_grad,
                total, J_s, J_c, J_g, grad_raw)
            parts = {"J_s": J_s, "J_c": J_c, "J_g": J_g}
            return total, parts, grad_raw if with_grad else None
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

        Returns (parts, (g_s, g_c, g_goal)): parts as in evaluate; g_s and
        g_c of shape (N, 3, 3) are the gradients of J_s and J_c w.r.t. the
        end state d_P, and g_goal (N, 3) that of J_g w.r.t. the end
        position. One field query serves all terms; the decode is the
        helper that evaluate and decode_raw_batch use.
        """
        raw = np.atleast_2d(np.asarray(raw, float))
        _, _, parts, terms = self._terms(raw, self.thetas, self.phis, True)
        return parts, terms

    def _terms(self, raw, anchor_th, anchor_ph, with_grad):
        """Decode and score raw rows: (tanh(raw), decode geometry, parts,
        unweighted end-state gradients (g_s, g_c, g_goal) or None)."""
        n = len(raw)
        d = np.empty((n, 3, 6))
        d[:, :, :3] = self.d_F
        y, geo, _ = _forward(raw, anchor_th, anchor_ph, self.cfg,
                             self._vel_scale, self._acc_scale, self.rotation,
                             self.position, d[:, :, 3:])
        # squared-jerk quadratic form
        dB = d @ self._B
        J_s = np.einsum("nai,nai->n", dB, d)
        # obstacle potential along the sampled path
        pot = self.potential
        coeffs = d @ self._Mt  # (n, 3, 6)
        pos = np.ascontiguousarray(
            (coeffs @ self._powers.T).swapaxes(1, 2))  # (n, K, 3)
        dist, grad_d = self.grid.query(pos, with_grad=with_grad)
        near = dist < pot.cutoff
        c = np.zeros_like(dist)
        c[near] = np.exp((pot.d_safe - dist[near]) / pot.falloff)
        J_c = c.sum(axis=1) * self._dt
        diff = d[:, :, 3] - self.goal_p
        J_g = np.einsum("na,na->n", diff, diff)
        parts = {"J_s": J_s, "J_c": J_c, "J_g": J_g}
        if not with_grad:
            return y, geo, parts, None
        g_s = 2.0 * dB[:, :, 3:]
        dcdx = (-self._dt / pot.falloff) * c[..., None] * grad_d  # (n, K, 3)
        g_c = dcdx.swapaxes(1, 2) @ self._P
        return y, geo, parts, (g_s, g_c, 2.0 * diff)
