"""Trajectory-prediction backends and their training machinery.

Two interchangeable backends produce per-anchor predictions: a per-frame
L-BFGS refiner that optimizes the 9 raw trajectory variables against the
cost engine, and a small shared-weight head over privileged per-frustum
depth features whose 10 outputs are those variables and a predicted cost,
trained by back-propagating the trajectory-cost gradients. The head predicts
no objectness: its one target input, the target's distance, comes in flight
from the filter's own estimate, which a detection output could only echo.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraModel, cell_to_anchor
from .costs import CostEngine, chain_rule_batch, smooth_l1, smooth_l1_grad
from .environment import EsdfGrid, raycast
from .primitives import LatticeConfig, build_library, spherical_endpoint

__all__ = [
    "FrustumFeatures",
    "PolicyHead",
    "StateSampler",
    "refine",
    "assign_samples",
    "sample_training_state",
    "compute_features",
    "frame_loss_and_grad",
    "backward_and_step",
    "save_head",
    "load_head",
]

FEATURE_DIM = 9
OUTPUT_DIM = 10  # 9 raw trajectory variables and the predicted cost
TARGET_SENTINEL = -1.0


# -- refiner backend ---------------------------------------------------------

# trial step lengths along the search direction, scored in one batch
_TRIALS = np.array([1.0, 0.3, 0.1, 0.01])
_MEMORY = 5  # curvature pairs kept per candidate
_FIRST_STEP = 0.05  # longest step, in raw units, along a scaled gradient
_STEP_SIZE = 0.1  # gradient step scale where _FIRST_STEP does not cap it
_ARMIJO = 1e-4  # sufficient-decrease constant of the line search
_GRAD_TOL = 1e-5  # a candidate with a smaller gradient norm drops out
_FTOL = 1e-7  # so does one whose step improves the cost by less
_CURVATURE_EPS = 1e-12  # pairs with s.y at or below this are not stored


def _two_loop(grad, S, Y, rho):
    """Batched L-BFGS direction -H g from each row's stored pairs.

    S and Y are (m, memory, 9) with the newest pair last; empty slots have
    rho = 0 and act as no-ops, so slots empty in every row are skipped. Rows
    with no pair must be handled by the caller (their scale gamma is
    undefined here).
    """
    live = np.flatnonzero(rho.any(axis=0))
    q = grad.copy()
    alphas = np.zeros(rho.shape)
    for i in live[::-1]:
        alphas[:, i] = rho[:, i] * np.einsum("nk,nk->n", S[:, i], q)
        q -= alphas[:, i, None] * Y[:, i]
    s, y = S[:, -1], Y[:, -1]
    gamma = np.einsum("nk,nk->n", s, y) / np.einsum("nk,nk->n", y, y)
    r = gamma[:, None] * q
    for i in live:
        beta = rho[:, i] * np.einsum("nk,nk->n", Y[:, i], r)
        r += (alphas[:, i] - beta)[:, None] * S[:, i]
    return -r


def refine(engine: CostEngine, steps: int = 8, max_backtracks: int = 4,
           raw0: np.ndarray | None = None):
    """Per-anchor L-BFGS on the raw trajectory variables.

    Every candidate keeps its own curvature memory (Nocedal & Wright,
    Numerical Optimization, ch. 7); the iterations are batched across
    candidates. Each iteration scores the first max_backtracks of the trial
    steps (1, 0.3, 0.1, 0.01) along the search direction in one
    gradient-free evaluation, takes the first trial that passes the Armijo
    test, and evaluates the gradient at the accepted rows only. A candidate
    with no curvature pair steps along its gradient scaled by
    min(0.1, 0.05 / |g|). A failed search clears the memory, so the
    next iteration retries from the scaled gradient; a failed search from
    the scaled gradient drops the candidate. Candidates whose gradient norm
    falls below 1e-5 or whose per-step improvement falls below 1e-7 drop
    out too. No candidate's cost ever rises. Returns (raw, total, parts) with
    raw of shape (N, 9); candidates whose cost is NaN are flagged infeasible
    by a NaN total.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 1 <= max_backtracks <= len(_TRIALS):
        raise ValueError(f"max_backtracks must be in 1..{len(_TRIALS)}")
    trials = _TRIALS[:max_backtracks]
    n = len(engine.thetas)
    raw = np.zeros((n, 9)) if raw0 is None else np.array(raw0, float)
    total, parts, grad = engine.evaluate(raw)
    gnorm2 = np.sum(grad * grad, axis=1)
    active = np.isfinite(total) & (gnorm2 > _GRAD_TOL ** 2)
    S = np.zeros((n, _MEMORY, 9))
    Y = np.zeros((n, _MEMORY, 9))
    rho = np.zeros((n, _MEMORY))
    for _ in range(steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        m = len(idx)
        g = grad[idx]
        scaled = -g * np.minimum(
            _STEP_SIZE, _FIRST_STEP / np.sqrt(gnorm2[idx]))[:, None]
        direction = scaled.copy()
        has_mem = rho[idx, -1] > 0
        if has_mem.any():
            h = idx[has_mem]
            direction[has_mem] = _two_loop(grad[h], S[h], Y[h], rho[h])
            # a direction that does not descend falls back to the gradient
            uphill = has_mem & ~(np.einsum("nk,nk->n", g, direction) < 0)
            direction[uphill] = scaled[uphill]
            has_mem &= ~uphill
        slope = np.einsum("nk,nk->n", g, direction)
        cand = raw[idx, None, :] + trials[None, :, None] * direction[:, None, :]
        f, _, _ = engine.evaluate(cand.reshape(-1, 9), with_grad=False,
                                  idx=np.repeat(idx, len(trials)))
        f = f.reshape(m, len(trials))
        ok = np.isfinite(f) & \
            (f <= total[idx, None] + _ARMIJO * trials * slope[:, None])
        any_ok = ok.any(axis=1)
        # a failed search clears the memory (rho = 0 empties a slot), so the
        # next iteration retries from the scaled gradient; give up if that
        # search failed too
        rho[idx[~any_ok]] = 0.0
        active[idx[~any_ok & ~has_mem]] = False
        moved = idx[any_ok]
        if len(moved) == 0:
            continue
        new_raw = cand[any_ok, np.argmax(ok[any_ok], axis=1)]
        tot2, parts2, grad2 = engine.evaluate(new_raw, idx=moved)
        s = new_raw - raw[moved]
        y = grad2 - grad[moved]
        sy = np.einsum("nk,nk->n", s, y)
        keep = sy > _CURVATURE_EPS
        upd = moved[keep]
        # drop each updated row's oldest pair; the new pair goes last
        S[upd, :-1] = S[upd, 1:]
        Y[upd, :-1] = Y[upd, 1:]
        rho[upd, :-1] = rho[upd, 1:]
        S[upd, -1] = s[keep]
        Y[upd, -1] = y[keep]
        rho[upd, -1] = 1.0 / sy[keep]
        improvement = total[moved] - tot2
        raw[moved] = new_raw
        total[moved] = tot2
        for k in parts:
            parts[k][moved] = parts2[k]
        grad[moved] = grad2
        gnorm2[moved] = np.sum(grad2 * grad2, axis=1)
        active[moved[improvement < _FTOL]] = False
        active &= gnorm2 > _GRAD_TOL ** 2
    return raw, total, parts


# -- privileged frustum features ---------------------------------------------

_OCCUPANCY = 0.15  # a ray hits where the field falls below this, meters
_RAYS = 3  # rays per cell along each angle


def _cell_rotation(theta: float, phi: float) -> np.ndarray:
    """Camera-to-cell-local rotation; local x points at the grid center."""
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[ct, 0.0, -st], [0.0, 1.0, 0.0], [st, 0.0, ct]])
    return rz @ ry  # columns are the local axes in the camera frame


def _target_cell(target_world, cam: CameraModel, cfg: LatticeConfig):
    """(flat index of the cell that sees the target, camera-frame target),
    or None with no target or one outside the frustum."""
    if target_world is None:
        return None
    p_c = cam.world_to_camera(target_world)
    if not cam.in_frustum(p_c):
        return None
    u, v, _ = cam.project_camera(p_c)
    col, row = cam.pixel_to_cell(u, v)
    i, j = cell_to_anchor(int(col), int(row), cfg)
    return i * cfg.m_theta + j, p_c


@dataclass(frozen=True)
class FrustumFeatures:
    """Per-cell feature rows (n_cells, 9): min/mean frustum depth (scaled by
    the planning radius), target distance or sentinel, and the normalized
    velocity/acceleration expressed in the cell-local frame."""

    values: np.ndarray


def compute_features(grid: EsdfGrid, cam: CameraModel, cfg: LatticeConfig,
                     velocity_n, acceleration_n,
                     target_world=None) -> FrustumFeatures:
    """Privileged depth features plus state inputs for every grid cell.

    A small bundle of rays is marched through the distance field per cell
    frustum; min and mean hit distances summarize free space ahead.
    """
    thetas, phis = build_library(cfg)
    v_n = np.asarray(velocity_n, float)
    a_n = np.asarray(acceleration_n, float)
    pitch_p = cfg.fov_h / cfg.m_phi
    pitch_t = cfg.fov_v / cfg.m_theta
    offs = (np.arange(_RAYS) - (_RAYS - 1) / 2) / _RAYS
    # ray bundle per anchor, ordered (anchor, polar offset, azimuth offset)
    th = thetas[:, None, None] + (offs * pitch_t)[None, :, None]
    ph = phis[:, None, None] + (offs * pitch_p)[None, None, :]
    dirs = spherical_endpoint(th, ph, 1.0).reshape(-1, 3)
    dirs_world = dirs @ cam.rotation.T  # (n_cells*B, 3)
    n_bundle = _RAYS ** 2
    n_s = max(2, int(np.ceil(cfg.r / (grid.resolution / 2))) + 1)
    s = np.linspace(0.0, cfg.r, n_s)
    pts = cam.position + dirs_world[:, None, :] * s[None, :, None]
    dist, _ = grid.query(pts, with_grad=False)
    hit = dist < _OCCUPANCY
    first = np.where(hit.any(axis=1), s[np.argmax(hit, axis=1)], cfg.r)
    first = first.reshape(cfg.n_cells, n_bundle)
    feats = np.empty((cfg.n_cells, FEATURE_DIM))
    feats[:, 0] = first.min(axis=1) / cfg.r
    feats[:, 1] = first.mean(axis=1) / cfg.r
    feats[:, 2] = TARGET_SENTINEL
    seen = _target_cell(target_world, cam, cfg)
    if seen is not None:
        feats[seen[0], 2] = np.linalg.norm(seen[1]) / cfg.r
    for k, (theta, phi) in enumerate(zip(thetas, phis)):
        R = _cell_rotation(theta, phi)
        feats[k, 3:6] = v_n @ R
        feats[k, 6:9] = a_n @ R
    return FrustumFeatures(feats)


# -- trainable head ------------------------------------------------------------

@dataclass
class PolicyHead:
    """Shared-weight fully connected map from features to the 10 outputs.

    Equivalent to 1x1 convolutions over the grid: the identical parameters
    are applied to every cell row independently.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(cls, hidden=(64, 64), seed: int = 0) -> "PolicyHead":
        rng = np.random.default_rng(seed)
        # the output layer is drawn 14 wide, as when the head had 4 detection
        # outputs, so a seed keeps its weights: only training seed 0 flies
        sizes = [FEATURE_DIM, *hidden, 14]
        ws, bs = [], []
        for a, b in zip(sizes[:-1], sizes[1:]):
            ws.append(rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)))
            bs.append(np.zeros(b))
        ws[-1], bs[-1] = ws[-1][:, :OUTPUT_DIM].copy(), bs[-1][:OUTPUT_DIM]
        return cls(ws, bs)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, features: np.ndarray,
                keep_cache: bool = False):
        """Outputs (n_cells, 10); optionally returns the activation cache."""
        x = np.atleast_2d(np.asarray(features, float))
        if x.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"feature dim {x.shape[1]} != head input {self.weights[0].shape[0]}")
        cache = [x]
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if k < len(self.weights) - 1:
                x = np.maximum(x, 0.0)
            cache.append(x)
        if keep_cache:
            return x, cache
        return x

    def backward(self, cache: list[np.ndarray], dLdy: np.ndarray):
        """Parameter gradients from dL/doutput, summed over cells."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = np.asarray(dLdy, float)
        for k in range(len(self.weights) - 1, -1, -1):
            grads_w[k] = cache[k].T @ delta
            grads_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ self.weights[k].T) * (cache[k] > 0)
        return grads_w, grads_b


_MOMENTUM = 0.9  # momentum, and Adam's first-moment decay
_BETA2 = 0.999  # Adam's second-moment decay
_EPS = 1e-8  # Adam's denominator floor


@dataclass
class HeadOptimizer:
    """Plain gradient descent with optional momentum or Adam."""

    learning_rate: float = 1e-3
    method: str = "sgd"  # sgd | momentum | adam
    _state: dict = field(default_factory=dict)
    _t: int = 0

    def step(self, head: PolicyHead, grads_w, grads_b) -> None:
        params = head.weights + head.biases
        grads = list(grads_w) + list(grads_b)
        self._t += 1
        for idx, (p, g) in enumerate(zip(params, grads)):
            if self.method == "sgd":
                p -= self.learning_rate * g
            elif self.method == "momentum":
                v = self._state.setdefault(("v", idx), np.zeros_like(p))
                v *= _MOMENTUM
                v += g
                p -= self.learning_rate * v
            elif self.method == "adam":
                m = self._state.setdefault(("m", idx), np.zeros_like(p))
                v = self._state.setdefault(("v2", idx), np.zeros_like(p))
                m *= _MOMENTUM
                m += (1 - _MOMENTUM) * g
                v *= _BETA2
                v += (1 - _BETA2) * g * g
                mh = m / (1 - _MOMENTUM ** self._t)
                vh = v / (1 - _BETA2 ** self._t)
                p -= self.learning_rate * mh / (np.sqrt(vh) + _EPS)
            else:
                raise ValueError(f"unknown optimizer {self.method!r}")


_HEAD_MAGIC = b"PTHEAD01"


def save_head(path, head: PolicyHead) -> None:
    """Binary checkpoint: magic, layer count, sizes (u32), then per layer the
    row-major float32 weight matrix followed by the bias, little-endian."""
    sizes = head.layer_sizes
    with open(path, "wb") as f:
        f.write(_HEAD_MAGIC)
        f.write(struct.pack("<I", len(sizes)))
        f.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for w, b in zip(head.weights, head.biases):
            f.write(w.astype("<f4").tobytes(order="C"))
            f.write(b.astype("<f4").tobytes())


def load_head(path) -> PolicyHead:
    with open(path, "rb") as f:
        if f.read(8) != _HEAD_MAGIC:
            raise ValueError("not a policy head checkpoint")
        (n,) = struct.unpack("<I", f.read(4))
        sizes = struct.unpack(f"<{n}I", f.read(4 * n))
        ws, bs = [], []
        for a, b in zip(sizes[:-1], sizes[1:]):
            ws.append(np.frombuffer(f.read(4 * a * b), dtype="<f4")
                      .astype(float).reshape(a, b))
            bs.append(np.frombuffer(f.read(4 * b), dtype="<f4").astype(float))
    return PolicyHead(ws, bs)


# -- the positive cell ------------------------------------------------------------

_LABEL_OCCUPANCY = 0.1  # the target is occluded where the field falls below


def assign_samples(target_world, cam: CameraModel, cfg: LatticeConfig,
                   grid: EsdfGrid) -> int | None:
    """Flat index of the cell that sees the target, or None when there is no
    target or it is outside the frustum (at any depth) or occluded on the
    privileged map."""
    seen = _target_cell(target_world, cam, cfg)
    if seen is None or not raycast(grid, cam.position, target_world,
                                   _LABEL_OCCUPANCY):
        return None
    return seen[0]


# -- training-state sampling ----------------------------------------------------

@dataclass(frozen=True)
class StateSampler:
    """Random state observations for training-time data augmentation.

    Forward velocity v is distributed so that (v_m - v) is log-normal with
    log-mean mu = log(0.4 v_m); the lateral/vertical velocity and the
    acceleration are normal. All numeric defaults are toy-scale choices,
    not published values.
    """

    sigma: float = 0.6
    v_m: float = 8.8
    lateral_std: float = 2.4
    vertical_std: float = 2.4
    acc_std: float = 1.8

    def __post_init__(self):
        if not self.v_m > 0:
            raise ValueError("v_m must be positive")

    @property
    def mu(self) -> float:
        return float(np.log(0.4 * self.v_m))


def sample_training_state(sampler: StateSampler, rng: np.random.Generator,
                          size: int | None = None):
    """Velocity and acceleration samples; shapes (3,) or (size, 3)."""
    n = 1 if size is None else size
    v = np.column_stack([
        sampler.v_m - rng.lognormal(sampler.mu, sampler.sigma, n),
        rng.normal(0.0, sampler.lateral_std, n),
        rng.normal(0.0, sampler.vertical_std, n),
    ])
    a = rng.normal(0.0, sampler.acc_std, (n, 3))
    if size is None:
        return v[0], a[0]
    return v, a


# -- end-to-end training step ----------------------------------------------------

def frame_loss_and_grad(y: np.ndarray, engine: CostEngine, cfg: LatticeConfig,
                        cam: CameraModel, assignment: int | None,
                        target_world=None, mode: str = "tracking"):
    """Per-frame loss and its gradient w.r.t. the raw outputs y (n, 10).

    Each cell pays its weighted trajectory cost and a smooth-L1 loss of its
    predicted cost y[:, 9] against the realized one. Navigation weighs every
    cell 1 and adds the goal term to cost and target; tracking weighs the
    positive cell (`assignment`) 1 with the goal term, the rest lambda_1.
    The target is not held constant: the trajectory gradient is scaled by
    1 - smooth_l1'(residual), 0 on a row that overshoots it by more than 1
    and 2 on one that undershoots by more. One field query serves it all.
    Columns past the tenth get zero gradient; cam and target_world are
    not read.
    """
    w = engine.weights
    n = cfg.n_cells
    y = np.asarray(y, float)
    raw = y[:, :9]
    parts, (g_s, g_c, g_goal) = engine.evaluate_terms(raw)
    J_s, J_c, J_g = parts["J_s"], parts["J_c"], parts["J_g"]
    traj_cost = w.lambda_s * J_s + w.lambda_c * J_c
    if mode == "navigation":
        traj_w = np.ones(n)
        goal_on = np.ones(n, bool)
        y_c_hat = traj_cost + w.lambda_g * J_g
    else:
        goal_on = np.arange(n) == assignment  # all False when it is None
        traj_w = np.where(goal_on, 1.0, w.lambda_1)
        y_c_hat = traj_cost
    resid = y[:, 9] - y_c_hat
    coef = traj_w * (1.0 - smooth_l1_grad(resid))
    grad_dP = coef[:, None, None] * (w.lambda_s * g_s + w.lambda_c * g_c)
    goal_coef = coef if mode == "navigation" else goal_on.astype(float)
    grad_dP[:, :, 0] += (w.lambda_g * goal_coef)[:, None] * g_goal
    dLdy = np.zeros_like(y)
    dLdy[:, :9] = chain_rule_batch(grad_dP, raw, cfg, engine.alpha,
                                   engine.v_max, engine.a_max, engine.rotation)
    dLdy[:, 9] = traj_w * smooth_l1_grad(resid)
    loss = float(np.sum(traj_w * (traj_cost + smooth_l1(resid)))
                 + np.sum(w.lambda_g * J_g[goal_on]))
    return loss, dLdy


def backward_and_step(head: PolicyHead, frames: list[dict],
                      optimizer: HeadOptimizer) -> float:
    """One optimizer step over a batch of frames; returns the mean loss.

    Each frame dict carries: features (FrustumFeatures), engine
    (CostEngine), cfg, cam, assignment, target_world, mode.
    """
    acc_w = [np.zeros_like(w) for w in head.weights]
    acc_b = [np.zeros_like(b) for b in head.biases]
    total = 0.0
    for fr in frames:
        y, cache = head.forward(fr["features"].values, keep_cache=True)
        loss, dLdy = frame_loss_and_grad(
            y, fr["engine"], fr["cfg"], fr["cam"], fr.get("assignment"),
            fr.get("target_world"), fr.get("mode", "tracking"))
        gw, gb = head.backward(cache, dLdy)
        for a, g in zip(acc_w, gw):
            a += g / len(frames)
        for a, g in zip(acc_b, gb):
            a += g / len(frames)
        total += loss
    optimizer.step(head, acc_w, acc_b)
    return total / len(frames)
