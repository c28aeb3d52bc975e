"""Trajectory-prediction backends and their training machinery.

Two interchangeable backends produce per-anchor 14-dimensional predictions:

* a per-frame L-BFGS refiner that optimizes the raw trajectory
  variables directly against the cost engine (the classical path), and
* a small shared-weight head over privileged per-frustum depth features,
  trained by back-propagating the trajectory-cost gradients plus the
  detection losses through the raw outputs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .camera import DS, CameraModel, anchor_to_cell, cell_to_anchor
from .costs import CostEngine, chain_rule_batch, smooth_l1, smooth_l1_grad
from .environment import EsdfGrid, raycast
from .primitives import LatticeConfig, build_library, spherical_endpoint

__all__ = [
    "FrustumFeatures",
    "PolicyHead",
    "SampleAssignment",
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
OUTPUT_DIM = 14
TARGET_SENTINEL = -1.0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, float)))


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
    if target_world is not None:
        p_c = cam.world_to_camera(target_world)
        if cam.in_frustum(p_c):
            u, v, _ = cam.project_camera(p_c)
            col, row = cam.pixel_to_cell(u, v)
            i, j = cell_to_anchor(int(col), int(row), cfg)
            feats[i * cfg.m_theta + j, 2] = np.linalg.norm(p_c) / cfg.r
    for k, (theta, phi) in enumerate(zip(thetas, phis)):
        R = _cell_rotation(theta, phi)
        feats[k, 3:6] = v_n @ R
        feats[k, 6:9] = a_n @ R
    return FrustumFeatures(feats)


# -- trainable head ------------------------------------------------------------

@dataclass
class PolicyHead:
    """Shared-weight fully connected map from features to the 14 outputs.

    Equivalent to 1x1 convolutions over the grid: the identical parameters
    are applied to every cell row independently.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(cls, hidden=(64, 64), seed: int = 0) -> "PolicyHead":
        rng = np.random.default_rng(seed)
        sizes = [FEATURE_DIM, *hidden, OUTPUT_DIM]
        ws, bs = [], []
        for a, b in zip(sizes[:-1], sizes[1:]):
            ws.append(rng.normal(0.0, np.sqrt(2.0 / a), size=(a, b)))
            bs.append(np.zeros(b))
        return cls(ws, bs)

    @property
    def layer_sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, features: np.ndarray,
                keep_cache: bool = False):
        """Outputs (n_cells, 14); optionally returns the activation cache."""
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


# -- detection labels ----------------------------------------------------------

@dataclass(frozen=True)
class SampleAssignment:
    """Per-cell labels in anchor flat order: at most one is "positive"."""

    labels: tuple[str, ...]


_LABEL_OCCUPANCY = 0.1  # the target is occluded where the field falls below


def assign_samples(target_world, cam: CameraModel, cfg: LatticeConfig,
                   grid: EsdfGrid) -> SampleAssignment:
    """Positive / negative / ignored labels per grid cell.

    No target, target outside the frustum (at any depth), or target occluded
    on the privileged map: every cell is negative. Otherwise the containing
    cell is positive, its Chebyshev-1 ring is ignored, and the rest are
    negative.
    """
    all_negative = SampleAssignment(("negative",) * cfg.n_cells)
    if target_world is None:
        return all_negative
    p_c = cam.world_to_camera(target_world)
    if not cam.in_frustum(p_c):
        return all_negative
    if not raycast(grid, cam.position, target_world, _LABEL_OCCUPANCY):
        return all_negative
    u, v, _ = cam.project_camera(p_c)
    col, row = cam.pixel_to_cell(u, v)
    i0, j0 = cell_to_anchor(int(col), int(row), cfg)
    labels = []
    for i in range(cfg.m_phi):
        for j in range(cfg.m_theta):
            cheb = max(abs(i - i0), abs(j - j0))
            labels.append("positive" if cheb == 0 else
                          "ignored" if cheb == 1 else "negative")
    return SampleAssignment(tuple(labels))


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
                        cam: CameraModel, assignment: SampleAssignment | None,
                        target_world=None, mode: str = "tracking"):
    """Total per-frame loss and its gradient w.r.t. the raw outputs y (n, 14).

    Trajectory-cost gradients flow through the analytic chain rule; the
    supervision target for the predicted cost is treated as a constant. The
    cost terms and their end-state gradients come from one field query.
    """
    w = engine.weights
    n = cfg.n_cells
    y = np.asarray(y, float)
    raw = y[:, :9]
    parts, (g_s, g_c, g_goal) = engine.evaluate_terms(raw)
    J_s, J_c, J_g = parts["J_s"], parts["J_c"], parts["J_g"]

    if mode == "navigation":
        traj_w = np.ones(n)
        goal_on = np.ones(n, bool)
        labels = ["positive"] * n
    else:
        labels = list(assignment.labels)
        traj_w = np.array([1.0 if l == "positive" else w.lambda_1
                           for l in labels])
        goal_on = np.array([l == "positive" for l in labels])

    y_c_hat = w.lambda_s * J_s + w.lambda_c * J_c
    if mode == "navigation":
        y_c_hat = y_c_hat + w.lambda_g * J_g
    resid = y[:, 9] - y_c_hat
    l_cost = smooth_l1(resid)
    # the supervision target depends on the same raw variables, so its
    # sensitivity flows back into the trajectory-variable gradient too
    coef = traj_w * (1.0 - smooth_l1_grad(resid))
    grad_dP = coef[:, None, None] * (w.lambda_s * g_s + w.lambda_c * g_c)
    goal_coef = np.where(goal_on, 1.0, 0.0)
    if mode == "navigation":
        goal_coef = coef
    grad_dP[:, :, 0] += (w.lambda_g * goal_coef)[:, None] * g_goal
    dLdy = np.zeros((n, OUTPUT_DIM))
    dLdy[:, :9] = chain_rule_batch(grad_dP, raw, cfg, engine.alpha,
                                   engine.v_max, engine.a_max, engine.rotation)
    dLdy[:, 9] = traj_w * smooth_l1_grad(resid)

    traj_cost = w.lambda_s * J_s + w.lambda_c * J_c
    loss = float(np.sum(traj_w * (traj_cost + l_cost))
                 + np.sum(w.lambda_g * J_g[goal_on]))

    if mode == "navigation":
        return loss, dLdy

    # detection terms
    p_obj = np.clip(_sigmoid(y[:, 10]), 1e-12, 1 - 1e-12)
    target_cam = cam.world_to_camera(target_world) if target_world is not None else None
    for k, label in enumerate(labels):
        if label == "negative":
            loss += w.lambda_2 * float(-np.log(1 - p_obj[k]))
            dLdy[k, 10] = w.lambda_2 * p_obj[k]
        elif label == "positive":
            loss += float(-np.log(p_obj[k]))
            dLdy[k, 10] = p_obj[k] - 1.0
            i, j = divmod(k, cfg.m_theta)
            col, row = anchor_to_cell(i, j, cfg)
            sig_u, sig_v = _sigmoid(y[k, 11]), _sigmoid(y[k, 12])
            u = (sig_u + col) * DS
            v = (sig_v + row) * DS
            y_d = y[k, 13]
            p_c = cam.unproject_camera(u, v, y_d)
            resid_t = p_c - target_cam
            loss += float(np.sum(smooth_l1(resid_t)))
            g_pc = smooth_l1_grad(resid_t)  # (3,) camera frame
            # p_c = y_d * dir(u, v); derivatives via the optical-frame pinhole
            x_o = (u - cam.cx) / cam.fx
            y_o = (v - cam.cy) / cam.fy
            # camera frame: (x, y, z) = (y_d, -x_o*y_d, -y_o*y_d)
            dp_du = np.array([0.0, -y_d / cam.fx, 0.0])
            dp_dv = np.array([0.0, 0.0, -y_d / cam.fy])
            dp_dd = np.array([1.0, -x_o, -y_o])
            du_dyu = sig_u * (1 - sig_u) * DS
            dv_dyv = sig_v * (1 - sig_v) * DS
            dLdy[k, 11] = float(g_pc @ dp_du) * du_dyu
            dLdy[k, 12] = float(g_pc @ dp_dv) * dv_dyv
            dLdy[k, 13] = float(g_pc @ dp_dd)
    return loss, dLdy


def backward_and_step(head: PolicyHead, frames: list[dict],
                      optimizer: HeadOptimizer) -> float:
    """One optimizer step over a batch of frames; returns the mean loss.

    Each frame dict carries: features (FrustumFeatures or array), engine
    (CostEngine), cfg, cam, assignment, target_world, mode.
    """
    acc_w = [np.zeros_like(w) for w in head.weights]
    acc_b = [np.zeros_like(b) for b in head.biases]
    total = 0.0
    for fr in frames:
        feats = fr["features"]
        feats = feats.values if isinstance(feats, FrustumFeatures) else feats
        y, cache = head.forward(feats, keep_cache=True)
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
