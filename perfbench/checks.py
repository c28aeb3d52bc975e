"""Checks of primtrack's outputs, computed outside the program.

Each check returns a list of violations (empty when the output is right).
They recompute what the program reports from its episode logs and the
ground-truth trunk layout, never from a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# episode CSV columns written by EpisodeLog.save_csv
T, P, V = 0, slice(1, 4), slice(4, 7)
LOG_DECIMALS = 5  # positions and velocities are written with 5 decimals


def read_log(path) -> np.ndarray:
    """Episode log rows (t, p, v, a, yaw, thrust) as floats."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def finite_states(log: np.ndarray) -> list[str]:
    bad = ~np.isfinite(log)
    if bad.any():
        return [f"{int(bad.any(axis=1).sum())} logged states are not finite"]
    return []


def euler_consistent(log: np.ndarray, dt: float) -> list[str]:
    """Semi-implicit Euler: p[k+1] - p[k] = dt * v[k+1], to CSV rounding.

    Each logged value is rounded to half a unit in the last decimal, so the
    difference of two positions may be off by one unit and dt * v by dt
    halves of one.
    """
    unit = 10.0 ** -LOG_DECIMALS
    tol = unit + dt * unit / 2 + 1e-12
    resid = np.abs(np.diff(log[:, P], axis=0) - dt * log[1:, V])
    worst = float(resid.max()) if len(resid) else 0.0
    if worst > tol:
        k = int(np.argmax(resid.max(axis=1)))
        return [f"position step {k + 1} breaks p[k+1]-p[k]=dt*v[k+1] by "
                f"{worst:.2e} m (tolerance {tol:.2e} m)"]
    return []


def trunk_distance(points: np.ndarray, trunks: np.ndarray, radius: float,
                   height: float) -> np.ndarray:
    """Euclidean distance from each point to the nearest solid trunk
    cylinder (0 inside one), brute force over all trunks."""
    pts = np.atleast_2d(points)
    if len(trunks) == 0:
        return np.full(len(pts), np.inf)
    rho = np.linalg.norm(pts[:, None, :2] - trunks[None, :, :], axis=2)
    radial = np.maximum(rho - radius, 0.0)
    vertical = np.maximum(np.maximum(pts[:, 2:3] - height, -pts[:, 2:3]), 0.0)
    return np.hypot(radial, vertical).min(axis=1)


def collided(positions: np.ndarray, arena, collision_radius: float) -> bool:
    """The documented collision rule, brute force: below 5 cm, or within the
    vehicle radius of a trunk below the trunk top."""
    pos = np.atleast_2d(positions)
    if np.any(pos[:, 2] < 0.05):
        return True
    low = pos[pos[:, 2] <= arena.trunk_height]
    if len(low) == 0 or len(arena.trunks) == 0:
        return False
    rho = np.linalg.norm(low[:, None, :2] - arena.trunks[None], axis=2)
    return bool(np.any(rho.min(axis=1) - arena.trunk_radius
                       < collision_radius))


def clearance_tolerance(resolution: float) -> tuple[float, float]:
    """(below, above): how far the field's minimum clearance may sit from
    the exact trunk distance.

    The field stores exact distances to surface samples at voxel centres;
    trilinear interpolation of a 1-Lipschitz function is off by at most the
    half diagonal of a voxel, res*sqrt(3)/2. Surface samples are at most one
    resolution apart, so a sampled distance exceeds the exact one by at
    most res/sqrt(2), and never falls below it.
    """
    interp = resolution * math.sqrt(3) / 2
    return interp, interp + resolution / math.sqrt(2)


def clearance_agrees(reported: float, positions: np.ndarray, arena) -> list[str]:
    grid = arena.grid
    exact = trunk_distance(positions, arena.trunks, arena.trunk_radius,
                           arena.trunk_height)
    brute = float(min(exact.min(), grid.d_trunc))
    below, above = clearance_tolerance(grid.resolution)
    if not (brute - below <= reported <= brute + above):
        return [f"min_clearance {reported:.4f} m disagrees with the "
                f"brute-force {brute:.4f} m (allowed -{below:.3f}/+{above:.3f})"]
    return []


def outcome_consistent(success: bool, hit: bool) -> list[str]:
    if success and hit:
        return ["episode reported success although the log collides"]
    return []


def reached_goal(positions: np.ndarray, goal: np.ndarray,
                 goal_radius: float) -> tuple[bool, float]:
    """(last position within goal_radius of goal, that distance)."""
    dist = float(np.linalg.norm(np.atleast_2d(positions)[-1] - goal))
    return dist <= goal_radius, dist


def log_is_prefix(full: bytes, prefix: bytes, min_rows: int = 100) -> list[str]:
    """A shorter rerun of the same episode must write the same first rows."""
    rows = prefix.count(b"\n") - 1
    if rows < min_rows:
        return [f"rerun log has {rows} rows, fewer than {min_rows}"]
    if not full.startswith(prefix):
        return ["a rerun at the same seed wrote a different episode log"]
    return []


def losses_fall(losses, window: int = 10) -> list[str]:
    """Training losses are finite and their smoothed value falls."""
    arr = np.asarray(losses, float)
    if len(arr) < 2 * window:
        return [f"only {len(arr)} epochs, need {2 * window} to smooth"]
    if not np.all(np.isfinite(arr)):
        return [f"{int(np.sum(~np.isfinite(arr)))} losses are not finite"]
    first, last = float(arr[:window].mean()), float(arr[-window:].mean())
    if not last < first:
        return [f"smoothed loss did not fall: {first:.4g} -> {last:.4g}"]
    return []


def gradient_agrees(head, frames, picks, h: float = 1e-6,
                    tol: float = 1e-4) -> list[str]:
    """Analytic parameter gradient (forward -> frame_loss_and_grad ->
    backward) against a central difference of the summed frame loss.

    picks are (layer, row, column) weight indices.
    """
    from primtrack.policy import frame_loss_and_grad

    def loss_and_grad(need_grad):
        total, grads = 0.0, [np.zeros_like(w) for w in head.weights]
        for fr in frames:
            y, cache = head.forward(fr["features"].values, keep_cache=True)
            loss, dLdy = frame_loss_and_grad(
                y, fr["engine"], fr["cfg"], fr["cam"], fr["assignment"],
                fr["target_world"], fr["mode"])
            total += loss
            if need_grad:
                for acc, g in zip(grads, head.backward(cache, dLdy)[0]):
                    acc += g
        return total, grads

    _, grads = loss_and_grad(True)
    ga = np.array([grads[L][i, j] for L, i, j in picks])
    gf = np.empty(len(picks))
    for k, (L, i, j) in enumerate(picks):
        w = head.weights[L]
        orig = w[i, j]
        w[i, j] = orig + h
        fp, _ = loss_and_grad(False)
        w[i, j] = orig - h
        fm, _ = loss_and_grad(False)
        w[i, j] = orig
        gf[k] = (fp - fm) / (2 * h)
    err = float(np.linalg.norm(ga - gf) / max(np.linalg.norm(gf), 1e-9))
    if not err < tol:
        return [f"parameter gradient is off its finite difference by "
                f"{err:.2e} relative (tolerance {tol:.0e})"]
    return []
