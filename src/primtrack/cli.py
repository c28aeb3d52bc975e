"""Command-line entry points binding the modules into runnable experiments.

Subcommands cover environment generation, closed-loop tracking/navigation
batches, head training with dataset generation, and gradient checking
against finite differences. The batches fly the refiner, or the trained
head when `--head` names a checkpoint. Experiment failures (failed
episodes) exit zero; only process-level errors exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np
from scipy.spatial.transform import Rotation

from .camera import CameraModel
from .config import RunConfig, example_text
from .costs import (CostEngine, PotentialParams, collision,
                    goal as goal_cost, sample_points, smoothness)
from .environment import (PointCloud, build_esdf, load_cloud, raycast,
                          save_cloud, save_esdf)
from .policy import (HeadOptimizer, PolicyHead, assign_samples,
                     backward_and_step, compute_features, load_head,
                     sample_training_state, save_head)
from .primitives import LatticeConfig
from .simulator import run_navigation_episode, run_tracking_episode

__all__ = ["main", "grad_check_report", "make_dataset", "load_frames",
           "build_training_frames", "train_head"]

_METRIC_FIELDS = ["seed", "success", "failure_class", "min_clearance",
                  "smoothness", "fov_fraction", "mean_latency_ms",
                  "final_distance", "path_length", "duration", "flags"]


def _metrics_row(seed: int, m) -> dict:
    return {"seed": seed, "success": int(m.success),
            "failure_class": m.failure_class,
            "min_clearance": f"{m.min_clearance:.4f}",
            "smoothness": f"{m.smoothness:.4f}",
            "fov_fraction": f"{m.fov_fraction:.4f}",
            "mean_latency_ms": f"{m.mean_latency_ms:.4f}",
            "final_distance": f"{m.final_distance:.4f}",
            "path_length": f"{m.path_length:.4f}",
            "duration": f"{m.duration:.4f}",
            "flags": "|".join(m.flags)}


# -- generate-env -------------------------------------------------------------

def cmd_generate_env(cfg: RunConfig, seed: int, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    arena = cfg.forest_arena(seed)
    save_cloud(out / "cloud.txt", arena.cloud)
    save_esdf(out / "esdf.bin", arena.grid)
    n_trees = len(arena.trunks)
    dims = arena.grid.dims
    print(f"trees {n_trees}")
    print(f"grid dims {dims[0]}x{dims[1]}x{dims[2]} "
          f"resolution {arena.grid.resolution}")
    print(f"distance range [{arena.grid.distance.min():.3f}, "
          f"{arena.grid.distance.max():.3f}]")
    return 0


# -- closed-loop batches -------------------------------------------------------

def _run_batch(cfg: RunConfig, mode: str, out: Path, head_path: str | None,
               seeds: list[int]) -> int:
    out.mkdir(parents=True, exist_ok=True)
    p = cfg.sim_params()
    s = cfg["simulator"]
    head = load_head(head_path) if head_path else None
    far = 4.0 if mode == "tracking" else s["goal_distance"]
    rows = []
    for seed in seeds:
        arena = cfg.forest_arena(1000 + seed,
                                 clear_points=[(0.0, 0.0), (far, 0.0)])
        log_path = out / f"episode_{seed:04d}.csv"
        if mode == "tracking":
            m = run_tracking_episode(arena, p, seed, s["evader_speed"],
                                     course_length=s["course_length"],
                                     head=head, log_path=log_path,
                                     switches=s["switches"])
        else:
            m = run_navigation_episode(arena, p, seed,
                                       goal_distance=s["goal_distance"],
                                       head=head, log_path=log_path)
        rows.append(_metrics_row(seed, m))
        print(f"seed {seed}: success={m.success} ({m.failure_class}) "
              f"latency {m.mean_latency_ms:.2f} ms")
    with open(out / "metrics.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=_METRIC_FIELDS)
        w.writeheader()
        w.writerows(rows)
    rate = sum(int(r["success"]) for r in rows) / len(rows)
    lat = np.mean([float(r["mean_latency_ms"]) for r in rows])
    print(f"success rate {rate:.2f} over {len(rows)} seeds; "
          f"mean latency {lat:.2f} ms")
    return 0


# -- grad-check ---------------------------------------------------------------

def _fd_grad(f, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        fp = f(x)
        xf[i] = orig - h
        fm = f(x)
        xf[i] = orig
        flat[i] = (fp - fm) / (2 * h)
    return g


def _rel_err(ga: np.ndarray, gf: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(ga)), 1e-9)
    return float(np.linalg.norm(ga - gf)) / denom


def _near_cell_face(grid, pts: np.ndarray) -> bool:
    """True when any sample lies within 2e-3 lattice units of a cell face,
    where the interpolant gradient is the averaged one-sided slope."""
    u = (pts.reshape(-1, 3) - grid.origin) / grid.resolution - 0.5
    frac = np.abs(u - np.round(u))
    return bool(np.any(frac < 2e-3))


def _random_grid(rng):
    pts = rng.uniform([-1, -4, -1], [9, 4, 4], size=(rng.integers(4, 30), 3))
    return build_esdf(PointCloud(pts), origin=(-2, -5, -2),
                      dims=(48, 40, 28), resolution=0.25)


def _boundary(d_F: np.ndarray, d_P: np.ndarray) -> np.ndarray:
    """One candidate's stacked boundary array, shape (1, 3, 6)."""
    return np.concatenate([d_F, d_P], axis=1)[None]


def grad_check_report(seed: int = 0, n_per_category: int = 200):
    """(rows, summary) of analytic-vs-finite-difference relative errors.

    smoothness, goal and collision audit the terms CostEngine is built from,
    chain_rule the engine itself; each gets n_per_category usable fixtures.
    Collision and chain-rule fixtures whose trajectory samples straddle field
    cell faces are regenerated: a two-sided difference across a face
    measures the face average rather than the in-cell derivative.
    """
    rng = np.random.default_rng(seed)
    cfg = LatticeConfig()
    tol = {"smoothness": 1e-6, "goal": 1e-9, "collision": 1e-3,
           "chain_rule": 1e-3}
    rows = []
    summary = {}

    def record(cat, k, err):
        rows.append({"category": cat, "fixture": k, "rel_error": err})

    for k in range(n_per_category):
        d_F = rng.normal(size=(3, 3))
        d_P = rng.normal(size=(3, 3)) * 2
        T = float(rng.uniform(0.5, 3.0))
        # quadratic costs: the central difference is exact, so a coarse step
        # avoids amplifying roundoff
        _, ga = smoothness(_boundary(d_F, d_P), T)
        gf = _fd_grad(lambda x: smoothness(_boundary(d_F, x), T)[0][0],
                      d_P.copy(), 1e-3)
        record("smoothness", k, _rel_err(ga[0], gf))

        p = rng.normal(size=(1, 3)) * 4
        g = rng.normal(size=3) * 4
        _, ga = goal_cost(p, g)
        gf = _fd_grad(lambda x: goal_cost(x, g)[0][0], p.copy(), 1e-3)
        record("goal", k, _rel_err(ga, gf))

    grids = [_random_grid(rng) for _ in range(10)]
    pot = PotentialParams()
    k = 0
    while k < n_per_category:
        grid = grids[k % len(grids)]
        d_F = np.column_stack([rng.uniform([0, -2, 0], [2, 2, 2]),
                               rng.normal(size=3), rng.normal(size=3)])
        d_P = np.column_stack([rng.uniform([2, -3, 0], [7, 3, 3]),
                               rng.normal(size=3), rng.normal(size=3)])
        T = 1.25
        if _near_cell_face(grid, sample_points(_boundary(d_F, d_P), T)):
            continue
        J, ga = collision(_boundary(d_F, d_P), T, grid, pot)
        if J[0] < 1e-12:  # potential never active: gradient trivially zero
            continue
        gf = _fd_grad(lambda x: collision(_boundary(d_F, x), T, grid, pot,
                                          with_grad=False)[0][0],
                      d_P.copy(), 1e-6)
        record("collision", k, _rel_err(ga[0], gf))
        k += 1

    k = 0
    while k < n_per_category:
        grid = grids[k % len(grids)]
        yaw = rng.uniform(-np.pi, np.pi)
        R = Rotation.from_euler("z", yaw).as_matrix()
        position = rng.uniform([0, -2, 0.5], [2, 2, 2])
        d_F = np.column_stack([position, rng.normal(size=3),
                               rng.normal(size=3)])
        engine = CostEngine(grid, d_F, cfg, 1.0, 8.0, 6.0,
                            goal_p=position + R @ np.array([6.0, 0.5, 0.0]),
                            rotation=R, use_kernel=False)
        raw = rng.normal(size=(cfg.n_cells, 9)) * 0.5
        total, _, ga = engine.evaluate(raw)
        d = engine.decode(raw)
        d = np.concatenate([np.broadcast_to(d_F, d.shape), d], axis=2)
        if _near_cell_face(grid, sample_points(d, engine.horizon_T)):
            continue
        i = int(rng.integers(cfg.n_cells))
        gf = _fd_grad(
            lambda x: float(engine.evaluate(x[None], with_grad=False,
                                            idx=np.array([i]))[0][0]),
            raw[i].copy(), 1e-6)
        record("chain_rule", k, _rel_err(ga[i], gf))
        k += 1

    for cat, t in tol.items():
        errs = [r["rel_error"] for r in rows if r["category"] == cat]
        summary[cat] = {"count": len(errs), "max_rel_error": max(errs),
                        "tolerance": t, "passed": max(errs) < t}
    return rows, summary


def cmd_grad_check(cfg: RunConfig, seed: int, out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    rows, summary = grad_check_report(seed)
    with open(out / "grad_check.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["category", "fixture", "rel_error"])
        w.writeheader()
        w.writerows(rows)
    ok = True
    for cat, s in summary.items():
        ok &= s["passed"]
        print(f"{cat:12s} n={s['count']} max_rel={s['max_rel_error']:.3e} "
              f"tol={s['tolerance']:.0e} {'pass' if s['passed'] else 'FAIL'}")
    print("overall", "pass" if ok else "FAIL")
    return 0 if ok else 1


# -- datasets and training -----------------------------------------------------

def _scene_field(cloud: PointCloud):
    """Distance field of a generated training scene, over one fixed box."""
    return build_esdf(cloud, origin=(-3, -6, -0.5), dims=(56, 48, 24),
                      resolution=0.25)


def make_dataset(cfg: RunConfig, out: Path, seed: int = 0) -> int:
    """Frame directories of {pose file, point-cloud reference, target file}.

    Poses are randomized over obstacle scenes; targets (tracking mode only)
    are placed inside the camera frustum and validated by raycast.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lattice = cfg.lattice
    t = cfg["train"]
    n_frames = int(t["frames"])
    mode = t["mode"]
    n_scenes = max(1, n_frames // 10)
    scenes = []
    for s in range(n_scenes):
        pts = []
        for _ in range(int(t["obstacles"])):
            cx, cy = rng.uniform([1.0, -4.0], [8.0, 4.0])
            ang = rng.uniform(0, 2 * np.pi, 24)
            ring = 0.15 * np.column_stack([np.cos(ang), np.sin(ang)])
            for z in np.arange(0.0, 4.0 + 1e-9, 0.25):
                pts.append(np.column_stack(
                    [ring + [cx, cy], np.full(24, z)]))
        cloud = PointCloud(np.concatenate(pts) if pts else np.zeros((0, 3)))
        path = out / f"scene_{s:03d}.txt"
        save_cloud(path, cloud)
        scenes.append((path.name, _scene_field(cloud)))
    n = 0
    while n < n_frames:
        name, grid = scenes[int(rng.integers(n_scenes))]
        position = rng.uniform([-1.0, -3.0, 1.0], [2.0, 3.0, 2.5])
        d0, _ = grid.query(position)
        if float(d0) < 0.6:
            continue
        yaw = rng.uniform(-0.6, 0.6)
        R = Rotation.from_euler("z", yaw).as_matrix()
        target = None
        if mode == "tracking" and rng.random() < 0.8:
            for _ in range(20):
                th = rng.uniform(-lattice.fov_v / 2 * 0.8,
                                 lattice.fov_v / 2 * 0.8)
                ph = rng.uniform(-lattice.fov_h / 2 * 0.8,
                                 lattice.fov_h / 2 * 0.8)
                rad = rng.uniform(2.0, 0.8 * lattice.r)
                cand = position + R @ (rad * np.array(
                    [np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph),
                     np.sin(th)]))
                dt_, _ = grid.query(cand)
                if float(dt_) > 0.4 and raycast(grid, position, cand, 0.2):
                    target = cand
                    break
        frame = out / f"frame_{n:04d}"
        frame.mkdir(exist_ok=True)
        with open(frame / "pose.txt", "w") as f:
            f.write(" ".join(f"{v:.9f}" for v in position) + "\n")
            for row in R:
                f.write(" ".join(f"{v:.9f}" for v in row) + "\n")
        (frame / "cloud.txt").write_text(name + "\n")
        if target is not None:
            with open(frame / "target.txt", "w") as f:
                f.write(" ".join(f"{v:.9f}" for v in target) + "\n")
        n += 1
    print(f"wrote {n_frames} frames over {n_scenes} scenes to {out}")
    return 0


def load_frames(dataset: Path) -> list[dict]:
    """Raw frame records: position, rotation, grid (built per scene), target."""
    dataset = Path(dataset)
    frame_dirs = sorted(d for d in dataset.iterdir()
                        if d.is_dir() and (d / "pose.txt").exists())
    if not frame_dirs:
        raise ValueError(f"no frames found in {dataset}")
    grids: dict[str, object] = {}
    frames = []
    for d in frame_dirs:
        vals = np.loadtxt(d / "pose.txt")
        position, R = vals[0], vals[1:4]
        ref = (d / "cloud.txt").read_text().strip()
        if ref not in grids:
            grids[ref] = _scene_field(load_cloud(dataset / ref))
        target = None
        if (d / "target.txt").exists():
            target = np.loadtxt(d / "target.txt")
        frames.append({"position": position, "rotation": R,
                       "grid": grids[ref], "target": target})
    return frames


def build_training_frames(cfg: RunConfig, records: list[dict],
                          seed: int = 0) -> list[dict]:
    """Attach sampled states, features, engines and, in tracking mode, the
    positive cell (the `assignment`) to raw frames."""
    rng = np.random.default_rng(seed)
    lattice = cfg.lattice
    sim = cfg["simulator"]
    alpha, v_max, a_max = sim["alpha"], sim["v_max"], sim["a_max"]
    weights = cfg.cost_weights()
    pot = cfg.potential_params()
    sampler = cfg.sampler()
    mode = cfg["train"]["mode"]
    cam0 = CameraModel.for_lattice(lattice)
    frames = []
    for rec in records:
        R, position = rec["rotation"], rec["position"]
        v_body, a_body = sample_training_state(sampler, rng)
        v_w, a_w = R @ v_body, R @ a_body
        cam = cam0.with_pose(R, position)
        v_n = v_body / (alpha * v_max)
        a_n = a_body / (alpha ** 2 * a_max)
        target = rec["target"]
        feats = compute_features(rec["grid"], cam, lattice, v_n, a_n,
                                 target_world=target)
        if mode == "navigation" or target is None:
            goal_p = position + R @ np.array([2 * lattice.r, 0.0, 0.0])
        else:
            goal_p = np.asarray(target, float)
        engine = CostEngine(rec["grid"],
                            np.column_stack([position, v_w, a_w]), lattice,
                            alpha, v_max, a_max, goal_p, mode=mode,
                            weights=weights, potential=pot, rotation=R)
        assignment = assign_samples(target, cam, lattice, rec["grid"]) \
            if mode == "tracking" else None
        frames.append({"features": feats, "engine": engine, "cfg": lattice,
                       "cam": cam, "assignment": assignment,
                       "target_world": target, "mode": mode})
    return frames


def train_head(cfg: RunConfig, frames: list[dict], epochs: int | None = None,
               head: PolicyHead | None = None, seed: int = 0):
    """(head, per-epoch mean losses) after full-batch gradient training."""
    t = cfg["train"]
    epochs = int(t["epochs"]) if epochs is None else epochs
    if head is None:
        head = PolicyHead.create(hidden=cfg.hidden_sizes(), seed=seed)
    opt = HeadOptimizer(learning_rate=float(t["learning_rate"]),
                        method=t["optimizer"])
    losses = []
    for _ in range(epochs):
        losses.append(backward_and_step(head, frames, opt))
    return head, losses


def cmd_train(cfg: RunConfig, dataset: Path, out: Path, seed: int,
              resume: str | None = None) -> int:
    out.mkdir(parents=True, exist_ok=True)
    records = load_frames(dataset)
    frames = build_training_frames(cfg, records, seed)
    head = load_head(resume) if resume else None
    head, losses = train_head(cfg, frames, head=head, seed=seed)
    save_head(out / "head.bin", head)
    with open(out / "loss_curve.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss"])
        w.writerows((k, f"{v:.8f}") for k, v in enumerate(losses))
    print(f"trained {len(losses)} epochs on {len(frames)} frames; "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return 0


# -- entry point -----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="primtrack")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="configuration file (defaults used "
                        "when omitted)")
        sp.add_argument("--seed", type=int, help="override the first seed")
        sp.add_argument("--out", default="runs", help="output directory")

    sp = sub.add_parser("generate-env", help="write point cloud + field files")
    common(sp)
    for name in ("run-tracking", "run-nav"):
        sp = sub.add_parser(name, help=f"{name.split('-')[1]} episode batch")
        common(sp)
        sp.add_argument("--head", help="trained head checkpoint to fly in "
                        "place of the refiner")
    sp = sub.add_parser("grad-check", help="finite-difference gradient audit")
    common(sp)
    sp = sub.add_parser("make-dataset", help="generate training frames")
    common(sp)
    sp = sub.add_parser("train", help="train the prediction head")
    common(sp)
    sp.add_argument("--dataset", required=True, help="frame directory")
    sp.add_argument("--resume", help="checkpoint to continue from")
    sp = sub.add_parser("example-config", help="print annotated defaults")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "example-config":
        print(example_text(), end="")
        return 0
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    seeds = cfg.seeds if args.seed is None else [args.seed]
    seed = seeds[0]
    try:
        if args.command == "generate-env":
            return cmd_generate_env(cfg, seed, out)
        if args.command == "run-tracking":
            return _run_batch(cfg, "tracking", out, args.head, seeds)
        if args.command == "run-nav":
            return _run_batch(cfg, "navigation", out, args.head, seeds)
        if args.command == "grad-check":
            return cmd_grad_check(cfg, seed, out)
        if args.command == "make-dataset":
            return make_dataset(cfg, out, seed)
        if args.command == "train":
            return cmd_train(cfg, Path(args.dataset), out, seed, args.resume)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
