"""Span tracing of primtrack's layers from outside the program.

Every traced entry point is replaced, for the duration of a traced round,
by a wrapper that records a span (name, start, end, parent, attributes) in
memory. Nothing inside primtrack is edited: functions are swapped on the
module or class that the calling code looks them up on, and restored
afterwards. A layer's self time is its spans' durations minus the time
covered by their child spans.
"""

from __future__ import annotations

import gzip
import inspect
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder; spans nest along the single call stack."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn wrapped so that each call records a span; attrs(*args, **kw)
        returns a dict of call attributes or None."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kw):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    attrs(*args, **kw) if attrs is not None else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kw)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """Record the body of a with block as one span."""
        span = [name, perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        """Spans as gzip CSV: index, name, start and end (µs), parent."""
        with gzip.open(path, "wt") as f:
            f.write("index,name,start_us,end_us,parent\n")
            for k, (name, t0, t1, parent, _) in enumerate(self.spans):
                f.write(f"{k},{name},{t0 * 1e6:.1f},{t1 * 1e6:.1f},{parent}\n")


# -- the traced entry points ---------------------------------------------------

def _bound(fn):
    """attrs helper: the call's arguments by name, defaults applied."""
    sig = inspect.signature(fn)

    def args_of(*args, **kw):
        b = sig.bind(*args, **kw)
        b.apply_defaults()
        return b.arguments
    return args_of


def _targets():
    """(owner, attribute, span name, attrs factory) for every traced call.

    The owner is where the caller looks the name up: simulator.py, cli.py
    and policy.py import functions by name, so those are patched on the
    importing module.
    """
    from primtrack import cli, costs, environment, policy, simulator, \
        trajectory

    def query_attrs(fn):
        args_of = _bound(fn)

        def attrs(*a, **kw):
            b = args_of(*a, **kw)
            return {"points": int(np.asarray(b["p"]).size // 3),
                    "grad": bool(b["with_grad"])}
        return attrs

    def evaluate_attrs(fn):
        args_of = _bound(fn)

        def attrs(*a, **kw):
            b = args_of(*a, **kw)
            return {"rows": len(np.atleast_2d(b["raw"])),
                    "grad": bool(b["with_grad"]),
                    "idx": b["idx"] is not None}
        return attrs

    def refine_attrs(fn):
        args_of = _bound(fn)

        def attrs(*a, **kw):
            b = args_of(*a, **kw)
            return {"steps": int(b["steps"]),
                    "backtracks": int(b["max_backtracks"])}
        return attrs

    grid, engine = environment.EsdfGrid, costs.CostEngine
    sim = simulator
    return [
        (grid, "query", "environment.query", query_attrs),
        (sim, "raycast", "environment.raycast", None),
        (policy, "raycast", "environment.raycast", None),
        (cli, "raycast", "environment.raycast", None),
        (sim, "build_esdf", "environment.build_esdf", None),
        (cli, "build_esdf", "environment.build_esdf", None),
        (sim, "generate_forest", "environment.generate_forest", None),
        (engine, "evaluate", "costs.evaluate", evaluate_attrs),
        (engine, "__init__", "costs.engine_build", None),
        (engine, "set_anchors", "costs.engine_build", None),
        (costs, "smoothness", "costs.smoothness", None),
        (costs, "collision", "costs.collision", None),
        (policy, "chain_rule_batch", "costs.chain_rule_batch", None),
        (sim, "refine", "policy.refine", refine_attrs),
        (policy, "frame_loss_and_grad", "policy.frame_loss", None),
        (policy.PolicyHead, "forward", "policy.head_forward", None),
        (policy.PolicyHead, "backward", "policy.head_backward", None),
        (policy.HeadOptimizer, "step", "policy.optimizer_step", None),
        (cli, "backward_and_step", "policy.train_step", None),
        (cli, "compute_features", "policy.compute_features", None),
        (sim, "compute_features", "policy.compute_features", None),
        (cli, "train_head", "cli.train_head", None),
        (trajectory.Trajectory, "from_boundary", "trajectory.from_boundary",
         None),
        (trajectory.Trajectory, "sample", "trajectory.sample", None),
        (trajectory.Trajectory, "sample_many", "trajectory.sample", None),
        (sim, "flatness_commands", "control.flatness", None),
        (sim, "observer_step", "control.observer", None),
        (sim, "step", "simulator.plant_step", None),
        (sim._Planner, "plan", "simulator.plan", None),
        (sim, "run_navigation_episode", "simulator.episode", None),
        (sim, "run_tracking_episode", "simulator.episode", None),
        (sim, "simulate_detection", "simulator.detection", None),
        (sim, "_visible", "simulator.detection", None),
        (sim.EvaderScript, "__init__", "simulator.evader", None),
        (sim.EvaderScript, "step", "simulator.evader", None),
        (sim.EvaderScript, "_plan", "simulator.evader",
         lambda fn: lambda *a, **kw: {"path_plan": True}),
        (sim, "predict", "tracker", None),
        (sim, "gated_update", "tracker", None),
        (sim, "plan_yaw", "tracker", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Swap every traced entry point for its span-recording wrapper."""
    saved = []
    try:
        for owner, attr, name, attrs in _targets():
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                fn = raw.__func__
                new = classmethod(tracer.wrap(
                    name, fn, attrs(fn) if attrs else None))
            else:
                new = tracer.wrap(name, raw, attrs(raw) if attrs else None)
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# -- analysis ------------------------------------------------------------------

def self_times(spans: list[list]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(duration, self time) per span in seconds, and the nesting errors.

    A span's self time is its duration minus its children's durations; this
    is exact only if every child lies inside its parent and siblings do not
    overlap, which is checked here.
    """
    n = len(spans)
    start = np.fromiter((s[1] for s in spans), float, n)
    end = np.fromiter((s[2] for s in spans), float, n)
    parent = np.fromiter((s[3] for s in spans), np.int64, n)
    dur = end - start
    has = parent >= 0
    child_sum = np.bincount(parent[has], weights=dur[has], minlength=n)
    errors = []
    if np.any(dur < 0):
        errors.append(f"{int(np.sum(dur < 0))} spans end before they start")
    p = parent[has]
    outside = (start[has] < start[p]) | (end[has] > end[p])
    if np.any(outside):
        errors.append(f"{int(np.sum(outside))} spans outside their parent")
    if np.any(child_sum > dur + 1e-12):
        errors.append("child spans overlap inside a parent")
    return dur, dur - child_sum, errors


# Span names reported with calls and self time per round.
ROUND_LAYERS = (
    "environment.query", "environment.raycast",
    "costs.evaluate", "costs.engine_build", "costs.smoothness",
    "costs.collision", "costs.chain_rule_batch",
    "policy.refine", "policy.frame_loss", "policy.head_forward",
    "policy.head_backward", "policy.optimizer_step", "policy.train_step",
    "cli.train_head",
    "trajectory.from_boundary", "trajectory.sample",
    "control.flatness", "control.observer",
    "simulator.plant_step", "simulator.plan", "simulator.episode",
    "simulator.detection", "simulator.evader", "tracker", "bench.round",
)
# Set-up layers, reported as inclusive milliseconds per set-up.
SETUP_LAYERS = ("environment.build_esdf", "environment.generate_forest",
                "policy.compute_features")


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def round_metrics(spans: list[list], rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics per round from the spans of `rounds` traced rounds,
    and the trace's consistency errors. Values are (number, unit)."""
    dur, self_t, errors = self_times(spans)
    names = np.array([s[0] for s in spans], dtype=object)
    out: dict[str, tuple[float, str]] = {}
    for layer in ROUND_LAYERS:
        sel = names == layer
        out[f"{layer}.calls"] = (_ratio(np.sum(sel), rounds), "count")
        out[f"{layer}.self_ms"] = (_ratio(np.sum(self_t[sel]) * 1e3, rounds),
                                   "ms")
    out["simulator.evader.replans"] = (_ratio(sum(
        1 for s in spans if s[0] == "simulator.evader" and s[4]), rounds),
        "count")

    # field queries, split by whether a gradient was asked for
    q = np.flatnonzero(names == "environment.query")
    grad = np.array([spans[k][4]["grad"] for k in q], bool)
    pts = np.array([spans[k][4]["points"] for k in q], float)
    for tag, sel in (("", np.ones(len(q), bool)), (".grad", grad),
                     (".nograd", ~grad)):
        n, p, t = int(np.sum(sel)), float(np.sum(pts[sel])), \
            float(np.sum(self_t[q[sel]]))
        if tag:
            out[f"environment.query{tag}.calls"] = (_ratio(n, rounds), "count")
            out[f"environment.query{tag}.self_ms"] = (
                _ratio(t * 1e3, rounds), "ms")
        out[f"environment.query{tag}.points_per_call"] = (_ratio(p, n),
                                                          "count")
        out[f"environment.query{tag}.ns_per_point"] = (_ratio(t * 1e9, p), "ns")

    ev = np.flatnonzero(names == "costs.evaluate")
    rows = sum(spans[k][4]["rows"] for k in ev)
    out["costs.evaluate.rows_per_call"] = (_ratio(rows, len(ev)), "count")
    out["costs.evaluate.grad_call_share"] = (
        _ratio(sum(spans[k][4]["grad"] for k in ev), len(ev)), "ratio")

    # refine, read from its evaluate calls: a line-search batch is a
    # gradient-free call on an index subset (backtracks trial rows per
    # candidate); the gradient call on a subset that follows it carries
    # the accepted candidates
    ref = np.flatnonzero(names == "policy.refine")
    children: dict[int, list[int]] = {int(k): [] for k in ref}
    for k in ev:
        if spans[k][3] in children:
            children[spans[k][3]].append(int(k))
    iters = evals = searched = trials = accepted = early = 0
    for k, kids in children.items():
        a = spans[k][4]
        n_it = 0
        for c in kids:
            ca = spans[c][4]
            if ca["idx"] and not ca["grad"]:
                n_it += 1
                trials += ca["rows"]
                searched += ca["rows"] // a["backtracks"]
            elif ca["idx"]:
                accepted += ca["rows"]
        iters += n_it
        evals += len(kids)
        early += n_it < a["steps"]
    n_ref = len(ref)
    out["policy.refine.iters_per_call"] = (_ratio(iters, n_ref), "count")
    out["policy.refine.evaluate_per_call"] = (_ratio(evals, n_ref), "count")
    out["policy.refine.accept_ratio"] = (_ratio(accepted, searched), "ratio")
    out["policy.refine.trial_useful_ratio"] = (_ratio(accepted, trials),
                                               "ratio")
    out["policy.refine.early_exit_share"] = (_ratio(early, n_ref), "ratio")

    roots = np.flatnonzero(np.array([s[3] for s in spans]) < 0)
    wall = float(np.sum(dur[roots]))
    for layer in ("environment.query", "costs.evaluate", "simulator.plan"):
        out[f"{layer}.wall_share"] = (
            _ratio(float(np.sum(dur[names == layer])), wall), "ratio")
    out["trace.self_sum_share"] = (_ratio(float(np.sum(self_t)), wall),
                                   "ratio")
    out["trace.spans_per_round"] = (_ratio(len(spans), rounds), "count")
    if abs(out["trace.self_sum_share"][0] - 1.0) > 1e-6:
        errors.append("layer self times do not add up to the traced wall "
                      "time")
    return out, errors


def setup_metrics(spans: list[list], setups: int) -> dict:
    """Inclusive milliseconds per set-up of the set-up layers."""
    dur, _, _ = self_times(spans)
    names = np.array([s[0] for s in spans], dtype=object)
    return {f"{layer}.ms": (_ratio(np.sum(dur[names == layer]) * 1e3, setups),
                            "ms")
            for layer in SETUP_LAYERS}
