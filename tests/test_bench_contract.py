"""The benchmark's hooks into the program still resolve.

perfbench/ swaps program entry points for span-recording wrappers, stamps
each run with the cost backend, and checks head training by calling the
frame loss itself. A change that renames or deletes one of those hooks, or
changes the loss's call shape or the frame keys it reads, fails here rather
than in a benchmark run. The benchmark files are imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench(monkeypatch_module):
    monkeypatch_module.syspath_prepend(str(BENCH))
    # leave no bytecode cache in the benchmark's directory
    monkeypatch_module.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    for name in ("tracing", "run", "checks"):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])
    return modules


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def test_every_traced_entry_point_resolves(bench):
    targets = bench["tracing"]._targets()
    assert len(targets) > 30
    for owner, attr, name, _ in targets:
        found = attr in owner.__dict__ if isinstance(owner, type) \
            else hasattr(owner, attr)
        assert found, f"{getattr(owner, '__name__', owner)}.{attr} ({name})"


def test_stamp_reports_the_cost_backend(bench):
    from primtrack import kernels
    stamp = bench["run"].stamp()
    if not kernels.HAVE_NUMBA:
        assert stamp["cost_backend"] == "numpy"
    assert stamp["cost_backend"] in ("numpy", "numba kernel")


def test_training_checks_pass_on_tracking_frames(bench, tmp_path):
    from primtrack.cli import (build_training_frames, load_frames,
                               make_dataset, train_head)
    from primtrack.config import RunConfig
    from primtrack.policy import PolicyHead
    checks = bench["checks"]
    cfg = RunConfig({"train": {"mode": "tracking", "frames": 6,
                               "obstacles": 2}})
    make_dataset(cfg, tmp_path, seed=0)
    frames = build_training_frames(cfg, load_frames(tmp_path), seed=0)
    assert any(fr["assignment"] is not None for fr in frames)
    head = PolicyHead.create(hidden=cfg.hidden_sizes(), seed=0)
    picks = [(0, 1, 2), (1, 5, 7), (2, 3, 9), (2, 10, 0)]
    assert checks.gradient_agrees(head, frames[:3], picks) == []
    _, losses = train_head(cfg, frames, epochs=20, head=head)
    assert checks.losses_fall(losses) == []
