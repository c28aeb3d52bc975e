"""The benchmark's hooks into the program still resolve.

perfbench/ swaps program entry points for span-recording wrappers and stamps
each run with the cost backend. A change that renames or deletes one of
those hooks fails here rather than in a benchmark run. The benchmark files
are imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench(monkeypatch_module):
    monkeypatch_module.syspath_prepend(str(BENCH))
    # leave no bytecode cache in the benchmark's directory
    monkeypatch_module.setattr(sys, "dont_write_bytecode", True)
    modules = {}
    for name in ("tracing", "run"):
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
