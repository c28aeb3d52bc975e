"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Produces real outputs with primtrack (a short forest flight and a small
training set), requires every check to pass them, then corrupts each output
on purpose and requires the matching check to reject it. Exits 0 when every
check behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True
from run import OUT, _import_program  # noqa: E402

_import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from primtrack.config import RunConfig  # noqa: E402


def main() -> int:
    results = []

    def expect(what: str, clean: list, corrupt: list) -> None:
        ok = not clean and bool(corrupt)
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}: clean {clean or 'passes'}"
              f"; corrupted {corrupt or 'PASSES'}")

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT))
    try:
        ep = workloads.Episode("forest-1000 nav 8 m", "navigation", 1000, 8.0)
        loop = workloads.ClosedLoop("selftest", [ep], work)
        arenas = loop.setup()
        arena = arenas[0]
        ops = loop.round(arenas, 0, [])
        m = ops[0].data["metrics"]
        log = checks.read_log(ops[0].data["log"])
        pos = log[:, checks.P]
        dt = loop.params.control_dt

        bad = log.copy()
        bad[len(bad) // 2, 5] = np.nan
        expect("finite states", checks.finite_states(log),
               checks.finite_states(bad))

        bad = log.copy()
        bad[len(bad) // 2, 1] += 2e-4
        expect("semi-implicit Euler", checks.euler_consistent(log, dt),
               checks.euler_consistent(bad, dt))

        for shift in (+0.5, -0.3):
            expect(f"min_clearance shifted {shift:+} m",
                   checks.clearance_agrees(m.min_clearance, pos, arena),
                   checks.clearance_agrees(m.min_clearance + shift, pos,
                                           arena))

        into_trunk = pos.copy()
        into_trunk[-1, :2] = arena.trunks[0]
        hit = checks.collided(into_trunk, arena, loop.params.collision_radius)
        expect("success despite a logged collision",
               checks.outcome_consistent(True, checks.collided(
                   pos, arena, loop.params.collision_radius)),
               checks.outcome_consistent(True, hit))

        clean = loop.check(arenas, [ops])
        flipped = replace(m, success=not m.success,
                          failure_class="none" if not m.success
                          else "target_missed")
        ops[0].data["metrics"] = flipped
        expect("navigation success rule", clean, loop.check(arenas, [ops]))
        ops[0].data["metrics"] = m

        full = ops[0].data["log"].read_bytes()
        prefix = full[:full.index(b"\n", len(full) // 2) + 1]
        changed = bytearray(prefix)
        changed[len(changed) // 2] ^= 1
        expect("byte-identical reruns", checks.log_is_prefix(full, prefix),
               checks.log_is_prefix(full, bytes(changed)))

        falling = list(np.linspace(10.0, 5.0, 40))
        expect("finite losses", checks.losses_fall(falling),
               checks.losses_fall(falling[:20] + [np.nan] + falling[21:]))
        expect("smoothed loss falls", checks.losses_fall(falling),
               checks.losses_fall(falling[::-1]))

        train = workloads.TrainHead(0, work)
        train.cfg = RunConfig({"train": {"mode": "tracking", "frames": 10}})
        inputs = train.setup()
        head, frames = inputs["head0"], inputs["frames"][:2]
        picks = [(0, 1, 2), (1, 3, 4), (2, 5, 9), (2, 7, 0)]
        clean = checks.gradient_agrees(head, frames, picks)
        backward = type(head).backward

        def skewed(self, cache, dLdy):
            gw, gb = backward(self, cache, dLdy)
            return [g * 1.01 for g in gw], gb

        type(head).backward = skewed
        try:
            corrupt = checks.gradient_agrees(head, frames, picks)
        finally:
            type(head).backward = backward
        expect("parameter gradient vs finite difference", clean, corrupt)

        spans = [["a", 0.0, 1.0, -1, None], ["b", 0.2, 0.5, 0, None]]
        outside = [["a", 0.0, 1.0, -1, None], ["b", 0.8, 1.5, 0, None]]
        expect("trace nesting", tracing.self_times(spans)[2],
               tracing.self_times(outside)[2])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} checks reject their corruption")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
