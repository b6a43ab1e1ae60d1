#!/usr/bin/env python3
"""Record the gate references of ``reference.json`` from the current code.

Run from the repository root:

    python3 perfbench/record_reference.py

For each workload it writes the gate tolerances and, for seeds
0 .. SEEDS-1, the figures ``workloads.<Workload>.summary`` extracts from one
headline call.  ``run.py`` compares an output against them when its
seed was recorded; the seed-independent parts of each gate apply to
every seed.  Re-record only when a change is meant to alter results.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, THREAD_VARS, THREADS, import_package

# Gate tolerances, per workload.
GATES = {
    # relative to the reference norms / final frame, and the relative
    # residual of the last step's linear system
    "mono3d_forward": {"rel_tol": 1e-6, "last_step_residual": 1e-8},
    # final J may exceed the reference J by this relative amount
    "mono2d_control": {"J_rel_tol": 1e-4},
    # the bidomain bound of the finite-difference gradient check
    "bido2d_gradcheck": {"max_rel_error": 1e-3},
}

# Workloads whose gate compares against recorded per-seed figures.
RECORDED = ("mono3d_forward", "mono2d_control")

# Seeds 0 .. SEEDS-1 are recorded.
SEEDS = 32


def main():
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    import_package()
    import workloads

    doc = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        entry = {"size": vars(wl), "gate": GATES[name], "seeds": {}}
        if name in RECORDED:
            for seed in range(SEEDS):
                inputs = wl.build(seed)
                out = wl.run(inputs)
                failures = wl.check(inputs, out, GATES[name], None)
                if failures:
                    sys.exit(f"{name} seed {seed} fails its own gate: {failures}")
                entry["seeds"][str(seed)] = wl.summary(inputs, out)
                print(f"{name} seed {seed} recorded", flush=True)
        doc[name] = entry
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
