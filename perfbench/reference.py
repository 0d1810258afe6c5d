"""Recompute the values that perfbench/spec.json pins for each workload.

    python3 perfbench/reference.py [workload ...]

For every workload this runs the benchmarked solve once, untraced, with
BLAS threads pinned to 1, and prints its eigenvalue and determinism
counters; it then solves the discrete problem with
``harness.solve_reference`` at 1e-12 (cold start) on the workload's mesh,
refined ``lambda_h_extra_levels`` more times, and prints that eigenvalue
as ``lambda_h``.  The output is the ``pinned`` and ``recorded`` blocks of
each workload.
Run from the repository root; the reference solves take a few minutes.
"""

from __future__ import annotations

import json
import sys
import time

from run import build, load_fmgeig, load_spec, pin_threads, solve_once


def main(argv):
    pin_threads()
    fm = load_fmgeig()
    spec = load_spec()
    names = argv or list(spec["workloads"])
    out = {}
    for name in names:
        cfg = spec["workloads"][name]
        outcome = solve_once(fm, cfg, build(fm, cfg))
        t0 = time.perf_counter()
        fine = fm.mesh.build_hierarchy(cfg["dim"], cfg["divisions"],
                                       cfg["levels"] + cfg["lambda_h_extra_levels"])
        ref = fm.harness.solve_reference(fine, fm.fem.ProblemSpec(dim=cfg["dim"], zeta=cfg["zeta"]),
                                         ref_tol=1e-12)
        out[name] = {
            "pinned": {"lambda": round(outcome.lam, 12), "lambda_h": round(float(ref.lam), 12)},
            "recorded": {"work_units": outcome.work.work_units,
                         "scf_sweeps": outcome.work.scf_iterations,
                         "v_cycles": outcome.work.coarse_solves},
        }
        print(f"{name}: reference solve {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
