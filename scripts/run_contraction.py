#!/usr/bin/env python3
"""Contraction measurements: per-level correction factors gamma_obs against
same-level direct solutions, plus the V-cycle energy-error reduction theta_obs
on the pure diffusion problem.

    python scripts/run_contraction.py --zeta 1 --levels 4
"""

import argparse
import sys

from fmgeig.harness import (
    config_from_dict,
    measure_mg_contraction,
    report_to_string,
    run_experiment,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--zeta", type=float, default=1.0)
    ap.add_argument("--divisions", type=int, default=8)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    cfg = config_from_dict({
        "problem": {"dim": args.dim, "zeta": args.zeta},
        "mesh": {"divisions_per_axis": args.divisions, "n_levels": args.levels},
        "study": "contraction",
        "output": args.out,
    })
    report = run_experiment(cfg)
    sys.stdout.write(report_to_string(report))

    thetas = measure_mg_contraction(args.divisions, args.levels,
                                    seed=args.seed, trials=args.trials, dim=args.dim)
    for level, theta in thetas.items():
        n = args.divisions * 2 ** level
        print(f"# V-cycle theta_obs at {n}^{args.dim}: {theta:.4f} "
              f"(worst of {args.trials} random errors)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
