"""Command line entry point.

    solve --config cfg.json [--study NAME] [--levels N] [--zeta X] [--dim D]
          [--out PATH] [--format csv|json]

Flags override config fields.  Exit codes: 0 success, 2 configuration
error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import AssemblyError, ConfigError, MeshBudgetError, SolverError
from .harness import (
    ExperimentConfig,
    STUDIES,
    load_config,
    report_to_string,
    run_experiment,
    validate_config,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="solve",
        description="Full multigrid benchmark driver for nonlinear eigenvalue problems")
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--study", choices=STUDIES, help="override the study type")
    parser.add_argument("--levels", type=int, help="override mesh.n_levels")
    parser.add_argument("--zeta", type=float, help="override problem.zeta")
    parser.add_argument("--dim", type=int, help="override problem.dim")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    return parser


def apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.study is not None:
        cfg.study = args.study
    if args.levels is not None:
        cfg.mesh.n_levels = args.levels
    if args.zeta is not None:
        cfg.problem.zeta = args.zeta
    if args.dim is not None:
        cfg.problem.dim = args.dim
    if args.out is not None:
        cfg.output = args.out
    if args.format is not None:
        cfg.format = args.format
    validate_config(cfg)
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg = apply_overrides(cfg, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SolverError, MeshBudgetError, AssemblyError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    if not cfg.output:
        sys.stdout.write(report_to_string(report, cfg.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
