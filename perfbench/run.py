"""fmgeig benchmark: time to a checked solution on fixed solver workloads.

    python3 perfbench/run.py --workload fmg-3d --seed 1 --seconds 55 --trace 0

Run from the repository root; the solver is imported from ``src/`` of the
same checkout.  A run repeats one workload of ``perfbench/spec.json``
(``fmg-3d`` or ``scf-2d``) until ``--seconds`` would be exceeded,
checks every answer against the pinned eigenvalue and against the run's
first answer, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured untraced.
``--trace 1`` interleaves traced and untraced repeats and reports its
per-layer metrics, derived from spans around each call into ``mesh``,
``fem``, ``linalg``, ``eigsolve`` and ``fmg`` (see ``spans.py``).

The inputs are fixed configs because the solver is deterministic; the seed
only shuffles the interleaved order of the repeats within a run, so that
machine drift does not favour one kind of repeat.  BLAS and OpenMP threads
are pinned to 1 before numpy loads; the line before the result records the
interpreter, library versions, BLAS build, thread settings, core count,
sample counts, high percentiles and the counters that must repeat.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is 0.07-0.2 s, so every solve repeat brings this many extra builds
SETUP_ONLY_PER_ROUND = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no solver source, bad environment)."""


def load_spec():
    """Workload configs, pinned values and metric descriptions."""
    return json.loads((HERE / "spec.json").read_text())


def load_metric_units(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def pin_threads():
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the thread settings were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


@dataclass
class Fmgeig:
    mesh: object
    fem: object
    linalg: object
    eigsolve: object
    fmg: object
    harness: object
    errors: tuple


def load_fmgeig() -> Fmgeig:
    """Import fmgeig from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "fmgeig" / "__init__.py").is_file():
        raise BenchError(f"no solver source at {src / 'fmgeig'}")
    sys.path.insert(0, str(src))
    import fmgeig
    from fmgeig import eigsolve, errors, fem, fmg, harness, linalg, mesh
    if Path(fmgeig.__file__).resolve().parent != (src / "fmgeig").resolve():
        raise BenchError(f"imported fmgeig from {fmgeig.__file__}, not from {src}")
    return Fmgeig(mesh, fem, linalg, eigsolve, fmg, harness,
                  (errors.SolverError, errors.AssemblyError, errors.MeshBudgetError))


@dataclass
class Outcome:
    lam: float
    coefficients: object
    converged: bool
    work: object
    traces: list


def build(fm, cfg):
    return fm.mesh.build_hierarchy(cfg["dim"], cfg["divisions"], cfg["levels"])


def solve_once(fm, cfg, hierarchy) -> Outcome:
    """The timed solver call of a workload on a freshly built hierarchy."""
    problem = fm.fem.ProblemSpec(dim=cfg["dim"], zeta=cfg["zeta"])
    work = fm.linalg.WorkReport()
    if cfg["solver"] == "fmg":
        res = fm.fmg.full_multigrid(hierarchy, problem, work=work)
        return Outcome(res.pair.lam, res.pair.u.coefficients, True, work, res.traces)
    prols = [hierarchy.interior_prolongation(j) for j in range(hierarchy.n_levels - 1)]
    space = fm.eigsolve.LevelSpace.build(hierarchy.levels[-1], problem, work=work,
                                         prolongations=prols)
    res = fm.eigsolve.scf_solve(space, problem, fm.eigsolve.ScfSettings(**cfg["scf"]), work=work)
    return Outcome(res.pair.lam, res.pair.u.coefficients, res.converged, work, [])


def fingerprint(outcome):
    """What must repeat exactly across the repeats of one run."""
    w = outcome.work
    return {"lambda": outcome.lam, "work_units": w.work_units,
            "scf_sweeps": w.scf_iterations, "v_cycles": w.coarse_solves}


def check(fm, checks, cfg, hierarchy, outcome, first, tracer=None):
    """Problems with one answer; an empty list means it passed.  ``first``
    is the fingerprint of the run's first passing repeat (None before it).
    A traced repeat must also count one top-level V-cycle per coarse solve."""
    pinned = cfg["pinned"]
    problems = []
    rel = abs(outcome.lam - pinned["lambda"]) / pinned["lambda"]
    rtol = cfg["lambda_rtol"]
    if rel > rtol:
        problems.append(f"lambda {outcome.lam!r} misses pinned {pinned['lambda']!r} "
                        f"by {rel:.2e} relative (tolerance {rtol:.2e})")
    u = outcome.coefficients
    M = fm.fem.assemble_mass(hierarchy.levels[-1])
    norm_err = abs(float(u @ (M @ u)) - 1.0)
    if norm_err > checks["norm_atol"]:
        problems.append(f"|u'Mu - 1| = {norm_err:.2e}")
    if not outcome.converged:
        problems.append("scf_solve returned converged=False")
    if first is not None:
        for key, value in fingerprint(outcome).items():
            if value != first[key]:
                problems.append(f"{key} {value!r} differs from this run's first {first[key]!r}")
    if tracer is not None and tracer.spans["linalg.v_cycle"].entries != outcome.work.coarse_solves:
        problems.append(f"traced V-cycles {tracer.spans['linalg.v_cycle'].entries} != "
                        f"coarse solves {outcome.work.coarse_solves}")
    return problems


def lambda_gap(cfg, lam):
    lam_h = cfg["pinned"]["lambda_h"]
    return abs(lam - lam_h) / lam_h


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it
    (none below 11 samples), the sample count and the samples in run order."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    if n >= 11:
        high = {"pct": round(100.0 * (n - 10) / n, 1), "value": ordered[n - 11]}
    median = statistics.median(ordered) if ordered else None
    return {"median": median, "high": high, "n": n, "samples": values}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


class Run:
    """One benchmark invocation: a schedule of repeats of one workload."""

    def __init__(self, fm, spec, name, seed, seconds):
        self.fm = fm
        self.checks = spec["checks"]
        self.cfg = spec["workloads"][name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.attempted = 0
        self.failures = []
        self.first = None
        self.setup = []
        self.order = []

    def timed_repeat(self, tracer=None):
        """Build, solve and check once; returns (setup s, solve s, outcome)
        or None if the repeat failed."""
        fm, cfg = self.fm, self.cfg
        self.attempted += 1
        try:
            with tracer or nullcontext():
                t0 = time.perf_counter()
                hierarchy = build(fm, cfg)
                t1 = time.perf_counter()
                outcome = solve_once(fm, cfg, hierarchy)
                t2 = time.perf_counter()
            problems = check(fm, self.checks, cfg, hierarchy, outcome, self.first, tracer)
        except fm.errors as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append({"repeat": self.attempted, "problems": problems})
            return None
        if self.first is None:
            self.first = fingerprint(outcome)
        self.setup.append(t1 - t0)
        return t1 - t0, t2 - t1, outcome

    def setup_only(self):
        """Time one build; the hierarchy is freed after the clock stops."""
        t0 = time.perf_counter()
        hierarchy = build(self.fm, self.cfg)
        self.setup.append(time.perf_counter() - t0)
        return hierarchy

    def rounds(self, kinds):
        """Yield each round's repeat kinds, shuffled, while the next round
        is predicted to end within the time budget."""
        start = time.perf_counter()
        durations = []
        while True:
            order = list(kinds)
            self.rng.shuffle(order)
            self.order.append(order)
            t0 = time.perf_counter()
            yield order
            gc.collect()
            now = time.perf_counter()
            durations.append(now - t0)
            if now - start + statistics.median(durations) > self.seconds:
                return

    def warm_up(self):
        """Load lazily initialised library code on a tiny mesh, untimed."""
        cfg = dict(self.cfg, divisions=2, levels=2)
        try:
            solve_once(self.fm, cfg, build(self.fm, cfg))
        except self.fm.errors as exc:
            self.attempted += 1
            self.failures.append({"repeat": "warm-up", "problems": [f"{type(exc).__name__}: {exc}"]})

    def end_to_end(self):
        solve, total, gaps = [], [], []
        for order in self.rounds(["solve"] + ["setup"] * SETUP_ONLY_PER_ROUND):
            for kind in order:
                if kind == "setup":
                    self.setup_only()
                    continue
                rep = self.timed_repeat()
                if rep is not None:
                    t_setup, t_solve, outcome = rep
                    solve.append(t_solve)
                    total.append(t_setup + t_solve)
                    gaps.append(lambda_gap(self.cfg, outcome.lam))
        timings = {"setup_s": summary(self.setup), "solve_s": summary(solve),
                   "total_s": summary(total)}
        if not solve:
            return {}, timings
        metrics = {key: (timings[key]["median"], "s") for key in timings}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["lambda_gap"] = (statistics.median(gaps), "ratio")
        return metrics, timings

    def per_layer(self):
        traced, untraced = [], []
        for order in self.rounds(["traced", "untraced"]):
            for kind in order:
                tracer = Tracer(self.fm) if kind == "traced" else None
                rep = self.timed_repeat(tracer)
                if rep is None:
                    continue
                t_setup, t_solve, outcome = rep
                if tracer is None:
                    untraced.append(t_setup + t_solve)
                else:
                    traced.append(layer_metrics(tracer, outcome, t_setup + t_solve))
        timings = {"traced_total_s": summary([m["traced_total_s"][0] for m in traced]),
                   "untraced_total_s": summary(untraced)}
        if not traced or not untraced:
            return {}, timings
        metrics = {key: (same_or_mean([m[key][0] for m in traced]), unit)
                   for key, (_, unit) in traced[0].items()}
        overhead = timings["traced_total_s"]["median"] / timings["untraced_total_s"]["median"] - 1
        metrics["trace_overhead"] = (overhead, "ratio")
        return metrics, timings


def same_or_mean(values):
    """Counts repeat exactly and keep their type; times are averaged, which
    keeps the sum of self times plus unattributed_s equal to the total."""
    return values[0] if len(set(values)) == 1 else statistics.fmean(values)


def layer_metrics(tracer, outcome, total):
    """Per-layer metrics of one traced repeat, as {name: (value, unit)}."""
    spans, counts, work = tracer.spans, tracer.counts, outcome.work

    def self_s(*names):
        return sum(spans[n].self_time for n in names)

    def calls(name):
        return spans[name].calls

    fem_names = ("fem.stiffness", "fem.mass", "fem.potential", "fem.nonlinear")
    cells = counts["fem.cells_assembled"]
    aug_calls = counts["eigsolve.aug_scf_calls"]
    finest = outcome.traces[-1] if outcome.traces else None
    return {
        "mesh.build_hierarchy_s": (self_s("mesh.build_hierarchy"), "s"),
        "mesh.transfer_s": (self_s("mesh.interior_prolongation",
                                   "mesh.coarse_to_level_interior"), "s"),
        "fem.stiffness_s": (self_s("fem.stiffness"), "s"),
        "fem.mass_s": (self_s("fem.mass"), "s"),
        "fem.potential_s": (self_s("fem.potential"), "s"),
        "fem.nonlinear_s": (self_s("fem.nonlinear"), "s"),
        "fem.nonlinear_calls": (calls("fem.nonlinear"), "count"),
        "fem.cells_assembled": (cells, "count"),
        "fem.cells_per_s": (cells / self_s(*fem_names) if cells else 0.0, "1/s"),
        "linalg.mg_solve_s": (self_s("linalg.mg_solve"), "s"),
        "linalg.mg_solve_to_tol_s": (self_s("linalg.mg_solve_to_tol"), "s"),
        "linalg.mg_solve_to_tol_calls": (calls("linalg.mg_solve_to_tol"), "count"),
        "linalg.v_cycle_self_s": (self_s("linalg.v_cycle"), "s"),
        "linalg.v_cycles": (spans["linalg.v_cycle"].entries, "count"),
        "linalg.cg_smooth_s": (self_s("linalg.cg_smooth"), "s"),
        "linalg.coarse_solve_s": (self_s("linalg.coarse_solve"), "s"),
        "linalg.coarse_solves": (calls("linalg.coarse_solve"), "count"),
        "linalg.galerkin_chain_s": (self_s("linalg.galerkin_chain"), "s"),
        "linalg.cg_breakdowns": (work.cg_breakdowns, "count"),
        "linalg.work_units": (work.work_units, "count"),
        "eigsolve.level_space_build_s": (self_s("eigsolve.level_space_build"), "s"),
        "eigsolve.scf_solve_self_s": (self_s("eigsolve.scf_solve"), "s"),
        "eigsolve.scf_sweeps": (work.scf_iterations, "count"),
        "eigsolve.smallest_eigpair_self_s": (self_s("eigsolve.smallest_eigpair"), "s"),
        "eigsolve.smallest_eigpair_calls": (calls("eigsolve.smallest_eigpair"), "count"),
        "eigsolve.augment_s": (self_s("eigsolve.augment"), "s"),
        "eigsolve.aug_converged_ratio": (
            counts["eigsolve.aug_scf_converged"] / aug_calls if aug_calls else 0.0, "ratio"),
        "fmg.build_workspace_s": (self_s("fmg.build_workspace"), "s"),
        "fmg.correction_s": (self_s("fmg.correction"), "s"),
        "fmg.finest_level_s": (finest.wall_seconds if finest else 0.0, "s"),
        "fmg.work_per_dof_finest": (finest.work_units / finest.n_dofs if finest else 0.0,
                                    "count/dof"),
        "fmg.work_total_over_finest": (
            sum(t.work_units for t in outcome.traces) / finest.work_units if finest else 0.0,
            "ratio"),
        "traced_total_s": (total, "s"),
        "unattributed_s": (total - tracer.self_seconds(), "s"),
    }


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    try:
        units = load_metric_units(args.trace)
        pin_threads()
        fm = load_fmgeig()
    except (BenchError, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env = environment()
    run = Run(fm, spec, args.workload, args.seed, args.seconds)
    run.warm_up()
    metrics, timings = run.per_layer() if args.trace else run.end_to_end()
    declared = {name: unit for name, (_, unit) in metrics.items()}
    if metrics and declared != units:
        raise BenchError(f"emitted metrics {declared} differ from BENCHMARK.json's {units}")
    failed = len(run.failures)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "order": run.order, "timings": timings,
                      "counts": run.first, "failures": run.failures, "environment": env}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
