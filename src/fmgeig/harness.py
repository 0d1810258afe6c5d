"""Experiment orchestration: configuration ingestion, convergence /
contraction / work-scaling studies, error tables with observed rates, and
CSV/JSON report emission."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .eigsolve import LevelSpace, ScfSettings, scf_solve
from .fem import ProblemSpec, a_norm, harmonic_potential, l2_norm
from .fmg import FmgParams, full_multigrid
from .linalg import MgContext, WorkReport, v_cycle
from .mesh import build_hierarchy

__all__ = [
    "ProblemConfig",
    "MeshConfig",
    "AlgorithmConfig",
    "ExperimentConfig",
    "LevelRow",
    "ErrorReport",
    "load_config",
    "config_from_dict",
    "run_experiment",
    "compute_rates",
    "fitted_rate",
    "emit_report",
    "measure_mg_contraction",
    "solve_reference",
    "SurrogateReference",
    "CSV_HEADER",
]

CSV_HEADER = ("level,n_elements,n_dofs,lambda,err_lambda,err_a,err_l2,"
              "rate_lambda,rate_a,rate_l2,work_units,wall_seconds,varpi_max,gamma_obs")

STUDIES = ("convergence", "contraction", "work-scaling", "single-solve")
POTENTIALS = ("none", "harmonic")
REFERENCES = ("extra-level", "file")
FORMATS = ("csv", "json")


@dataclass
class ProblemConfig:
    dim: int = 2
    zeta: float = 1.0
    sigma: int = 1
    potential: str = "harmonic"


@dataclass
class MeshConfig:
    divisions_per_axis: int = 8
    n_levels: int = 5
    coarse_space_level: int = 0   # refinements separating V_H from the first level


@dataclass
class AlgorithmConfig:
    m: int = 1
    p: int = 1
    pre_smooth: int = 3
    post_smooth: int = 3
    tol_lambda: float = 1e-10
    tol_u: float = 1e-8
    max_scf_iter: int = 100
    varpi: int = 3
    damping: float = 1.0


@dataclass
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    algorithm: AlgorithmConfig = field(default_factory=AlgorithmConfig)
    study: str = "convergence"
    reference: str = "extra-level"
    reference_path: str | None = None
    reference_extra_refinements: int = 1
    reference_tol: float = 1e-12
    output: str | None = None
    format: str = "csv"
    seed: int = 0


def _fill_section(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    known = {f for f in cls.__dataclass_fields__}
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}", "unknown field")
    return cls(**data)


def config_from_dict(data) -> ExperimentConfig:
    """Build a validated config; every field has a default, so {} is legal."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")
    cfg = ExperimentConfig(
        problem=_fill_section(ProblemConfig, data.get("problem", {}), "problem"),
        mesh=_fill_section(MeshConfig, data.get("mesh", {}), "mesh"),
        algorithm=_fill_section(AlgorithmConfig, data.get("algorithm", {}), "algorithm"),
        **{k: v for k, v in data.items() if k not in ("problem", "mesh", "algorithm")},
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig):
    p, m, a = cfg.problem, cfg.mesh, cfg.algorithm
    if p.dim not in (2, 3):
        raise ConfigError("problem.dim", "must be 2 or 3")
    if p.zeta < 0:
        raise ConfigError("problem.zeta", "must be nonnegative")
    if p.sigma != 1:
        # the frozen nonlinearity u^(2 sigma) needs a rule of degree
        # 2 sigma + 2; the built-in rules stop at degree 4
        raise ConfigError("problem.sigma", "only sigma = 1 is supported")
    if p.potential not in POTENTIALS:
        raise ConfigError("problem.potential", f"must be one of {POTENTIALS}")
    if m.divisions_per_axis < 1:
        raise ConfigError("mesh.divisions_per_axis", "must be >= 1")
    if m.n_levels < 1:
        raise ConfigError("mesh.n_levels", "must be >= 1")
    if m.coarse_space_level < 0:
        raise ConfigError("mesh.coarse_space_level", "must be >= 0")
    # the first nonlinear solve runs on the first level (FMG studies) or the
    # finest one (single-solve); with fewer than 2 cells per axis it has no
    # interior vertex and inverse iteration has nothing to work on
    solve_refinements = m.coarse_space_level + (
        m.n_levels - 1 if cfg.study == "single-solve" else 0)
    if m.divisions_per_axis * 2 ** solve_refinements < 2:
        raise ConfigError("mesh.divisions_per_axis",
                          "the first solve level has no interior vertex; use >= 2")
    if a.m < 1:
        raise ConfigError("algorithm.m", "must be >= 1")
    if a.p < 1:
        raise ConfigError("algorithm.p", "must be >= 1")
    if a.varpi < 1:
        raise ConfigError("algorithm.varpi", "must be >= 1")
    if a.tol_lambda <= 0 or a.tol_u <= 0:
        raise ConfigError("algorithm.tol_lambda", "tolerances must be positive")
    if not (0 < a.damping <= 1):
        raise ConfigError("algorithm.damping", "must lie in (0, 1]")
    if cfg.study not in STUDIES:
        raise ConfigError("study", f"must be one of {STUDIES}")
    if cfg.reference not in REFERENCES:
        raise ConfigError("reference", f"must be one of {REFERENCES}")
    if cfg.reference == "file" and not cfg.reference_path:
        raise ConfigError("reference_path", "required when reference is 'file'")
    if cfg.reference_extra_refinements < 1:
        raise ConfigError("reference_extra_refinements", "must be >= 1")
    if cfg.format not in FORMATS:
        raise ConfigError("format", f"must be one of {FORMATS}")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as err:
        raise ConfigError(str(path), f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(str(path), f"invalid JSON: {err}") from err
    return config_from_dict(data)


def problem_spec_from(cfg: ExperimentConfig) -> ProblemSpec:
    potential = harmonic_potential if cfg.problem.potential == "harmonic" else None
    return ProblemSpec(dim=cfg.problem.dim, potential=potential,
                       zeta=cfg.problem.zeta, sigma=cfg.problem.sigma)


def fmg_params_from(cfg: ExperimentConfig, diagnostics=False) -> FmgParams:
    a = cfg.algorithm
    return FmgParams(
        m=a.m, p=a.p, pre_smooth=a.pre_smooth, post_smooth=a.post_smooth,
        varpi=a.varpi,
        scf=ScfSettings(tol_lambda=a.tol_lambda, tol_u=a.tol_u,
                        max_iter=a.max_scf_iter, damping=a.damping),
        record_diagnostics=diagnostics,
        diagnostics_tol=cfg.reference_tol,
    )


@dataclass
class LevelRow:
    level: int
    n_elements: int
    n_dofs: int
    lam: float
    err_lambda: float = np.nan
    err_a: float = np.nan
    err_l2: float = np.nan
    rate_lambda: float = np.nan
    rate_a: float = np.nan
    rate_l2: float = np.nan
    work_units: int = 0
    wall_seconds: float = 0.0
    varpi_max: float = np.nan
    gamma_obs: float = np.nan


@dataclass
class ErrorReport:
    rows: list
    meta: dict = field(default_factory=dict)

    def column(self, name):
        key = "lam" if name == "lambda" else name
        return [getattr(r, key) for r in self.rows]


def compute_rates(errors, beta):
    """rate(k) = log_beta(e_{k-1} / e_k); undefined entries become nan."""
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    rates = [np.nan]
    for prev, cur in zip(errors[:-1], errors[1:]):
        ok = (prev is not None and cur is not None and np.isfinite(prev)
              and np.isfinite(cur) and prev > 0 and cur > 0)
        rates.append(math.log(prev / cur) / math.log(beta) if ok else np.nan)
    return rates


def fitted_rate(errors, beta, window=3):
    """Least-squares slope of log_beta(error) per level over the last `window`
    levels; the standard single-number estimate of an observed order."""
    tail = [e for e in errors[-window:] if np.isfinite(e) and e > 0]
    if len(tail) < 2:
        return np.nan
    ys = np.log(tail) / math.log(beta)
    xs = np.arange(len(ys), dtype=float)
    return float(-np.polyfit(xs, ys, 1)[0])


@dataclass
class SurrogateReference:
    """High-accuracy direct solution on the extra-fine level, together with
    the matrices needed to evaluate errors there."""

    hierarchy: object
    level: int
    space: LevelSpace
    lam: float
    coefficients: np.ndarray

    def errors(self, level, lam, coefficients):
        """(err_lambda, err_a, err_l2) of a level iterate, evaluated on the
        reference mesh through the nested prolongations."""
        lifted = coefficients
        for j in range(level, self.level):
            lifted = self.hierarchy.interior_prolongation(j) @ lifted
        if float(lifted @ (self.space.mass @ self.coefficients)) < 0:
            lifted = -lifted
        diff = lifted - self.coefficients
        return (abs(lam - self.lam),
                a_norm(diff, self.space.stiffness),
                l2_norm(diff, self.space.mass))


def solve_reference(hierarchy_full, spec, ref_tol=1e-12, warm=None, warm_level=None):
    """Direct SCF solve on the finest level of `hierarchy_full`, warm-started
    from a coarser iterate when one is supplied."""
    ref_level = hierarchy_full.n_levels - 1
    prols = [hierarchy_full.interior_prolongation(j) for j in range(ref_level)]
    ref_space = LevelSpace.build(hierarchy_full.levels[ref_level], spec,
                                 prolongations=prols)
    if warm is not None:
        for j in range(warm_level, ref_level):
            warm = hierarchy_full.interior_prolongation(j) @ warm
    ref = scf_solve(ref_space, spec,
                    ScfSettings(tol_lambda=ref_tol, tol_u=max(ref_tol, 1e-10),
                                max_iter=500),
                    initial=warm)
    if not ref.converged:
        raise SolverError("reference solve did not converge")
    return SurrogateReference(hierarchy=hierarchy_full, level=ref_level,
                              space=ref_space, lam=ref.pair.lam,
                              coefficients=ref.pair.u.coefficients)


def _reference_errors(hierarchy_full, run_levels, spec, cfg, traces):
    reference = solve_reference(hierarchy_full, spec, ref_tol=cfg.reference_tol,
                                warm=traces[-1].coefficients, warm_level=run_levels - 1)
    errs = {"lambda": [], "a": [], "l2": []}
    for k, tr in enumerate(traces):
        el, ea, e2 = reference.errors(k, tr.lam, tr.coefficients)
        errs["lambda"].append(el)
        errs["a"].append(ea)
        errs["l2"].append(e2)
    return errs, reference.lam


def run_experiment(cfg: ExperimentConfig) -> ErrorReport:
    """Build the hierarchy, run the configured study, and fill the table."""
    validate_config(cfg)
    spec = problem_spec_from(cfg)
    n = cfg.mesh.n_levels
    extra = (cfg.reference_extra_refinements
             if cfg.study == "convergence" and cfg.reference == "extra-level" else 0)
    hierarchy_full = build_hierarchy(cfg.problem.dim, cfg.mesh.divisions_per_axis,
                                     n + extra, coarse_offset=cfg.mesh.coarse_space_level)
    run_h = hierarchy_full.truncated(n) if extra else hierarchy_full
    meta = {"config": asdict(cfg), "study": cfg.study}

    if cfg.study == "single-solve":
        t0 = time.perf_counter()
        k = n - 1
        work = WorkReport()
        prols = [run_h.interior_prolongation(j) for j in range(k)]
        space = LevelSpace.build(run_h.levels[k], spec, prolongations=prols, work=work)
        a = cfg.algorithm
        res = scf_solve(space, spec, ScfSettings(tol_lambda=a.tol_lambda, tol_u=a.tol_u,
                                                 max_iter=a.max_scf_iter, damping=a.damping),
                        work=work)
        row = LevelRow(level=n, n_elements=run_h.levels[k].n_cells,
                       n_dofs=run_h.levels[k].n_interior, lam=res.pair.lam,
                       work_units=work.work_units,
                       wall_seconds=time.perf_counter() - t0,
                       varpi_max=float(res.iterations))
        meta["converged"] = res.converged
        report = ErrorReport(rows=[row], meta=meta)
        return _maybe_emit(report, cfg)

    diagnostics = cfg.study == "contraction"
    params = fmg_params_from(cfg, diagnostics=diagnostics)
    result = full_multigrid(run_h, spec, params)
    traces = result.traces

    meta["augmented_converged"] = [[r.converged for r in t.records] for t in traces]
    rows = [LevelRow(level=t.level_index + 1, n_elements=t.n_elements, n_dofs=t.n_dofs,
                     lam=t.lam, work_units=t.work_units, wall_seconds=t.wall_seconds,
                     varpi_max=t.varpi_max, gamma_obs=t.gamma_obs)
            for t in traces]

    if cfg.study == "convergence":
        if cfg.reference == "extra-level":
            errs, lam_ref = _reference_errors(hierarchy_full, n, spec, cfg, traces)
            meta["reference_lambda"] = lam_ref
            for row, ea, el, e2 in zip(rows, errs["a"], errs["lambda"], errs["l2"]):
                row.err_a, row.err_lambda, row.err_l2 = ea, el, e2
        else:
            ref_data = _load_reference_file(cfg.reference_path)
            meta["reference_lambda"] = ref_data["lambda"]
            for row, t in zip(rows, traces):
                row.err_lambda = abs(t.lam - ref_data["lambda"])
        _fill_rates(rows)
    elif cfg.study == "contraction":
        for row, t in zip(rows, traces):
            row.err_lambda = abs(t.lam - t.direct_lambda)
            if t.records:
                row.err_a = t.records[-1].err_a_after
        _fill_rates(rows)

    report = ErrorReport(rows=rows, meta=meta)
    return _maybe_emit(report, cfg)


def _load_reference_file(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(str(path), f"cannot read reference file: {err}") from err
    if "lambda" not in data:
        raise ConfigError(str(path), "reference file must define 'lambda'")
    return data


def _fill_rates(rows, beta=2):
    for name in ("err_lambda", "err_a", "err_l2"):
        rates = compute_rates([getattr(r, name) for r in rows], beta)
        for row, rate in zip(rows, rates):
            setattr(row, name.replace("err_", "rate_"), rate)


def _maybe_emit(report, cfg):
    if cfg.output:
        emit_report(report, cfg.output, cfg.format)
    return report


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return f"{v:.12g}"


_COLUMNS = ("level", "n_elements", "n_dofs", "lambda", "err_lambda", "err_a",
            "err_l2", "rate_lambda", "rate_a", "rate_l2", "work_units",
            "wall_seconds", "varpi_max", "gamma_obs")


def report_to_string(report: ErrorReport, fmt="csv"):
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in report.rows:
            vals = [r.level, r.n_elements, r.n_dofs, r.lam, r.err_lambda, r.err_a,
                    r.err_l2, r.rate_lambda, r.rate_a, r.rate_l2, r.work_units,
                    r.wall_seconds, r.varpi_max, r.gamma_obs]
            lines.append(",".join(_fmt(v) for v in vals))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = []
        for r in report.rows:
            vals = [r.level, r.n_elements, r.n_dofs, r.lam, r.err_lambda, r.err_a,
                    r.err_l2, r.rate_lambda, r.rate_a, r.rate_l2, r.work_units,
                    r.wall_seconds, r.varpi_max, r.gamma_obs]
            row = {}
            for name, v in zip(_COLUMNS, vals):
                if isinstance(v, (int, np.integer)):
                    row[name] = int(v)
                else:
                    row[name] = float(_fmt(v))
            rows.append(row)
        return json.dumps({"rows": rows, "meta": report.meta}, indent=2) + "\n"
    raise ConfigError("format", f"must be one of {FORMATS}")


def emit_report(report: ErrorReport, path, fmt="csv"):
    text = report_to_string(report, fmt)
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as err:
        raise SolverError(f"cannot write report to {path}: {err}") from err
    return path


def measure_mg_contraction(divisions, n_levels, seed=0, trials=20, pre=3, post=3, dim=2):
    """Worst observed per-cycle energy-error contraction of the V-cycle on the
    pure diffusion (auxiliary) problem, per level, over random initial errors."""
    spec = ProblemSpec(dim=dim, potential=None, zeta=0.0)
    h = build_hierarchy(dim, divisions, n_levels)
    from .fem import assemble_stiffness

    mats = [assemble_stiffness(lv, spec) for lv in h.levels]
    prols = [h.interior_prolongation(k) for k in range(n_levels - 1)]
    ctx = MgContext(mats, prols, pre_steps=pre, post_steps=post)
    rng = np.random.default_rng(seed)
    out = {}
    for lvl in range(1, n_levels):
        A = mats[lvl]
        xstar = rng.standard_normal(A.shape[0])
        b = A @ xstar
        worst = 0.0
        for _ in range(trials):
            e0 = rng.standard_normal(A.shape[0])
            x1 = v_cycle(ctx, lvl, b, xstar + e0)
            num = a_norm(x1 - xstar, A)
            den = a_norm(e0, A)
            worst = max(worst, num / den)
        out[lvl] = worst
    return out
