"""Experiment orchestration: configuration ingestion, convergence /
contraction / work-scaling studies, error tables with observed rates, and
CSV/JSON report emission."""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, SolverError
from .eigsolve import LevelSpace, ScfSettings, scf_solve
from .fem import ProblemSpec, a_norm, assemble_stiffness, harmonic_potential, l2_norm
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

_COLUMNS = ("level", "n_elements", "n_dofs", "lambda", "err_lambda", "err_a",
            "err_l2", "rate_lambda", "rate_a", "rate_l2", "work_units",
            "wall_seconds", "varpi_max", "gamma_obs")
CSV_HEADER = ",".join(_COLUMNS)

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


# what a field takes follows from its default: an int field takes an int but
# not a bool, a float field any finite number, and a null default a string
_TAKES = {int: ((int,), "an integer"), float: ((int, float), "a finite number"),
          str: ((str,), "a string"), type(None): ((str, type(None)), "a string or null")}
_CHOICES = {"problem.dim": (2, 3), "problem.potential": POTENTIALS, "study": STUDIES,
            "reference": REFERENCES, "format": FORMATS}
_AT_LEAST = {"problem.zeta": 0, "mesh.divisions_per_axis": 1, "mesh.n_levels": 1,
             "mesh.coarse_space_level": 0, "algorithm.m": 1, "algorithm.p": 1,
             "algorithm.pre_smooth": 0, "algorithm.post_smooth": 0,
             "algorithm.max_scf_iter": 1, "algorithm.varpi": 1,
             "reference_extra_refinements": 1}
_POSITIVE = ("algorithm.tol_lambda", "algorithm.tol_u", "reference_tol")


def _check_fields(obj, path=""):
    """Type, choices and bounds of every field, reported by its dotted path."""
    for f in fields(obj):
        value, where = getattr(obj, f.name), path + f.name
        if f.default is MISSING:      # a section
            _check_fields(value, where + ".")
            continue
        takes, expected = _TAKES[type(f.default)]
        if (isinstance(value, bool) or not isinstance(value, takes)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise ConfigError(where, f"must be {expected}, got {value!r}")
        if where in _CHOICES and value not in _CHOICES[where]:
            raise ConfigError(where, f"must be one of {_CHOICES[where]}")
        if where in _AT_LEAST and value < _AT_LEAST[where]:
            raise ConfigError(where, f"must be >= {_AT_LEAST[where]}")
        if where in _POSITIVE and value <= 0:
            raise ConfigError(where, "must be positive")


def validate_config(cfg: ExperimentConfig):
    _check_fields(cfg)
    m, a = cfg.mesh, cfg.algorithm
    if cfg.problem.sigma != 1:
        # the frozen nonlinearity u^(2 sigma) needs a rule of degree
        # 2 sigma + 2; the built-in rules stop at degree 4
        raise ConfigError("problem.sigma", "only sigma = 1 is supported")
    # the first nonlinear solve runs on the first level (FMG studies) or the
    # finest one (single-solve); with fewer than 2 cells per axis it has no
    # interior vertex and the eigensolver has nothing to work on
    solve_refinements = m.coarse_space_level + (
        m.n_levels - 1 if cfg.study == "single-solve" else 0)
    if m.divisions_per_axis * 2 ** solve_refinements < 2:
        raise ConfigError("mesh.divisions_per_axis",
                          "the first solve level has no interior vertex; use >= 2")
    if a.pre_smooth + a.post_smooth < 1:
        # the coarse correction alone leaves the fine-level error in place,
        # so every level would repeat the first level's eigenpair
        raise ConfigError("algorithm.post_smooth", "pre_smooth + post_smooth must be >= 1")
    if cfg.reference == "file" and not cfg.reference_path:
        raise ConfigError("reference_path", "required when reference is 'file'")


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


def fmg_params_from(cfg: ExperimentConfig) -> FmgParams:
    a = cfg.algorithm
    return FmgParams(
        m=a.m, p=a.p, pre_smooth=a.pre_smooth, post_smooth=a.post_smooth,
        varpi=a.varpi,
        scf=ScfSettings(tol_lambda=a.tol_lambda, tol_u=a.tol_u,
                        max_iter=a.max_scf_iter),
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
    the matrices needed to evaluate errors there and the SCF history of the
    solve (one ScfSweep per sweep)."""

    hierarchy: object
    level: int
    space: LevelSpace
    lam: float
    coefficients: np.ndarray
    history: list

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


def solve_reference(hierarchy_full, spec, ref_tol=1e-12, warm=None, warm_level=None,
                    space=None):
    """Direct SCF solve on the finest level of `hierarchy_full`, warm-started
    from a coarser iterate when one is supplied.  ``space`` is that level's
    LevelSpace when it is already assembled; it gains the transfer chain."""
    ref_level = hierarchy_full.n_levels - 1
    prols = [hierarchy_full.interior_prolongation(j) for j in range(ref_level)]
    if space is None:
        ref_space = LevelSpace.build(hierarchy_full.levels[ref_level], spec,
                                     prolongations=prols)
    else:
        ref_space = replace(space, prolongations=prols)
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
                              coefficients=ref.pair.u.coefficients, history=ref.history)


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
        res = scf_solve(space, spec, fmg_params_from(cfg).scf, work=work)
        row = LevelRow(level=n, n_elements=run_h.levels[k].n_cells,
                       n_dofs=run_h.levels[k].n_interior, lam=res.pair.lam,
                       work_units=work.work_units,
                       wall_seconds=time.perf_counter() - t0,
                       varpi_max=float(res.iterations))
        meta["converged"] = res.converged
        meta["scf_history"] = [asdict(sweep) for sweep in res.history]
        report = ErrorReport(rows=[row], meta=meta)
        return _maybe_emit(report, cfg)

    ladder = full_multigrid(run_h, spec, fmg_params_from(cfg))
    traces = ladder.traces
    # the contraction study's same-level reference solves reuse the ladder's
    # assembled levels; no other study keeps them alive
    level_spaces = ladder.level_spaces if cfg.study == "contraction" else None
    del ladder

    meta["augmented_converged"] = [[r.converged for r in t.records] for t in traces]
    rows = [LevelRow(level=t.level_index + 1, n_elements=t.n_elements, n_dofs=t.n_dofs,
                     lam=t.lam, work_units=t.work_units, wall_seconds=t.wall_seconds,
                     varpi_max=t.varpi_max)
            for t in traces]
    # the linear-complexity claim: work per unknown levels off, and the whole
    # ladder costs a bounded multiple of its finest level
    meta["work_per_dof"] = [r.work_units / r.n_dofs for r in rows]
    meta["work_total_over_finest"] = sum(r.work_units for r in rows) / rows[-1].work_units

    if cfg.study == "convergence":
        if cfg.reference == "extra-level":
            reference = solve_reference(hierarchy_full, spec, cfg.reference_tol,
                                        warm=traces[-1].coefficients, warm_level=n - 1)
            meta["reference_lambda"] = reference.lam
            meta["reference_scf_history"] = [asdict(sweep) for sweep in reference.history]
            for k, (row, t) in enumerate(zip(rows, traces)):
                row.err_lambda, row.err_a, row.err_l2 = reference.errors(k, t.lam, t.coefficients)
        else:
            ref_data = _load_reference_file(cfg.reference_path)
            meta["reference_lambda"] = ref_data["lambda"]
            for row, t in zip(rows, traces):
                row.err_lambda = abs(t.lam - ref_data["lambda"])
        _fill_rates(rows)
        meta["fitted_rates"] = {name: fitted_rate([getattr(r, name) for r in rows], 2)
                                for name in ("err_lambda", "err_a", "err_l2")}
    elif cfg.study == "contraction":
        # each correction's energy-error contraction against the same level's
        # reference solve, warm-started from the ladder's first level and then
        # from the reference below
        warm = traces[0].coefficients
        for k, (row, t) in enumerate(zip(rows, traces)):
            ref = solve_reference(run_h.truncated(k + 1), spec, cfg.reference_tol,
                                  warm=warm, warm_level=max(k - 1, 0),
                                  space=level_spaces[k])
            warm = ref.coefficients
            errs = [ref.errors(k, t.lam, v)[1] for v in t.iterates]
            row.err_lambda = abs(t.lam - ref.lam)
            if t.records:
                row.err_a = errs[-1]
            row.gamma_obs = max((after / before for before, after in zip(errs, errs[1:])
                                 if before != 0.0), default=np.nan)
        _fill_rates(rows)
        # the V-cycle on the pure diffusion problem, on meshes of the run's sizes
        a = cfg.algorithm
        thetas = measure_mg_contraction(
            cfg.mesh.divisions_per_axis * 2 ** cfg.mesh.coarse_space_level, n,
            pre=a.pre_smooth, post=a.post_smooth, dim=cfg.problem.dim)
        meta["vcycle_theta"] = list(thetas.values())

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


def _strict_json(value):
    """JSON has no NaN or infinity: non-finite floats become null."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_to_string(report: ErrorReport, fmt="csv"):
    rows = list(zip(*(report.column(name) for name in _COLUMNS)))
    if fmt == "csv":
        lines = [CSV_HEADER] + [",".join(_fmt(v) for v in vals) for vals in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        records = [{name: int(v) if isinstance(v, (int, np.integer)) else float(_fmt(v))
                    for name, v in zip(_COLUMNS, vals)} for vals in rows]
        return json.dumps(_strict_json({"rows": records, "meta": report.meta}),
                          indent=2, allow_nan=False) + "\n"
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
