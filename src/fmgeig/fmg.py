"""The two driver algorithms: one correction step (multigrid update of the
auxiliary problem followed by a small eigensolve on the augmented space) and
the full multigrid sweep over the level hierarchy: a nonlinear solve on the
first level, then linear multigrid solves and augmented-space eigensolves on
the finer ones.

Every mesh assembles its stiffness K and mass M once.  The potential W
and the frozen nonlinearity are assembled only where a solve needs them:
on the first level, for its SCF, and on the correction space V_H, whose
L = K + W and nonlinear matrices the augmented pencils read.  A correction
level holds only K and M: the right side of its auxiliary problem is one
load pass, and the potential part of its border comes from the moments of
the multigrid update."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .eigsolve import (
    EigenPair,
    LevelSpace,
    ScfSettings,
    build_augmented_space,
    apply_sign_convention,
    scf_solve,
)
from .fem import FeFunction, ProblemSpec, nonlinear_load
from .linalg import MgContext, WorkReport, counted_matvec, mg_solve

__all__ = [
    "FmgParams",
    "CorrectionRecord",
    "LevelTrace",
    "FmgResult",
    "FmgWorkspace",
    "build_workspace",
    "one_correction_step",
    "full_multigrid",
]


@dataclass
class FmgParams:
    """Algorithm knobs: m multigrid iterations per correction, p corrections
    per level, smoothing steps, the augmented-solve sweep cap, and the
    nonlinear stopping rules for the first-level solve."""

    m: int = 1
    p: int = 1
    pre_smooth: int = 3
    post_smooth: int = 3
    varpi: int = 3
    scf: ScfSettings = field(default_factory=ScfSettings)

    def __post_init__(self):
        if self.m < 1 or self.p < 1:
            raise ValueError("m and p must be >= 1")
        if self.varpi < 1:
            raise ValueError("varpi must be >= 1")


@dataclass
class CorrectionRecord:
    level_index: int
    lambda_before: float
    lambda_after: float
    varpi: int
    work_units: int
    converged: bool          # False: the augmented solve stopped at the varpi cap


@dataclass
class LevelTrace:
    level_index: int
    n_elements: int
    n_dofs: int
    lam: float
    records: list
    work_units: int
    wall_seconds: float
    iterates: list           # the level's start, then one entry per correction

    @property
    def coefficients(self):
        return self.iterates[-1]

    @property
    def varpi_max(self):
        if not self.records:
            return np.nan
        return max(r.varpi for r in self.records)


@dataclass
class FmgResult:
    pair: EigenPair
    traces: list
    work: WorkReport
    level_spaces: list       # the workspace's LevelSpace per level (K and M; L on level 0)
    level0_scf_history: list  # one ScfSweep per sweep of level 0's SCF

    @property
    def lambdas(self):
        return [t.lam for t in self.traces]


class FmgWorkspace:
    """Per-level stiffness and mass matrices, the correction space V_H
    (``level_spaces[0]``, or built once more on a strictly coarser mesh as
    part of level 0's setup), the stiffness multigrid context, and the
    shared work counter for one full-multigrid run."""

    def __init__(self, hierarchy, spec: ProblemSpec, params: FmgParams, work=None):
        self.hierarchy = hierarchy
        self.spec = spec
        self.params = params
        self.work = work if work is not None else WorkReport()
        self.level_spaces = []
        self.setup_work = []
        for mesh in hierarchy.levels:
            before = self.work.work_units
            self.level_spaces.append(LevelSpace.build(mesh, spec, work=self.work))
            self.setup_work.append(self.work.work_units - before)
        self.coarse_space = self.level_spaces[0]
        if hierarchy.first:
            before = self.work.work_units
            self.coarse_space = LevelSpace.build(hierarchy.coarse, spec, work=self.work)
            self.setup_work[0] += self.work.work_units - before
        self.mg = MgContext(
            matrices=[ls.stiffness for ls in self.level_spaces],
            prolongations=[hierarchy.interior_prolongation(k)
                           for k in range(hierarchy.n_levels - 1)],
            pre_steps=params.pre_smooth,
            post_steps=params.post_smooth,
            work=self.work,
        )


def build_workspace(hierarchy, spec, params=None, work=None) -> FmgWorkspace:
    return FmgWorkspace(hierarchy, spec, params or FmgParams(), work)


def _aux_rhs(ws: FmgWorkspace, level, lam, u):
    """Dual vector of (lam u - W u - zeta u^3, v): the right side of the
    auxiliary problem, whose bilinear form is the Laplacian's.  One mass
    matvec and one streamed load pass; no potential or nonlinear matrix."""
    ops = ws.level_spaces[level]
    load = nonlinear_load(ops.mesh, ws.spec, u, ws.work)
    return lam * counted_matvec(ops.mass, u, ws.work) - load


def one_correction_step(ws: FmgWorkspace, level, lam, u):
    """One correction: m V-cycles on the auxiliary problem from the current
    iterate, then a capped nonlinear solve on coarse space + span of the
    multigrid update.  Returns (lambda, coefficients, CorrectionRecord)."""
    if level < 1 or level >= ws.hierarchy.n_levels:
        raise ValueError("corrections run on levels 1 .. n-1")
    params = ws.params
    ops = ws.level_spaces[level]
    start = ws.work.work_units

    rhs = _aux_rhs(ws, level, lam, u)
    u_tilde = mg_solve(ws.mg, level, rhs, u, params.m)

    aug = build_augmented_space(ws.coarse_space, ws.hierarchy.coarse_to_level_interior(level),
                                ops, u_tilde, work=ws.work)
    aug_settings = replace(params.scf, max_iter=params.varpi)
    res = scf_solve(aug, ws.spec, aug_settings, initial=aug.initial_coeffs, work=ws.work)

    u_new = res.pair.u.coefficients
    nrm = np.sqrt(u_new @ counted_matvec(ops.mass, u_new, ws.work))
    u_new = apply_sign_convention(u_new / nrm)
    record = CorrectionRecord(
        level_index=level,
        lambda_before=float(lam),
        lambda_after=float(res.pair.lam),
        varpi=res.iterations,
        work_units=ws.work.work_units - start,
        converged=res.converged,
    )
    return float(res.pair.lam), u_new, record


def full_multigrid(hierarchy, spec: ProblemSpec, params: FmgParams | None = None,
                   work=None) -> FmgResult:
    """Coarse nonlinear solve, then march the levels: prolongate the previous
    pair as the initial value and apply p correction steps per level.  Each
    LevelTrace keeps the level's iterates, its wall_seconds and its
    work_units (its share of the workspace setup included)."""
    params = params or FmgParams()
    ws = build_workspace(hierarchy, spec, params, work)
    traces = []

    for k, mesh in enumerate(hierarchy.levels):
        t0 = time.perf_counter()
        mark = ws.work.work_units
        records = []
        if k == 0:
            res = scf_solve(ws.level_spaces[0], spec, params.scf, work=ws.work)
            lam, u, history = res.pair.lam, res.pair.u.coefficients, res.history
        else:
            u = counted_matvec(ws.hierarchy.interior_prolongation(k - 1), u, ws.work)
        iterates = [u]
        for _ in range(params.p if k else 0):
            lam, u, rec = one_correction_step(ws, k, lam, u)
            records.append(rec)
            iterates.append(u)
        traces.append(LevelTrace(
            level_index=k,
            n_elements=mesh.n_cells,
            n_dofs=mesh.n_interior,
            lam=lam,
            records=records,
            work_units=ws.work.work_units - mark + ws.setup_work[k],
            wall_seconds=time.perf_counter() - t0,
            iterates=iterates,
        ))

    pair = EigenPair(lam=float(lam), u=FeFunction(hierarchy.levels[-1].level_index, u))
    return FmgResult(pair=pair, traces=traces, work=ws.work, level_spaces=ws.level_spaces,
                     level0_scf_history=history)
