"""Sparse kernels and the geometric multigrid solver for the SPD auxiliary
problem, instrumented with machine-independent work counters (one unit per
traversed stored nonzero or generated local entry)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

_EPS = np.finfo(float).eps

__all__ = [
    "WorkReport",
    "MgContext",
    "counted_matvec",
    "direct_solve",
    "cg_smooth",
    "v_cycle",
    "mg_solve",
    "mg_solve_to_tol",
    "galerkin_chain",
]


@dataclass
class WorkReport:
    """Counters for the linear-complexity bookkeeping.

    ``matvec_nonzeros`` is the single work-unit tally; every traversal of a
    stored nonzero (matvec, transfer, triple product, factor application)
    and every generated local assembly entry adds to it.  The remaining
    fields count events.
    """

    matvec_nonzeros: int = 0
    assemblies: int = 0
    coarse_solves: int = 0
    scf_iterations: int = 0
    cg_breakdowns: int = 0

    def add(self, n):
        self.matvec_nonzeros += int(n)

    def count_assembly(self, entries):
        self.matvec_nonzeros += int(entries)
        self.assemblies += 1

    @property
    def work_units(self):
        return self.matvec_nonzeros

    def snapshot(self):
        return self.matvec_nonzeros


def counted_matvec(A, x, work=None):
    if work is not None:
        work.add(A.nnz if sp.issparse(A) else A.size)
    return A @ x


def direct_solve(A, b, work=None):
    """Sparse factorization solve with one refinement step; the residual
    contract ||Ax - b|| <= 1e-12 ||b|| is checked and enforced."""
    b = np.asarray(b, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b)
    lu = spla.splu(sp.csc_matrix(A))
    x = lu.solve(b)
    r = b - A @ x
    if np.linalg.norm(r) > 1e-13 * bnorm:
        x = x + lu.solve(r)
        r = b - A @ x
    if work is not None:
        work.add(lu.L.nnz + lu.U.nnz + 2 * A.nnz)
    res = np.linalg.norm(r)
    if res > 1e-12 * bnorm:
        raise SolverError(
            f"direct solve residual {res:.3e} above 1e-12 * ||b|| = {1e-12 * bnorm:.3e}",
            residual=res)
    return x


def cg_smooth(A, b, x0, steps, work=None, r0=None):
    """`steps` plain conjugate gradient steps from x0; returns the iterate
    and its recursively updated residual.

    x0=None starts from zero, so the first residual is b itself; a caller
    that already holds r0 = b - A x0 passes it to skip that matvec.  The
    A-norm error is nonincreasing step by step.  On breakdown (zero
    curvature) the current iterate is returned and the report flagged.
    """
    if x0 is None:
        x = np.zeros_like(b, dtype=float)
        r = np.array(b, dtype=float)
    else:
        x = np.array(x0, dtype=float)
        r = np.array(r0, dtype=float) if r0 is not None else b - counted_matvec(A, x, work)
    rr = float(r @ r)
    if rr == 0.0:
        return x, r
    p = r.copy()
    for _ in range(steps):
        Ap = counted_matvec(A, p, work)
        pAp = float(p @ Ap)
        if pAp <= 0.0:
            if work is not None:
                work.cg_breakdowns += 1
            return x, r
        alpha = rr / pAp
        x += alpha * p
        Ap *= alpha
        r -= Ap
        rr_new = float(r @ r)
        if rr_new == 0.0:
            return x, r
        p *= rr_new / rr
        p += r
        rr = rr_new
    return x, r


@dataclass
class MgContext:
    """Per-level SPD matrices, interior transfer operators, smoother settings,
    and the shared work counter.  Level 0 is the coarsest and is solved
    directly through a cached factorization."""

    matrices: list
    prolongations: list
    pre_steps: int = 3
    post_steps: int = 3
    work: WorkReport = field(default_factory=WorkReport)
    _coarse_lu: object = field(default=None, repr=False)
    _inf_norms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if len(self.matrices) < 1:
            raise ValueError("need at least one level")
        if len(self.prolongations) != len(self.matrices) - 1:
            raise ValueError("need one prolongation per adjacent level pair")

    @property
    def n_levels(self):
        return len(self.matrices)

    def coarse_solve(self, b):
        if self._coarse_lu is None:
            self._coarse_lu = spla.splu(sp.csc_matrix(self.matrices[0]))
        self.work.coarse_solves += 1
        self.work.add(self._coarse_lu.L.nnz + self._coarse_lu.U.nnz)
        return self._coarse_lu.solve(b)

    def inf_norm(self, level):
        """||A||_inf of a level matrix, computed on first use."""
        if level not in self._inf_norms:
            A = self.matrices[level]
            self._inf_norms[level] = float(abs(A).sum(axis=1).max())
            self.work.add(A.nnz)
        return self._inf_norms[level]


def galerkin_chain(A_fine, prolongations, work=None):
    """Coarsen A recursively with P' A P down the transfer chain; returns the
    per-level list coarsest first."""
    mats = [A_fine.tocsr()]
    for P in reversed(prolongations):
        AP = (mats[0] @ P).tocsc()
        coarse = (P.T @ AP).tocsr()
        coarse = ((coarse + coarse.T) * 0.5).tocsr()
        if work is not None:
            work.add(mats[0].nnz + AP.nnz + coarse.nnz)
        mats.insert(0, coarse)
    return mats


def v_cycle(ctx: MgContext, level, b, x0=None, r0=None):
    """One V-cycle on `level`: pre-smooth, restrict the smoother's residual,
    recurse from a zero guess, prolongate-correct, post-smooth.  x0=None is
    a zero initial guess; r0, when given, is b - A x0."""
    if level == 0:
        return ctx.coarse_solve(b)
    A = ctx.matrices[level]
    P = ctx.prolongations[level - 1]
    x, r = cg_smooth(A, b, x0, ctx.pre_steps, ctx.work, r0)
    rc = P.T @ r
    ctx.work.add(P.nnz)
    x += P @ v_cycle(ctx, level - 1, rc)
    ctx.work.add(P.nnz)
    return cg_smooth(A, b, x, ctx.post_steps, ctx.work)[0]


def mg_solve(ctx: MgContext, level, b, x0, m):
    """m V-cycles starting from x0."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.array(x0, dtype=float)
    for _ in range(m):
        x = v_cycle(ctx, level, b, x)
    return x


def mg_solve_to_tol(ctx: MgContext, level, b, x0, rel_tol, max_cycles=60, strict=True):
    """V-cycles until ||b - Ax|| <= rel_tol ||b||; a zero b returns zero.

    With strict=False a stagnating iteration returns its best iterate instead
    of raising; callers embedding this in an outer iteration (e.g. inexact
    inverse iteration) recover the lost accuracy there.  Stagnation is four
    cycles that fail to halve the residual, or one such cycle once the
    residual is inside its rounding floor eps ||A||_inf ||x||.
    """
    A = ctx.matrices[level]
    x = np.array(x0, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(x)
    history = []
    for _ in range(max_cycles):
        r = b - counted_matvec(A, x, ctx.work)
        history.append(np.linalg.norm(r))
        if history[-1] <= rel_tol * bnorm:
            return x
        if not strict and len(history) >= 2:
            if len(history) >= 5 and history[-1] > 0.5 * history[-5]:
                return x
            if (history[-1] > 0.5 * history[-2]
                    and history[-1] <= _EPS * ctx.inf_norm(level) * np.linalg.norm(x)):
                return x
        x = v_cycle(ctx, level, b, x, r)
    r = np.linalg.norm(b - A @ x)
    if r <= rel_tol * bnorm or not strict:
        return x
    raise SolverError(
        f"multigrid stalled at relative residual {r / bnorm:.3e} (target {rel_tol:.1e})",
        residual=r)
