"""Sparse kernels and the geometric multigrid solver for the SPD auxiliary
problem, instrumented with machine-independent work counters (one unit per
traversed stored nonzero or generated local entry)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError

__all__ = [
    "WorkReport",
    "MgContext",
    "counted_matvec",
    "cg_smooth",
    "v_cycle",
    "mg_solve",
    "mg_solve_to_tol",
    "galerkin_chain",
]


@dataclass
class WorkReport:
    """Counters for the linear-complexity bookkeeping.

    ``work_units`` is the single work tally; every traversal of a stored
    nonzero (matvec, transfer, triple product, factor application) and
    every generated local assembly entry adds to it.  The nonlinear matrix
    Mnl generates only the (d+1)(d+2)/2 upper entries of each cell's
    symmetric local matrix, so on n cells it adds 6n in 2D and 10n in 3D.
    K, M and the potential W visit no cell: each adds one unit per stored
    entry.  A LevelSpace's potential W is counted by the solve that first
    needs L = K + W.  The load pass of a correction's right side adds two
    units per stored entry of W for W u, one for the transient W's
    assembly and one for the product with it, and for zeta u^3 d+1 local
    entries per cell,
    3n in 2D and 4n in 3D.  An augmented space assembles nothing when it
    is built: it adds its border matvecs, one unit per unique moment entry
    of every fine cell, 20n in 2D and 35n in 3D, and with the potential one
    unit per s3 and s2 moment entry it contracts, (d+1)^3 + (d+1)^2 per
    coarse cell; each of its nonlinear matrices adds its coarse assembly
    and one unit per moment entry it contracts, (d+1)^3 + (d+1)^2 + (d+1)
    + 1 per coarse cell.  Each dense eigensolve of an augmented pencil
    adds the pencil's entries, A.size + M.size, once, as the LAPACK solve
    it replaced did; its LOBPCG steps (two triangular solves with a
    Cholesky factor and two dense products per step) add nothing, and
    neither does a factor: the correction's first pencil, V_H's mass
    (once per space) or a refactor after a stalled step.  Criterion 7
    (work per dof over the last three levels) passes only while they go
    uncounted: counting about 3 A.size per step spreads it to 2.19,
    against its bound of 1.5.  The tally understates the dense solves.  A
    mesh level's multigrid context counts its Galerkin chain once, when it
    is built; each SCF sweep's in-place update of it to the sweep's pencil
    adds one Mnl matvec, one restriction per coarser level and the stored
    entries of the coarse matrix it refactors.  A one-level context is
    not refactored per sweep: it adds the pencil's stored entries only
    when a stalled LOBPCG step refactors it.  The remaining fields count
    events.
    """

    work_units: int = 0
    assemblies: int = 0
    coarse_solves: int = 0
    scf_iterations: int = 0
    cg_breakdowns: int = 0

    def add(self, n):
        self.work_units += int(n)

    def count_assembly(self, entries):
        self.work_units += int(entries)
        self.assemblies += 1


def counted_matvec(A, x, work=None):
    if work is not None:
        work.add(A.nnz if sp.issparse(A) else A.size)
    return A @ x


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
    directly through a cached factorization.  The factor may lag level 0's
    matrix: a one-level context keeps it while its matrix changes (see
    eigsolve.LevelSpace.multigrid)."""

    matrices: list
    prolongations: list
    pre_steps: int = 3
    post_steps: int = 3
    work: WorkReport = field(default_factory=WorkReport)
    _coarse_lu: object = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.matrices) < 1:
            raise ValueError("need at least one level")
        if len(self.prolongations) != len(self.matrices) - 1:
            raise ValueError("need one prolongation per adjacent level pair")

    @property
    def n_levels(self):
        return len(self.matrices)

    def refactor_coarse(self):
        """Drop the coarse factorization after level 0's matrix changed; the
        next coarse solve factors it again.  Counts its stored entries."""
        self._coarse_lu = None
        self.work.add(self.matrices[0].nnz)

    @property
    def factored(self):
        """Whether a coarse factor is held; the next coarse solve makes one
        otherwise."""
        return self._coarse_lu is not None

    def coarse_solve(self, b):
        if self._coarse_lu is None:
            self._coarse_lu = spla.splu(sp.csc_matrix(self.matrices[0]))
        self.work.coarse_solves += 1
        self.work.add(self._coarse_lu.L.nnz + self._coarse_lu.U.nnz)
        return self._coarse_lu.solve(b)


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


def mg_solve_to_tol(ctx: MgContext, level, b, x0, rel_tol, max_cycles=60):
    """V-cycles until ||b - Ax|| <= rel_tol ||b||; a zero b returns zero.
    Raises SolverError if max_cycles cycles do not get there."""
    A = ctx.matrices[level]
    x = np.array(x0, dtype=float)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(x)
    for _ in range(max_cycles):
        r = b - counted_matvec(A, x, ctx.work)
        if np.linalg.norm(r) <= rel_tol * bnorm:
            return x
        x = v_cycle(ctx, level, b, x, r)
    r = np.linalg.norm(b - A @ x)
    if r <= rel_tol * bnorm:
        return x
    raise SolverError(
        f"multigrid stalled at relative residual {r / bnorm:.3e} (target {rel_tol:.1e})",
        residual=r)
