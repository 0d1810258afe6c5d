"""Nonlinear eigenvalue solvers.

The self-consistent field (SCF) iteration freezes the nonlinearity at the
current iterate, solves the linearized generalized eigenproblem for its
smallest pair, and repeats; on a mesh level its steps are Anderson-mixed
under an energy line search.  The augmented space is the correction
space V_H, a LevelSpace, bordered by the span of one fine function t: a
small dense pencil, which LAPACK solves.  Nothing is assembled for it:
its V_H blocks are V_H's own matrices, and its borders are the fine
matvecs K_h t and M_h t plus the potential's part.  That part and the
t-dependent parts of its nonlinear matrix contract the moments of t
against the coarse barycentrics, integrated once per space.  A LevelSpace
assembles K and M when built, and the potential W only when a solve first
needs its linear part L = K + W.  On a mesh level the inner eigensolve is
LOBPCG, with no shifts, preconditioned by one V-cycle of the level's own
multigrid context: the Galerkin chain of the linear part L, built once,
whose top and coarse diagonals each sweep updates in place to the pencil
L + zeta Mnl (a level without coarser levels keeps a sparse LU solve of
the pencil).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import SolverError
from .fem import (
    FeFunction,
    ProblemSpec,
    SpanMoments,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    span_moments,
    span_potential,
)
from .linalg import MgContext, WorkReport, counted_matvec, galerkin_chain, v_cycle

__all__ = [
    "ScfSettings",
    "EigenPair",
    "ScfSweep",
    "ScfResult",
    "LevelSpace",
    "AugmentedSpace",
    "smallest_eigpair",
    "scf_solve",
    "build_augmented_space",
    "apply_sign_convention",
]

_EPS = np.finfo(float).eps

# inexact SCF with iterative inner solves: a sweep's eigensolve tolerance
# follows the previous sweep's step du as min(FORCING_CAP, FORCING * du),
# never below the full tolerance (the forcing terms of inexact Newton
# methods, Eisenstat & Walker, SISC 17, 1996)
FORCING = 1e-3
FORCING_CAP = 1e-4

# full-level SCFs mix each step with the last ANDERSON_DEPTH differences of
# iterates and fixed-point residuals (Anderson mixing: Pulay, Chem. Phys.
# Lett. 73, 1980; Walker & Ni, SINUM 49, 2011)
ANDERSON_DEPTH = 5

# an augmenting function within this L2 distance of V_H adds no span
SPAN_TOL = 1e-12


@dataclass
class ScfSettings:
    """Stopping rules for the nonlinear iteration; max_iter defaults to 100
    on a full level and is capped at 3 by the caller on augmented spaces."""

    tol_lambda: float = 1e-10
    tol_u: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.tol_lambda <= 0 or self.tol_u <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class EigenPair:
    lam: float
    u: FeFunction


@dataclass
class ScfSweep:
    """One SCF sweep: the eigenvalue change, the M-norm step, the M-norm
    fixed-point residual ||x - w|| the stopping rule and the forcing read,
    and the tolerance its inner eigensolve ran at."""

    delta_lambda: float
    delta_u: float
    residual: float
    eig_tol: float


@dataclass
class ScfResult:
    pair: EigenPair
    converged: bool
    iterations: int
    history: list = field(default_factory=list)    # one ScfSweep per sweep


def apply_sign_convention(x):
    """Flip so the coefficient of largest magnitude is positive."""
    i = int(np.argmax(np.abs(x)))
    return -x if x[i] < 0 else x


def smallest_eigpair(A, M, tol=1e-10, max_iter=200, x0=None, mg=None, work=None):
    """Algebraically smallest eigenpair of A x = lambda M x (A symmetric,
    M SPD), returned as (lambda, x) with x' M x = 1 and the largest-magnitude
    entry of x positive.

    Dense pencils (the augmented spaces) are solved by LAPACK through
    scipy.linalg.eigh, counted as A.size + M.size work units; the remaining
    arguments do not apply to them.  Sparse pencils (A SPD) run LOBPCG with
    block size 1 (Knyazev, SISC 23, 2001) from x0 (default all ones),
    counting every product in `work`.  Each step takes the smallest Ritz
    pair of span{x, T r, p}, with r = A x - rho M x, p the previous step and
    T one V-cycle of `mg`, a multigrid context on A (by default a one-level
    one, whose V-cycle is a sparse LU solve).  It stops once
    ||r|| <= tol ||A x||, or once r fails to halve inside its rounding floor
    eps ||A||_inf ||x||.
    """
    if M.shape != A.shape:
        raise ValueError("pencil matrices must have equal shape")
    if not sp.issparse(A):
        if work is not None:
            work.add(A.size + M.size)
        lam, vecs = scipy.linalg.eigh(A, M, subset_by_index=[0, 0])
        return float(lam[0]), apply_sign_convention(vecs[:, 0])
    if mg is None:
        mg = MgContext([A.tocsr()], [], work=work if work is not None else WorkReport())
    top = mg.n_levels - 1

    x = np.array(x0, dtype=float) if x0 is not None else np.ones(A.shape[0])
    Mx = counted_matvec(M, x, work)
    if not x @ Mx > 0.0:
        x = np.ones(A.shape[0])
        Mx = counted_matvec(M, x, work)
    nrm = np.sqrt(x @ Mx)
    x, Mx = x / nrm, Mx / nrm
    Ax = counted_matvec(A, x, work)
    rho = float(x @ Ax)
    basis = np.empty((3, 3, A.shape[0]))      # basis[:, j] = v, A v, M v for v = x, w, p
    have_p = False
    prev_res = floor = np.inf
    best_res = np.inf
    for _ in range(max_iter):
        r = Ax - rho * Mx
        res = float(np.linalg.norm(r))
        axn = max(float(np.linalg.norm(Ax)), 1e-300)
        best_res = min(best_res, res / axn)
        if res <= tol * axn:
            return rho, apply_sign_convention(x)
        if res > 0.5 * prev_res:
            if floor == np.inf:
                # ||A||_inf from the stored entries: an SPD pencil has no
                # empty row, so every reduceat segment is one row
                floor = _EPS * float(np.add.reduceat(np.abs(A.data), A.indptr[:-1]).max())
                if work is not None:
                    work.add(A.nnz)
            if res <= floor * np.linalg.norm(x):
                return rho, apply_sign_convention(x)
        prev_res = res
        w = v_cycle(mg, top, r)
        Mw = counted_matvec(M, w, work)
        nrm = np.sqrt(max(w @ Mw, 0.0))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise SolverError("LOBPCG preconditioner returned a null vector", residual=best_res)
        basis[:, 0] = x, Ax, Mx
        basis[:, 1] = w / nrm, counted_matvec(A, w, work) / nrm, Mw / nrm
        # Rayleigh-Ritz on span{x, w, p}.  A Gram matrix that has lost
        # definiteness drops p, which restarts the recurrence; if even
        # {x, w} is degenerate, T r is parallel to x, which for an SPD T
        # leaves r = 0 up to rounding (x' r = 0): x is the eigenvector
        for k in (3, 2) if have_p else (2,):
            S, AS, MS = basis[0, :k], basis[1, :k], basis[2, :k]
            try:
                c = scipy.linalg.eigh(S @ AS.T, S @ MS.T, subset_by_index=[0, 0])[1][:, 0]
                break
            except np.linalg.LinAlgError:
                continue
        else:
            return rho, apply_sign_convention(x)
        step = np.tensordot(c[1:k], basis[:, 1:k], axes=(0, 1))
        x, Ax, Mx = c[0] * basis[:, 0] + step
        nrm = np.sqrt(x @ Mx)
        x, Ax, Mx = x / nrm, Ax / nrm, Mx / nrm
        rho = float(x @ Ax)
        nrm = np.sqrt(max(step[0] @ step[2], 0.0))
        have_p = nrm > 0.0
        if have_p:
            basis[:, 2] = step / nrm
    raise SolverError(
        f"LOBPCG did not reach tol={tol:.1e} in {max_iter} iterations "
        f"(best relative residual {best_res:.3e})", residual=best_res)


@dataclass
class LevelSpace:
    """Interior-dof matrices of one mesh level plus solver plumbing: the
    stiffness K and the mass M, assembled when built, and the linear part
    L = K + W, assembled on first use (:meth:`linear`)."""

    mesh: object
    spec: ProblemSpec
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    prolongations: list | None = None   # interior chain below this level, for MG
    # caches, never copied by dataclasses.replace: L = K + W, the multigrid
    # context and, per coarse level, its diagonal slots, diag(L_k) and P_k 1
    _linear: sp.csr_matrix = field(default=None, init=False, repr=False)
    _mg: MgContext = field(default=None, init=False, repr=False)
    _lumping: list = field(default=None, init=False, repr=False)

    @classmethod
    def build(cls, mesh, spec, work=None, prolongations=None):
        return cls(mesh=mesh, spec=spec, stiffness=assemble_stiffness(mesh, work=work),
                   mass=assemble_mass(mesh, work=work), prolongations=prolongations)

    @property
    def n_dofs(self):
        return self.mass.shape[0]

    def linear(self, work=None):
        """L = K + W, kept from its first call, which assembles W and counts
        it in `work`; K itself when W = 0."""
        if self._linear is None:
            self._linear = self.stiffness
            if self.spec.potential is not None:
                W = assemble_weighted_mass(self.mesh, self.spec.potential, work=work)
                self._linear = (self.stiffness + W).tocsr()
        return self._linear

    def to_fine(self, coeffs):
        return coeffs

    def nonlinear_matrix(self, coeffs, work=None):
        w = FeFunction(self.mesh.level_index, np.asarray(coeffs, dtype=float))
        return assemble_weighted_mass(self.mesh, w, work=work)

    def multigrid(self, nonlinear=None, work=None):
        """This space's multigrid context, built on first use and kept: the
        Galerkin chain of L = K + W over the transfer chain (with no
        prolongations one level, whose V-cycle is a sparse LU solve).

        Given a sweep's nonlinear matrix Mnl the context is updated in place
        to the pencil L + zeta Mnl: its top matrix becomes the pencil, each
        coarser level's diagonal diag(L_k) + zeta d_k, and the coarse LU is
        dropped.  d is the row-sum-lumped Galerkin product of Mnl: d =
        P'(Mnl P 1) on the level below the top, d_k = P_k'(d_{k+1} * P_k 1)
        below that.  A nonnegative matrix is bounded by its row-sum
        diagonal, so each coarse matrix is at least the Galerkin P'(L +
        zeta Mnl)P, and within a factor dim + 2 of it (P1 lumping).  With
        Mnl=None the context holds L's chain again.  An update counts one
        Mnl matvec, one restriction per level and the coarse matrix's
        entries for its new LU; it forms no sparse product.
        """
        work = work if work is not None else WorkReport()
        L = self.linear(work)
        if self._mg is None:
            prols = self.prolongations or []
            mats = galerkin_chain(L, prols, work)
            self._mg = MgContext(mats, prols, work=work)
            self._lumping = []
            for A, P in zip(mats, prols):
                rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
                slots = np.flatnonzero(A.indices == rows)
                self._lumping.append((slots, A.data[slots], P @ np.ones(P.shape[1])))
        mg = self._mg
        mg.work = work
        if nonlinear is None:
            if mg.matrices[-1] is L:
                return mg
            mg.matrices[-1] = L
            for A, (slots, diag, _) in zip(mg.matrices, self._lumping):
                A.data[slots] = diag
        else:
            zeta = self.spec.zeta
            if (np.array_equal(nonlinear.indptr, L.indptr)
                    and np.array_equal(nonlinear.indices, L.indices)):
                # the level's P1 pattern on both (L = K + W fills the entries
                # K drops): add the values alone, the same sums as L + zeta Mnl
                mg.matrices[-1] = sp.csr_matrix(
                    (L.data + zeta * nonlinear.data, L.indices, L.indptr), shape=L.shape)
            else:
                mg.matrices[-1] = L + zeta * nonlinear
            d = None
            for k in reversed(range(len(self._lumping))):
                slots, diag, ones = self._lumping[k]
                v = counted_matvec(nonlinear, ones, work) if d is None else d * ones
                d = counted_matvec(mg.prolongations[k].T, v, work)
                mg.matrices[k].data[slots] = diag + zeta * d
        mg.refactor_coarse()
        return mg


@dataclass
class AugmentedSpace:
    """The correction space V_H (a LevelSpace) bordered by the span of one
    M-normalized fine function t.

    Coefficients (U, s) stand for the fine function w = B U + s t on
    ``mesh``, with B the interior map from V_H to that level; ``span`` is
    None when t lies in V_H, and the space is then V_H itself.  For nested
    P1 spaces with exact integration the V_H blocks of the stiffness, mass,
    potential and nonlinear matrices are V_H's own: W = |x|^2 and u^2 make
    every integrand a degree-4 polynomial on each cell, which the degree-4
    rules integrate exactly on both meshes.  The borders of the linear part
    are B' K_h t and t' K_h t plus the potential's, which
    :func:`fem.span_potential` contracts from the moments of t."""

    coarse: LevelSpace
    prolongation: sp.csr_matrix       # B: (fine interior dofs) x (V_H dofs)
    mesh: object                      # the level's mesh, where to_fine lands
    span: np.ndarray | None
    linear_matrix: np.ndarray
    mass: np.ndarray
    initial_coeffs: np.ndarray
    moments: SpanMoments | None       # None when span is None

    @property
    def n_dofs(self):
        return self.mass.shape[0]

    def to_fine(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        w = self.prolongation @ c[:self.coarse.n_dofs]
        return w if self.span is None else w + c[-1] * self.span

    def nonlinear_matrix(self, coeffs, work=None):
        """B' Mnl(w) B for w = u_H + s t, as a dense matrix.  It is
        quadratic in (U, s): the coarse block is
        Mnl_H(u_H) + 2 s S3.U + s^2 S2, the border S3:UU + 2 s S2.U + s^2 S1
        and the corner UU:S2 + 2 s U.S1 + s^2 S0, summed over coarse cells.
        Counts the coarse assembly and one unit per moment entry read."""
        mesh = self.coarse.mesh
        n = self.coarse.n_dofs
        c = np.asarray(coeffs, dtype=float)
        red = self.coarse.nonlinear_matrix(c[:n], work=work).toarray()
        if self.span is None:
            return red
        s3, s2, s1, s0 = self.moments
        s = c[n]
        U = np.zeros(mesh.n_vertices)
        U[mesh.interior_indices] = c[:n]
        U = U[mesh.cells]
        s3u = np.einsum("cabk,ck->cab", s3, U)
        s2u = np.einsum("cab,cb->ca", s2, U)
        block = 2 * s * s3u + s * s * s2
        border = np.einsum("cab,cb->ca", s3u, U) + 2 * s * s2u + s * s * s1
        corner = np.vdot(s2u, U) + 2 * s * np.vdot(s1, U) + s * s * s0.sum()
        # interior dof of every cell vertex; n + 1 is a dump row and column
        # for the boundary vertices, and n the row and column of t
        dof = np.full(mesh.n_vertices, n + 1)
        dof[mesh.interior_indices] = np.arange(n)
        dof = dof[mesh.cells]
        m = n + 2
        index = np.concatenate([(dof[:, :, None] * m + dof[:, None, :]).ravel(),
                                (dof * m + n).ravel(), (n * m + dof).ravel()])
        values = np.concatenate([block.ravel(), border.ravel(), border.ravel()])
        out = np.bincount(index, values, minlength=m * m).reshape(m, m)[:n + 1, :n + 1]
        out[:n, :n] += red
        out[n, n] += corner
        if work is not None:
            work.add(s3.size + s2.size + s1.size + s0.size)
        return out


def _bordered(block, border, corner):
    return np.block([[block, border[:, None]], [border[None, :], np.array([[corner]])]])


def build_augmented_space(coarse, prolongation, ops, u_tilde, work=None):
    """Border the correction space `coarse` (a LevelSpace) by the span of
    u_tilde, a function on the level of `ops` (a LevelSpace), whose mesh
    must be a uniform refinement of the correction mesh (a ValueError
    otherwise); `prolongation` is the interior map B between the two.  If
    u_tilde lies in V_H to within SPAN_TOL in the L2 norm the span is
    dropped and the space is V_H itself.  Of the fine level it reads only
    K_h and M_h; the first call assembles V_H's L = K + W, counted in
    `work`.
    """
    fine = ops.mesh
    depth = fine.level_index - coarse.mesh.level_index
    if depth < 0 or fine.n_cells != coarse.mesh.n_cells * 2 ** (fine.dim * depth):
        raise ValueError(f"level {fine.level_index} with {fine.n_cells} cells is not a "
                         f"uniform refinement of the {coarse.mesh.n_cells}-cell correction space")
    B = prolongation
    M = ops.mass
    u = np.asarray(u_tilde, dtype=float)
    bnorm = float(np.sqrt(max(u @ (M @ u), 0.0)))
    if bnorm == 0.0:
        raise SolverError("cannot augment with the zero function")
    t = u / bnorm

    # nested P1 with exact integration: B' L_h B = L_H and B' M_h B = M_H
    L_H = coarse.linear(work).toarray()
    M_H = coarse.mass.toarray()
    Mt = counted_matvec(M, t, work)
    rhs = counted_matvec(B.T, Mt, work)
    c_proj = scipy.linalg.solve(M_H, rhs, assume_a="pos")
    resid = t - B @ c_proj
    resid_b = float(np.sqrt(max(resid @ (M @ resid), 0.0)))

    if resid_b <= SPAN_TOL:
        span, initial, moments = None, c_proj, None
        L_red, M_red = L_H, M_H
    else:
        span = t
        initial = np.zeros(coarse.n_dofs + 1)
        initial[-1] = 1.0
        # B' L_h t and t' L_h t: the stiffness part from the fine matvec
        # K_h t, the potential's from the moments of t, so no W_h is needed
        moments = span_moments(coarse.mesh, fine, t, work)
        Kt = counted_matvec(ops.stiffness, t, work)
        border, corner = counted_matvec(B.T, Kt, work), t @ Kt
        if coarse.spec.potential is not None:
            W_border, W_corner = span_potential(coarse.mesh, moments, work)
            border += W_border
            corner += W_corner
        L_red = _bordered(L_H, border, corner)
        M_red = _bordered(M_H, rhs, t @ Mt)
    return AugmentedSpace(
        coarse=coarse,
        prolongation=B,
        mesh=fine,
        span=span,
        linear_matrix=L_red,
        mass=M_red,
        initial_coeffs=initial,
        moments=moments,
    )


def _b_normalize(c, M):
    nrm = np.sqrt(max(c @ (M @ c), 0.0))
    if nrm == 0.0:
        raise SolverError("cannot normalize the zero vector")
    return c / nrm


def scf_solve(space, spec: ProblemSpec, settings: ScfSettings | None = None,
              initial=None, work=None) -> ScfResult:
    """Self-consistent field iteration on a level or augmented space.

    Each sweep assembles the frozen-nonlinearity matrix at the iterate w,
    solves the linearized pencil for its smallest pair x, and takes a step
    towards x; the reported eigenvalue is the fully nonlinear Rayleigh
    quotient of the final iterate.  The step is safeguarded by the energy
    functional: a damped step w + alpha (x - w), renormalized in M, is
    halved until the energy stops rising.  On a mesh level (LevelSpace) the
    sweep first tries an Anderson-mixed step built from the fixed-point
    residual f = x - w and the last ANDERSON_DEPTH differences of iterates
    and residuals (a least-squares fit of f); it is accepted only if the
    energy does not rise, and otherwise the mixing history is cleared and
    the damped step runs.  Augmented spaces take the damped step only.

    The stopping rule reads the plain residual ||x - w||_M of the sweep,
    not the accepted (mixed or damped) step: the SCF stops once the
    eigenvalue change is below tol_lambda and the residual below tol_u on
    a sweep whose inner eigensolve ran at the full eig_tol.  On a mesh
    level the inner eigensolve is iterative (LOBPCG preconditioned by one
    V-cycle of the space's own multigrid context, which each sweep updates
    in place to its pencil, see LevelSpace.multigrid) and the SCF is
    inexact: each sweep's eigensolve tolerance is max(eig_tol,
    min(FORCING_CAP, FORCING * r)) with r the previous sweep's residual
    (FORCING_CAP before the first sweep), and a sweep that meets the
    stopping rule below the full tolerance is followed by one at eig_tol,
    with the mixing history cleared.  The dense augmented pencils are
    solved exactly, at eig_tol.  `history` holds one ScfSweep per sweep.
    Hitting max_iter returns converged=False (the augmented solves are
    capped at 3 sweeps by design); an energy that rises on three
    consecutive sweeps raises SolverError.

    zeta is the space's own (an augmented space's is its correction
    space's), which its pencil reads; a `spec` with another zeta raises
    ValueError.
    """
    settings = settings or ScfSettings()
    # mesh levels: sparse pencils, iterative inner solves, Anderson mixing
    level = isinstance(space, LevelSpace)
    M = space.mass
    L = space.linear(work) if level else space.linear_matrix
    own = space.spec if level else space.coarse.spec
    if spec.zeta != own.zeta:
        raise ValueError(f"spec has zeta={spec.zeta}; the space has zeta={own.zeta}")
    zeta = own.zeta
    # inner eigensolver tolerance: tight enough that the iterate noise stays
    # below the SCF tolerances, but above the rounding floor of the residual,
    # which grows like sqrt(n) through cancellation in A x - rho M x
    floor = 3e-14 * np.sqrt(M.shape[0])
    eig_tol = float(min(1e-10, max(0.01 * settings.tol_lambda, floor)))

    def eigensolve(Mnl, warm, forcing_tol=None):
        """(lambda, x, tolerance used) of the pencil L + zeta Mnl, or of L
        for Mnl=None; forcing_tol applies on mesh levels, whose pencil is
        the top matrix of the space's multigrid context."""
        if not level:
            A_lin = L if Mnl is None else L + zeta * Mnl
            return (*smallest_eigpair(A_lin, M, work=work), eig_tol)
        tol = eig_tol if forcing_tol is None else max(eig_tol, forcing_tol)
        mg = space.multigrid(Mnl, work)
        lam, x = smallest_eigpair(mg.matrices[-1], M, tol=tol, x0=warm, mg=mg, work=work)
        return lam, x, tol

    def make_pair(lam, coeffs):
        return EigenPair(lam=float(lam), u=FeFunction(space.mesh.level_index,
                                                        space.to_fine(coeffs)))

    if zeta == 0.0:
        # the linearized operator does not depend on the iterate: one solve
        warm = _b_normalize(np.asarray(initial, dtype=float), M) if initial is not None else None
        lam, x, _ = eigensolve(None, warm)
        if work is not None:
            work.scf_iterations += 1
        return ScfResult(make_pair(lam, x), converged=True, iterations=1,
                         history=[ScfSweep(0.0, 0.0, 0.0, eig_tol)])

    if initial is not None:
        w = _b_normalize(np.asarray(initial, dtype=float), M)
    else:
        _, w, _ = eigensolve(None, None, FORCING_CAP)

    def rayleigh_and_energy(v, Mnl_v):
        quartic = float(v @ (Mnl_v @ v))
        linear = float(v @ (L @ v))
        lam_v = linear + zeta * quartic
        energy = linear + zeta / 2 * quartic
        return lam_v, energy

    Mnl = space.nonlinear_matrix(w, work)
    lam, merit = rayleigh_and_energy(w, Mnl)
    alpha = 1.0
    rises = 0
    converged = False
    iterations = 0
    history = []
    forcing_tol = FORCING_CAP
    max_backtracks = 8
    if level:
        # ring buffer of the last differences of iterates and residuals
        dW = np.empty((w.shape[0], ANDERSON_DEPTH))
        dF = np.empty_like(dW)
    stored = slot = 0
    w_prev = f_prev = None

    for _ in range(settings.max_iter):
        _, x, tol = eigensolve(Mnl, w, forcing_tol)
        if float(x @ (M @ w)) < 0:
            x = -x
        f = x - w
        residual = float(np.sqrt(max(f @ (M @ f), 0.0)))
        # the energy functional (which the ground state minimizes; the
        # Rayleigh value may dip below its limit and is no merit function)
        # guards every step
        guard = max(10 * settings.tol_lambda, 1e-13 * abs(merit))
        best = None
        if level:
            if w_prev is not None:
                dW[:, slot] = w - w_prev
                dF[:, slot] = f - f_prev
                slot = (slot + 1) % ANDERSON_DEPTH
                stored = min(stored + 1, ANDERSON_DEPTH)
            w_prev, f_prev = w, f
            if stored:
                gamma = np.linalg.lstsq(dF[:, :stored], f, rcond=None)[0]
                v = w + alpha * f - dW[:, :stored] @ gamma - alpha * (dF[:, :stored] @ gamma)
                v = _b_normalize(v, M)
                Mnl_v = space.nonlinear_matrix(v, work)
                lam_v, merit_v = rayleigh_and_energy(v, Mnl_v)
                if merit_v <= merit + guard:
                    best = (lam_v, merit_v, v, Mnl_v, alpha)
                else:
                    stored = slot = 0
        if best is None:
            # line search on the plain step: halve it until the energy stops
            # rising, which tames the overshoot of strong nonlinearities
            step = alpha
            for _bt in range(max_backtracks):
                v = x if step == 1.0 else w + step * f
                v = _b_normalize(v, M)
                Mnl_v = space.nonlinear_matrix(v, work)
                lam_v, merit_v = rayleigh_and_energy(v, Mnl_v)
                if best is None or merit_v < best[1]:
                    best = (lam_v, merit_v, v, Mnl_v, step)
                if merit_v <= merit + guard:
                    break
                step /= 2
        lam_v, merit_v, v, Mnl_v, accepted_step = best
        if merit_v > merit + max(guard, 1e-9 * abs(merit)):
            rises += 1
            if rises >= 3:
                raise SolverError(
                    f"SCF diverging: energy rose {rises} consecutive damped steps "
                    f"(eigenvalue {lam:.12g} -> {lam_v:.12g})")
        else:
            rises = 0
        alpha = accepted_step
        dlam = abs(lam_v - lam)
        dvec = v - w
        du = float(np.sqrt(max(dvec @ (M @ dvec), 0.0)))
        iterations += 1
        history.append(ScfSweep(dlam, du, residual, tol))
        if work is not None:
            work.scf_iterations += 1
        w, Mnl, lam, merit = v, Mnl_v, lam_v, merit_v
        if dlam <= settings.tol_lambda and residual <= settings.tol_u:
            if tol == eig_tol:
                converged = True
                break
            # the loose inner solve hid the residual: recheck at eig_tol, and
            # keep this sweep's residual out of the mixing differences
            forcing_tol = eig_tol
            stored = slot = 0
            w_prev = None
        else:
            forcing_tol = min(FORCING_CAP, FORCING * residual)

    w = apply_sign_convention(w)
    return ScfResult(make_pair(lam, w), converged=converged, iterations=iterations,
                     history=history)
