"""Nonlinear eigenvalue solvers.

The self-consistent field (SCF) iteration freezes the nonlinearity at the
current iterate, solves the linearized generalized eigenproblem for its
smallest pair, and repeats; on a mesh level its steps are Anderson-mixed
under an energy line search.  The augmented space (coarse space plus
the span of one fine function) reduces every matrix through its sparse
basis map to a small dense pencil, which LAPACK solves.  On a mesh level
the inner eigensolve is LOBPCG preconditioned by one Galerkin multigrid
V-cycle, with no shifts; a level without coarser levels is preconditioned
by a sparse LU solve.
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
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
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
                floor = _EPS * float(abs(A).sum(axis=1).max())
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
    """Interior-dof matrices of one mesh level plus solver plumbing."""

    mesh: object
    spec: ProblemSpec
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    potential_mass: sp.csr_matrix | None
    prolongations: list | None = None   # interior chain below this level, for MG
    _linear: sp.csr_matrix = field(default=None, repr=False)

    @classmethod
    def build(cls, mesh, spec, work=None, prolongations=None):
        A = assemble_stiffness(mesh, spec, work=work)
        M = assemble_mass(mesh, work=work)
        MW = None
        if spec.potential is not None:
            MW = assemble_weighted_mass(mesh, spec.potential, 1, work=work)
        return cls(mesh=mesh, spec=spec, stiffness=A, mass=M, potential_mass=MW,
                   prolongations=prolongations)

    @property
    def n_dofs(self):
        return self.mass.shape[0]

    @property
    def mass_matrix(self):
        return self.mass

    @property
    def linear_matrix(self):
        if self._linear is None:
            if self.potential_mass is not None:
                self._linear = (self.stiffness + self.potential_mass).tocsr()
            else:
                self._linear = self.stiffness
        return self._linear

    def nonlinear_matrix(self, coeffs, work=None):
        w = FeFunction(self.mesh.level_index, np.asarray(coeffs, dtype=float))
        return assemble_weighted_mass(self.mesh, w, 2 * self.spec.sigma, work=work)

    def multigrid(self, A, work=None):
        """Galerkin multigrid context on A over the transfer chain; with no
        prolongations it has one level, whose V-cycle is a sparse LU solve."""
        prols = self.prolongations or []
        return MgContext(galerkin_chain(A, prols, work), prols,
                         work=work if work is not None else WorkReport())


@dataclass
class AugmentedSpace:
    """Coarse space plus the span of one normalized fine function, with all
    matrices reduced through the sparse basis map."""

    fine_level: int
    mesh: object
    spec: ProblemSpec
    basis_map: sp.csr_matrix          # (fine interior dofs) x (n_H [+ 1])
    stiffness_red: np.ndarray
    mass_red: np.ndarray
    potential_red: np.ndarray | None
    degenerate: bool
    initial_coeffs: np.ndarray

    @property
    def n_dofs(self):
        return self.basis_map.shape[1]

    @property
    def mass_matrix(self):
        return self.mass_red

    @property
    def linear_matrix(self):
        if self.potential_red is None:
            return self.stiffness_red
        return self.stiffness_red + self.potential_red

    def to_fine(self, coeffs):
        return self.basis_map @ np.asarray(coeffs, dtype=float)

    def nonlinear_matrix(self, coeffs, work=None):
        w_fine = self.to_fine(coeffs)
        w = FeFunction(self.mesh.level_index, w_fine)
        Mw = assemble_weighted_mass(self.mesh, w, 2 * self.spec.sigma, work=work)
        return _reduce(Mw, self.basis_map, work)


def _reduce(X, B, work=None):
    XB = X @ B
    red = (B.T @ XB).toarray()
    if work is not None:
        work.add(X.nnz + XB.nnz + B.nnz)
    return 0.5 * (red + red.T)


def build_augmented_space(hierarchy, fine_level, ops, u_tilde, work=None, span_tol=1e-12):
    """Assemble V_coarse + span{u_tilde} over the interior dofs of a level.

    `ops` supplies the fine-level matrices (a LevelSpace).  If u_tilde lies
    in the coarse space to within `span_tol` in the L2 norm the extra column
    is dropped and the space degenerates to the plain coarse space.
    """
    B_H = hierarchy.coarse_to_level_interior(fine_level)
    M = ops.mass
    u = np.asarray(u_tilde, dtype=float)
    bnorm = float(np.sqrt(max(u @ (M @ u), 0.0)))
    if bnorm == 0.0:
        raise SolverError("cannot augment with the zero function")
    t = u / bnorm

    MB = M @ B_H
    M_H = (B_H.T @ MB).toarray()
    M_H = 0.5 * (M_H + M_H.T)
    if work is not None:
        work.add(M.nnz + MB.nnz + B_H.nnz)
    rhs = B_H.T @ (M @ t)
    c_proj = scipy.linalg.solve(M_H, rhs, assume_a="pos")
    resid = t - B_H @ c_proj
    resid_b = float(np.sqrt(max(resid @ (M @ resid), 0.0)))

    if resid_b <= span_tol:
        basis = B_H.tocsr()
        degenerate = True
        initial = c_proj
    else:
        basis = sp.hstack([B_H, sp.csr_matrix(t[:, None])]).tocsr()
        degenerate = False
        initial = np.zeros(basis.shape[1])
        initial[-1] = 1.0

    A_red = _reduce(ops.stiffness, basis, work)
    M_red = _reduce(M, basis, work)
    W_red = _reduce(ops.potential_mass, basis, work) if ops.potential_mass is not None else None
    return AugmentedSpace(
        fine_level=fine_level,
        mesh=ops.mesh,
        spec=ops.spec,
        basis_map=basis,
        stiffness_red=A_red,
        mass_red=M_red,
        potential_red=W_red,
        degenerate=degenerate,
        initial_coeffs=initial,
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
    V-cycle of the pencil's Galerkin chain) and the SCF is inexact: each
    sweep's eigensolve tolerance is max(eig_tol, min(FORCING_CAP,
    FORCING * r)) with r the previous sweep's residual (FORCING_CAP before
    the first sweep), and a sweep that meets the stopping rule below the
    full tolerance is followed by one at eig_tol, with the mixing history
    cleared.  The dense augmented pencils are solved exactly, at eig_tol.
    `history` holds one ScfSweep per sweep.  Hitting max_iter returns
    converged=False (the augmented solves are capped at 3 sweeps by
    design); an energy that rises on three consecutive sweeps raises
    SolverError.
    """
    settings = settings or ScfSettings()
    M = space.mass_matrix
    L = space.linear_matrix
    zeta = spec.zeta
    # inner eigensolver tolerance: tight enough that the iterate noise stays
    # below the SCF tolerances, but above the rounding floor of the residual,
    # which grows like sqrt(n) through cancellation in A x - rho M x
    floor = 3e-14 * np.sqrt(M.shape[0])
    eig_tol = float(min(1e-10, max(0.01 * settings.tol_lambda, floor)))

    # mesh levels: sparse pencils, iterative inner solves, Anderson mixing
    level = isinstance(space, LevelSpace)

    def eigensolve(A_lin, warm, forcing_tol=None):
        """(lambda, x, tolerance used); forcing_tol applies on mesh levels."""
        if not level:
            return (*smallest_eigpair(A_lin, M, work=work), eig_tol)
        tol = eig_tol if forcing_tol is None else max(eig_tol, forcing_tol)
        lam, x = smallest_eigpair(A_lin, M, tol=tol, x0=warm,
                                  mg=space.multigrid(A_lin, work), work=work)
        return lam, x, tol

    def make_pair(lam, coeffs):
        level = getattr(space, "fine_level", None)
        if level is None:
            level = space.mesh.level_index
        return EigenPair(lam=float(lam), u=FeFunction(level, coeffs))

    if zeta == 0.0:
        # the linearized operator does not depend on the iterate: one solve
        warm = _b_normalize(np.asarray(initial, dtype=float), M) if initial is not None else None
        lam, x, _ = eigensolve(L, warm)
        if work is not None:
            work.scf_iterations += 1
        return ScfResult(make_pair(lam, x), converged=True, iterations=1,
                         history=[ScfSweep(0.0, 0.0, 0.0, eig_tol)])

    if initial is not None:
        w = _b_normalize(np.asarray(initial, dtype=float), M)
    else:
        _, w, _ = eigensolve(L, None, FORCING_CAP)

    def rayleigh_and_energy(v, Mnl_v):
        quartic = float(v @ (Mnl_v @ v))
        linear = float(v @ (L @ v))
        lam_v = linear + zeta * quartic
        energy = linear + zeta / (spec.sigma + 1) * quartic
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
        A_lin = L + zeta * Mnl
        _, x, tol = eigensolve(A_lin, w, forcing_tol)
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
