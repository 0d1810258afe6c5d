"""Nonlinear eigenvalue solvers.

The self-consistent field (SCF) iteration freezes the nonlinearity at the
current iterate, solves the linearized generalized eigenproblem for its
smallest pair, and repeats; on a mesh level its steps are Anderson-mixed
under an energy line search.  The augmented space (coarse space plus
the span of one fine function) reduces every matrix through its sparse
basis map to a small dense pencil, which LAPACK solves.  On a mesh level
the inner eigensolve is shifted inverse power iteration; its systems are
factored directly by sparse LU, or solved by Galerkin multigrid above
``MG_MIN_DOFS`` interior dofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolverError
from .fem import (
    FeFunction,
    ProblemSpec,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
)
from .linalg import MgContext, counted_matvec, galerkin_chain, mg_solve_to_tol

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
    "MG_MIN_DOFS",
]

# above this many dofs the inner linear solves go through Galerkin multigrid
MG_MIN_DOFS = 30_000

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
    damping: float = 1.0

    def __post_init__(self):
        if self.tol_lambda <= 0 or self.tol_u <= 0:
            raise ValueError("tolerances must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class EigenPair:
    lam: float
    u: FeFunction
    space_tag: str


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
    delta_lambda: float = np.nan
    delta_u: float = np.nan
    history: list = field(default_factory=list)    # one ScfSweep per sweep


def apply_sign_convention(x):
    """Flip so the coefficient of largest magnitude is positive."""
    i = int(np.argmax(np.abs(x)))
    return -x if x[i] < 0 else x


def _factorized_pencil_solver(A, M, work=None):
    def factory(mu):
        lu = spla.splu(sp.csc_matrix(A - mu * M))

        def solve(rhs, x0=None, rel_tol=None):
            if work is not None:
                work.add(lu.L.nnz + lu.U.nnz)
            return lu.solve(rhs)

        return solve

    return factory


def smallest_eigpair(A, M, tol=1e-10, max_iter=200, x0=None, solver_factory=None,
                     lower_bound=None, work=None, shift_cap=None):
    """Algebraically smallest eigenpair of A x = lambda M x (A symmetric,
    M SPD), returned as (lambda, x) with x' M x = 1 and the largest-magnitude
    entry of x positive.

    Dense pencils (the augmented spaces) are solved by LAPACK through
    scipy.linalg.eigh, counted as A.size + M.size work units; the remaining
    arguments do not apply to them.  Sparse pencils run shifted inverse
    power iteration until ||A x - lambda M x|| <= tol ||A x||, starting
    from the shift `lower_bound`, which the caller must certify as
    <= lambda_min (all SPD PDE pencils here pass 0).  `solver_factory(mu)`
    must return a callable solving (A - mu M) y = rhs; the default factors
    the shifted matrix by sparse LU.  `shift_cap` limits the shift to that
    fraction of the Rayleigh quotient; iterative inner solvers need it to
    keep the shifted system well away from singular.
    """
    if M.shape != A.shape:
        raise ValueError("pencil matrices must have equal shape")
    if not sp.issparse(A):
        if work is not None:
            work.add(A.size + M.size)
        lam, vecs = scipy.linalg.eigh(A, M, subset_by_index=[0, 0])
        return float(lam[0]), apply_sign_convention(vecs[:, 0])
    if lower_bound is None:
        raise ValueError("sparse pencils need a certified lower_bound on the smallest eigenvalue")

    if solver_factory is None:
        solver_factory = _factorized_pencil_solver(A, M, work)
    mu = float(lower_bound)
    x = np.array(x0, dtype=float) if x0 is not None else np.ones(A.shape[0])
    Mx = counted_matvec(M, x, work)
    nrm = np.sqrt(x @ Mx)
    if nrm == 0.0:
        x = np.ones(A.shape[0])
        Mx = counted_matvec(M, x, work)
        nrm = np.sqrt(x @ Mx)
    x = x / nrm
    Mx = Mx / nrm

    solve = solver_factory(mu)
    rho = float(x @ counted_matvec(A, x, work))
    best_res = np.inf
    res_at_last_shift = np.inf

    for _ in range(max_iter):
        scale = max(rho - mu, 1e-300)
        y = solve(Mx, x0=x / scale, rel_tol=max(0.02 * tol, min(1e-2, 0.1 * best_res)))
        if y @ Mx < 0:
            y = -y
        My = counted_matvec(M, y, work)
        nrm = np.sqrt(max(y @ My, 0.0))
        if nrm == 0.0 or not np.isfinite(nrm):
            raise SolverError("inverse iteration produced a null vector", residual=best_res)
        x = y / nrm
        Mx = My / nrm
        Ax = counted_matvec(A, x, work)
        rho = float(x @ Ax)
        res = float(np.linalg.norm(Ax - rho * Mx))
        axn = float(np.linalg.norm(Ax))
        best_res = min(best_res, res / max(axn, 1e-300))
        if res <= tol * max(axn, 1e-300):
            return rho, apply_sign_convention(x)
        # sharpen the shift once the iterate is close; each update moves mu a
        # fixed fraction of the remaining distance, so rho stays above it
        if res <= 1e-2 * axn and res <= 0.01 * res_at_last_shift:
            proposed = rho - 0.1 * max(rho - mu, 1e-3 * abs(rho) + 1e-300)
            if shift_cap is not None:
                proposed = min(proposed, shift_cap * rho)
            if proposed > mu:
                mu = proposed
                solve = solver_factory(mu)
                res_at_last_shift = res
    raise SolverError(
        f"inverse iteration did not reach tol={tol:.1e} in {max_iter} iterations "
        f"(best relative residual {best_res:.3e})", residual=best_res)


def _mg_pencil_factory(A, M, prolongations, pre_steps, post_steps, work=None,
                       mass_chain=None):
    """Inner-solver factory backed by Galerkin multigrid on (A - mu M)."""
    a_chain = galerkin_chain(A, prolongations, work)
    m_chain = mass_chain if mass_chain is not None else galerkin_chain(M, prolongations, work)
    top = len(a_chain) - 1

    def factory(mu):
        if mu == 0.0:
            mats = a_chain
        else:
            mats = [(a - mu * m).tocsr() for a, m in zip(a_chain, m_chain)]
        ctx = MgContext(mats, prolongations, pre_steps=pre_steps,
                        post_steps=post_steps)
        if work is not None:
            ctx.work = work

        def solve(rhs, x0=None, rel_tol=None):
            start = x0 if x0 is not None else np.zeros_like(rhs)
            return mg_solve_to_tol(ctx, top, rhs, start, rel_tol or 1e-12,
                                   max_cycles=120, strict=False)

        return solve

    return factory


@dataclass
class LevelSpace:
    """Interior-dof matrices of one mesh level plus solver plumbing."""

    mesh: object
    spec: ProblemSpec
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    potential_mass: sp.csr_matrix | None
    prolongations: list | None = None   # interior chain below this level, for MG
    pre_steps: int = 3
    post_steps: int = 3
    _linear: sp.csr_matrix = field(default=None, repr=False)
    _mass_chain: list = field(default=None, repr=False)

    @classmethod
    def build(cls, mesh, spec, work=None, prolongations=None, pre_steps=3, post_steps=3):
        A = assemble_stiffness(mesh, spec, work=work)
        M = assemble_mass(mesh, work=work)
        MW = None
        if spec.potential is not None:
            MW = assemble_weighted_mass(mesh, spec.potential, 1, work=work)
        return cls(mesh=mesh, spec=spec, stiffness=A, mass=M, potential_mass=MW,
                   prolongations=prolongations, pre_steps=pre_steps, post_steps=post_steps)

    @property
    def n_dofs(self):
        return self.mass.shape[0]

    @property
    def tag(self):
        return f"level:{self.mesh.level_index}"

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

    def eig_solver_factory(self, A_lin, work=None):
        if self.prolongations is None or self.n_dofs <= MG_MIN_DOFS or not self.prolongations:
            return None
        if self._mass_chain is None:
            self._mass_chain = galerkin_chain(self.mass, self.prolongations, work)
        return _mg_pencil_factory(A_lin, self.mass, self.prolongations,
                                  self.pre_steps, self.post_steps, work,
                                  mass_chain=self._mass_chain)


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
    def tag(self):
        return f"augmented:{self.fine_level}" + (":degenerate" if self.degenerate else "")

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

    def eig_solver_factory(self, A_lin, work=None):
        return None


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
    a sweep whose inner eigensolve ran at the full eig_tol.  When the
    space's inner solves are iterative (multigrid), the SCF is inexact:
    each sweep's eigensolve tolerance is max(eig_tol, min(FORCING_CAP,
    FORCING * r)) with r the previous sweep's residual (FORCING_CAP before
    the first sweep), and a sweep that meets the stopping rule below the
    full tolerance is followed by one at eig_tol, with the mixing history
    cleared.  Direct solves run every
    sweep at eig_tol.  `history` holds one ScfSweep per sweep.  Hitting
    max_iter returns converged=False (the augmented solves are capped at 3
    sweeps by design); an energy that rises on three consecutive sweeps
    raises SolverError.
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

    def eigensolve(A_lin, warm, forcing_tol=None):
        """(lambda, x, tolerance used); forcing_tol applies to iterative
        inner solves only."""
        factory = space.eig_solver_factory(A_lin, work)
        tol = eig_tol
        if factory is not None and forcing_tol is not None:
            tol = max(eig_tol, forcing_tol)
        lam, x = smallest_eigpair(A_lin, M, tol=tol, x0=warm,
                                  solver_factory=factory, lower_bound=0.0, work=work,
                                  shift_cap=0.9 if factory is not None else None)
        return lam, x, tol

    def make_pair(lam, coeffs):
        level = getattr(space, "fine_level", None)
        if level is None:
            level = space.mesh.level_index
        return EigenPair(lam=float(lam), u=FeFunction(level, coeffs), space_tag=space.tag)

    if zeta == 0.0:
        # the linearized operator does not depend on the iterate: one solve
        warm = _b_normalize(np.asarray(initial, dtype=float), M) if initial is not None else None
        lam, x, _ = eigensolve(L, warm)
        if work is not None:
            work.scf_iterations += 1
        return ScfResult(make_pair(lam, x), converged=True, iterations=1,
                         delta_lambda=0.0, delta_u=0.0,
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
    alpha = settings.damping
    rises = 0
    converged = False
    iterations = 0
    dlam = du = np.nan
    history = []
    forcing_tol = FORCING_CAP
    max_backtracks = 8
    mixing = isinstance(space, LevelSpace)
    if mixing:
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
        if mixing:
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
                     delta_lambda=dlam, delta_u=du, history=history)
