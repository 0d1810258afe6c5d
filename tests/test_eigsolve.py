from dataclasses import replace
from math import pi

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fmgeig import eigsolve, linalg
from fmgeig.errors import SolverError
from fmgeig.eigsolve import (
    FORCING,
    FORCING_CAP,
    LevelSpace,
    ScfSettings,
    build_augmented_space,
    scf_solve,
    smallest_eigpair,
)
from fmgeig.fem import (
    FeFunction,
    ProblemSpec,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    harmonic_potential,
    nonlinear_load,
)
from fmgeig.linalg import MgContext, WorkReport, galerkin_chain, mg_solve
from fmgeig.mesh import build_hierarchy, build_initial_mesh


GPE_2D = ProblemSpec(dim=2, zeta=1.0)


def random_pencil(seed, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    Q = rng.standard_normal((n, n))
    M = Q @ Q.T + n * np.eye(n)
    return A, M


def test_smallest_eigpair_diagonal():
    lam, x = smallest_eigpair(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-9)
    assert x[0] > 0


def test_smallest_eigpair_identity_pencil():
    A, _ = random_pencil(5, 8)
    S = A @ A.T + 8 * np.eye(8)
    lam, _ = smallest_eigpair(S, S.copy())
    assert lam == pytest.approx(1.0, abs=1e-10)


def test_smallest_eigpair_matches_dense_oracle():
    # dense full-spectrum oracle built first; a dense pencil and a sparse
    # SPD pencil (LOBPCG, Cholesky- or V-cycle-preconditioned) must match to
    # 1e-8.  The dense A is indefinite, so it is solved shifted: A + c M
    # with c = 1 + ||A||_F / n is SPD since M >= n I, and lambda - c is
    # compared with the unshifted oracle
    for seed in range(8):
        A, M = random_pencil(seed, 20)
        c = 1.0 + np.linalg.norm(A) / 20
        for A_k, sparse in ((A, False), (A @ A.T + np.eye(20), True)):
            target = scipy.linalg.eigh(A_k, M, eigvals_only=True)[0]
            if sparse:
                lam, x = smallest_eigpair(sp.csr_matrix(A_k), sp.csr_matrix(M), tol=1e-10)
            else:
                lam, x = smallest_eigpair(A_k + c * M, M, tol=1e-10)
                lam -= c
            assert lam == pytest.approx(target, abs=1e-8)
            assert x @ (M @ x) == pytest.approx(1.0, abs=1e-10)
            res = np.linalg.norm(A_k @ x - lam * (M @ x))
            assert res <= 1e-10 * np.linalg.norm((A_k if sparse else A_k + c * M) @ x)


def test_smallest_eigpair_rejects_an_indefinite_dense_pencil():
    # the dense preconditioner is a Cholesky factor of A
    A, M = random_pencil(1, 12)
    assert scipy.linalg.eigvalsh(A)[0] < 0
    with pytest.raises(SolverError, match="positive definite"):
        smallest_eigpair(A, M)


def test_smallest_eigpair_sparse_input():
    # an SPD pencil with a multigrid preconditioner: the P1 Laplacian of the
    # 16x16 mesh against its mass matrix, both sparse, preconditioned by one
    # V-cycle over the two coarser levels
    h = build_hierarchy(2, 4, 3)
    prols = [h.interior_prolongation(k) for k in range(2)]
    spec = ProblemSpec(dim=2, potential=None, zeta=0.0)
    space = LevelSpace.build(h.levels[-1], spec, prolongations=prols)
    A, M = space.stiffness, space.mass
    target = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
    work = WorkReport()
    lam, x = smallest_eigpair(A, M, tol=1e-10, mg=space.multigrid(work=work), work=work)
    assert lam == pytest.approx(target, rel=1e-12)
    assert np.linalg.norm(A @ x - lam * (M @ x)) <= 1e-10 * np.linalg.norm(A @ x)
    # every preconditioner application is one V-cycle down to the coarse solve
    assert work.coarse_solves > 0


def test_smallest_eigpair_nonconvergence_raises():
    # LOBPCG reports its best residual when it runs out of steps
    A, M = random_pencil(3, 25)
    with pytest.raises(SolverError) as err:
        smallest_eigpair(sp.csr_matrix(A @ A.T), sp.csr_matrix(M), tol=1e-14, max_iter=1)
    assert err.value.residual is not None


def test_smallest_eigpair_stops_at_rounding_floor():
    # a tolerance below the rounding floor of ||A x - rho M x|| is not an
    # error: LOBPCG stops once the residual stalls inside eps ||A||_inf ||x||
    h = build_hierarchy(2, 8, 3)
    prols = [h.interior_prolongation(k) for k in range(2)]
    space = LevelSpace.build(h.levels[-1], GPE_2D, prolongations=prols)
    A, M = space.linear(), space.mass
    eps = np.finfo(float).eps
    lam, x = smallest_eigpair(A, M, tol=1e-20, mg=space.multigrid())
    res = np.linalg.norm(A @ x - lam * (M @ x))
    assert res <= eps * abs(A).sum(axis=1).max() * np.linalg.norm(x)
    target = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)[0]
    assert lam == pytest.approx(target, rel=1e-12)
    # one dof: the start vector is the eigenvector, and {x, T r} is degenerate
    lam, x = smallest_eigpair(sp.csr_matrix([[3.0]]), sp.csr_matrix([[7.0]]), tol=1e-20)
    assert lam == pytest.approx(3.0 / 7.0, rel=1e-15)
    assert x[0] == pytest.approx(1 / np.sqrt(7.0), rel=1e-15)


def test_scf_settings_validation():
    with pytest.raises(ValueError):
        ScfSettings(tol_lambda=0.0)


def test_scf_linear_laplace_single_solve():
    # zeta = 0: the linearized operator is constant, so SCF is one solve,
    # and the eigenvalue approaches 2 pi^2 from above under refinement.
    spec = ProblemSpec(dim=2, potential=None, zeta=0.0)
    lams = []
    for n in (8, 16, 32):
        m = build_initial_mesh(2, n)
        space = LevelSpace.build(m, spec)
        res = scf_solve(space, spec)
        assert res.iterations == 1
        assert res.converged
        lams.append(res.pair.lam)
    exact = 2 * pi ** 2
    errs = [lam - exact for lam in lams]
    assert all(e > 0 for e in errs)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_scf_linear_matches_dense_oracle():
    spec = ProblemSpec(dim=2, potential=None, zeta=0.0)
    m = build_initial_mesh(2, 8)
    space = LevelSpace.build(m, spec)
    res = scf_solve(space, spec)
    L = space.linear().toarray()
    M = space.mass.toarray()
    oracle = scipy.linalg.eigh(L, M, eigvals_only=True)[0]
    assert res.pair.lam == pytest.approx(oracle, abs=1e-10)


def brute_force_gpe(mesh, spec, damping=0.3, tol=1e-10, max_sweeps=500):
    """Independent oracle: slow damped fixed-point iteration with dense
    full-spectrum inner eigensolves.  It stops on the fixed-point residual
    ||x - w||_M, as scf_solve does, and raises if it runs out of sweeps."""
    A = assemble_stiffness(mesh).toarray()
    M = assemble_mass(mesh).toarray()
    L = A + assemble_weighted_mass(mesh, harmonic_potential).toarray()

    def bn(c):
        return np.sqrt(c @ M @ c)

    w = scipy.linalg.eigh(L, M)[1][:, 0]
    w /= bn(w)
    for _ in range(max_sweeps):
        Mnl = assemble_weighted_mass(mesh, FeFunction(mesh.level_index, w)).toarray()
        x = scipy.linalg.eigh(L + spec.zeta * Mnl, M)[1][:, 0]
        if x @ M @ w < 0:
            x = -x
        residual = bn(x - w)
        if residual <= tol:
            return w @ L @ w + spec.zeta * (w @ Mnl @ w), w
        w = w + damping * (x - w)
        w /= bn(w)
    raise SolverError(f"oracle residual {residual:.2e} above {tol:.0e} after "
                      f"{max_sweeps} sweeps", residual=residual)


def test_scf_gpe_matches_brute_force_oracle():
    mesh = build_initial_mesh(2, 16)
    lam_oracle, _ = brute_force_gpe(mesh, GPE_2D)
    space = LevelSpace.build(mesh, GPE_2D)
    res = scf_solve(space, GPE_2D, ScfSettings(tol_lambda=1e-12, tol_u=1e-10))
    assert res.converged
    assert abs(res.pair.lam - lam_oracle) <= 1e-8


def test_brute_force_oracle_raises_when_its_residual_stalls():
    # at zeta = 100 on the 8x8 mesh the damped iteration at 0.3 oscillates
    # (a stop on |delta lambda| alone returned 180.63; the ground state is 174.36)
    spec = ProblemSpec(dim=2, zeta=100.0)
    with pytest.raises(SolverError, match="oracle residual"):
        brute_force_gpe(build_initial_mesh(2, 8), spec, damping=0.3)


def test_scf_returns_normalized_signed_pair():
    for zeta in (0.0, 0.5, 2.0):
        spec = ProblemSpec(dim=2, zeta=zeta)
        mesh = build_initial_mesh(2, 8)
        space = LevelSpace.build(mesh, spec)
        res = scf_solve(space, spec)
        u = res.pair.u.coefficients
        assert u @ (space.mass @ u) == pytest.approx(1.0, abs=1e-12)
        assert u[np.argmax(np.abs(u))] > 0


def test_scf_residual_small_at_convergence():
    # run to tol 1e-12 on the 4x4 mesh and check the weak residual
    # K u + (W u + zeta u^3, v) - lambda M u
    mesh = build_initial_mesh(2, 4)
    space = LevelSpace.build(mesh, GPE_2D)
    settings = ScfSettings(tol_lambda=1e-12, tol_u=1e-12, max_iter=300)
    res = scf_solve(space, GPE_2D, settings)
    assert res.converged
    u, lam = res.pair.u.coefficients, res.pair.lam
    r = (assemble_stiffness(mesh) @ u + nonlinear_load(mesh, GPE_2D, u)
         - lam * (assemble_mass(mesh) @ u))
    assert np.abs(r).max() <= 10 * settings.tol_lambda


def test_scf_max_iter_returns_unconverged():
    mesh = build_initial_mesh(2, 8)
    space = LevelSpace.build(mesh, GPE_2D)
    rng = np.random.default_rng(0)
    bad = rng.standard_normal(space.n_dofs)
    res = scf_solve(space, GPE_2D, ScfSettings(max_iter=1), initial=bad)
    assert not res.converged
    assert res.iterations == 1


def correction_style_utilde(hierarchy, spaces, spec, level):
    res0 = scf_solve(spaces[level - 1], spec)
    P = hierarchy.interior_prolongation(level - 1)
    u = P @ res0.pair.u.coefficients
    ops = spaces[level]
    ctx = MgContext([s.stiffness for s in spaces[: level + 1]],
                    [hierarchy.interior_prolongation(k) for k in range(level)])
    rhs = res0.pair.lam * (ops.mass @ u)
    if spec.potential is not None:
        rhs = rhs - assemble_weighted_mass(ops.mesh, spec.potential) @ u
    if spec.zeta != 0.0:
        rhs = rhs - spec.zeta * (ops.nonlinear_matrix(u) @ u)
    return mg_solve(ctx, level, rhs, u, 1), u, res0.pair.lam


def augment(hierarchy, spaces, level, u_tilde, work=None):
    """The augmented space of a correction on `level`, bordering spaces[0]."""
    return build_augmented_space(spaces[0], hierarchy.coarse_to_level_interior(level),
                                 spaces[level], u_tilde, work=work)


def test_augmented_space_basic_structure():
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    u_t, _, _ = correction_style_utilde(h, spaces, GPE_2D, 1)
    aug = augment(h, spaces, 1, u_t)
    assert aug.span is not None
    assert aug.n_dofs == h.levels[0].n_interior + 1
    # the span function is M-normalized
    t = aug.span
    assert t @ (spaces[1].mass @ t) == pytest.approx(1.0, abs=1e-12)
    # reduced matrices are symmetric and the reduced mass is SPD
    for X in (aug.linear_matrix, aug.mass):
        assert np.allclose(X, X.T, atol=0)
    assert np.linalg.eigvalsh(aug.mass).min() > 0


def test_augmented_space_degenerate_collapse():
    # a prolongated coarse function lies in the coarse space exactly
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    u_coarse = np.zeros(h.levels[0].n_interior)
    u_coarse[3] = 1.0
    lifted = h.interior_prolongation(0) @ u_coarse
    aug = augment(h, spaces, 1, lifted)
    assert aug.span is None
    assert aug.n_dofs == h.levels[0].n_interior


def test_augmented_space_quadratic_form_agreement():
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    u_t, _, _ = correction_style_utilde(h, spaces, GPE_2D, 1)
    aug = augment(h, spaces, 1, u_t)
    rng = np.random.default_rng(9)
    for _ in range(5):
        c = rng.standard_normal(aug.n_dofs)
        red = c @ aug.linear_matrix @ c
        w = aug.to_fine(c)
        assert red == pytest.approx(w @ (spaces[1].linear() @ w), rel=1e-12)


def _reduced_by_basis_map(X, B):
    """The basis-map reduction B' X B, symmetrized: the reference for the
    reduced matrices."""
    red = (B.T @ (X @ B)).toarray()
    return 0.5 * (red + red.T)


def _assert_matches(red, ref):
    assert np.abs(red - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("dim, divisions, n_levels, offset", [
    (2, 4, 3, 0),     # depths 1 and 2
    (2, 3, 2, 1),     # depth 2 through the coarse chain
    (3, 2, 3, 0),
    (3, 2, 2, 1),
])
def test_augmented_matrices_match_the_basis_map_reduction(dim, divisions, n_levels, offset):
    # the bordered pencil against B' X B with the basis map B = [B_H, t]
    # and the fine matrices, for a random span function, its coarse
    # interpolant (a degenerate space, B = B_H) and random coefficients
    spec = ProblemSpec(dim=dim)
    h = build_hierarchy(dim, divisions, n_levels, coarse_offset=offset)
    rng = np.random.default_rng(dim + n_levels + offset)
    coarse = LevelSpace.build(h.coarse, spec)
    for level in range(1, n_levels):
        ops = LevelSpace.build(h.levels[level], spec)
        B_H = h.coarse_to_level_interior(level)
        for u_t, degenerate in ((rng.standard_normal(ops.n_dofs), False),
                                (B_H @ rng.standard_normal(coarse.n_dofs), True)):
            aug = build_augmented_space(coarse, B_H, ops, u_t)
            assert (aug.span is None) == degenerate
            B = B_H
            if not degenerate:
                t = u_t / np.sqrt(u_t @ (ops.mass @ u_t))
                B = sp.hstack([B_H, sp.csr_matrix(t[:, None])]).tocsr()
            assert aug.n_dofs == B.shape[1]
            _assert_matches(aug.linear_matrix, _reduced_by_basis_map(ops.linear(), B))
            _assert_matches(aug.mass, _reduced_by_basis_map(ops.mass, B))
            for _ in range(3):
                c = rng.standard_normal(aug.n_dofs)
                w = B @ c
                _assert_matches(aug.to_fine(c), w)
                Mnl = aug.nonlinear_matrix(c)
                assert np.array_equal(Mnl, Mnl.T)
                _assert_matches(Mnl, _reduced_by_basis_map(
                    assemble_weighted_mass(ops.mesh, FeFunction(ops.mesh.level_index, w)), B))


def test_augmented_pair_is_a_function_on_its_level():
    # an augmented solve returns the fine function of its coefficients,
    # labelled with the level it corrects, as a solve on that level does
    h = build_hierarchy(2, 4, 2, coarse_offset=1)
    ops = LevelSpace.build(h.levels[1], GPE_2D)
    coarse = LevelSpace.build(h.coarse, GPE_2D)
    aug = build_augmented_space(coarse, h.coarse_to_level_interior(1), ops, np.ones(ops.n_dofs))
    assert aug.span is not None
    res = scf_solve(aug, GPE_2D, ScfSettings(max_iter=3), initial=aug.initial_coeffs)
    plain = scf_solve(ops, GPE_2D)
    assert res.pair.u.level_index == plain.pair.u.level_index == 2
    assert len(res.pair.u) == len(plain.pair.u) == 225


def test_scf_rejects_a_spec_with_other_zeta_or_sigma_than_its_space():
    # the pencil reads zeta from the space (an augmented space's from its
    # correction space), so a spec with another zeta would mix two
    # problems; the potential is the space's own
    h = build_hierarchy(2, 4, 2, coarse_offset=1)
    ops = LevelSpace.build(h.levels[1], GPE_2D)
    coarse = LevelSpace.build(h.coarse, GPE_2D)
    aug = build_augmented_space(coarse, h.coarse_to_level_interior(1), ops, np.ones(ops.n_dofs))
    for space, initial in ((ops, None), (aug, aug.initial_coeffs)):
        with pytest.raises(ValueError, match="zeta"):
            scf_solve(space, replace(GPE_2D, zeta=2.0), ScfSettings(max_iter=3), initial=initial)
    res = scf_solve(aug, GPE_2D, ScfSettings(max_iter=3), initial=aug.initial_coeffs)
    assert np.isfinite(res.pair.lam)


def test_augmented_eigensolve_improves_on_coarse():
    # monotone space principle, asserted for the linear problem
    spec = ProblemSpec(dim=2, potential=None, zeta=0.0)
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, spec) for lv in h.levels]
    lam_coarse = scf_solve(spaces[0], spec).pair.lam
    u_t, _, _ = correction_style_utilde(h, spaces, spec, 1)
    aug = augment(h, spaces, 1, u_t)
    res = scf_solve(aug, spec, ScfSettings(max_iter=3), initial=aug.initial_coeffs)
    assert res.pair.lam <= lam_coarse + 1e-12
    # nonlinear case: observed, reported, not asserted
    spaces_nl = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    lam_coarse_nl = scf_solve(spaces_nl[0], GPE_2D).pair.lam
    u_t, _, _ = correction_style_utilde(h, spaces_nl, GPE_2D, 1)
    aug_nl = augment(h, spaces_nl, 1, u_t)
    res_nl = scf_solve(aug_nl, GPE_2D, ScfSettings(max_iter=3), initial=aug_nl.initial_coeffs)
    print(f"monotone check (zeta=1): augmented {res_nl.pair.lam:.12g} "
          f"vs coarse {lam_coarse_nl:.12g}")


def test_augmented_scf_respects_iteration_cap():
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    u_t, _, _ = correction_style_utilde(h, spaces, GPE_2D, 1)
    aug = augment(h, spaces, 1, u_t)
    work = WorkReport()
    res = scf_solve(aug, GPE_2D, ScfSettings(max_iter=3), initial=aug.initial_coeffs,
                    work=work)
    assert res.iterations <= 3
    assert work.scf_iterations == res.iterations


def test_scf_strong_nonlinearity_with_damping_fallback():
    spec = ProblemSpec(dim=2, zeta=100.0)
    mesh = build_initial_mesh(2, 8)
    space = LevelSpace.build(mesh, spec)
    res = scf_solve(space, spec, ScfSettings(tol_lambda=1e-10, tol_u=1e-8, max_iter=300))
    assert res.converged
    assert res.pair.lam > 100  # strong repulsion pushes the level well up


def test_scf_anderson_mixing_converges_fast_at_strong_nonlinearity():
    # the plain damped SCF takes 150 sweeps here; the mixed one reaches the
    # ground state of the slow oracle, which needs damping 0.1 here (at its
    # default 0.3 it does not converge)
    spec = ProblemSpec(dim=2, zeta=100.0)
    mesh = build_initial_mesh(2, 8)
    lam_oracle, _ = brute_force_gpe(mesh, spec, damping=0.1)
    space = LevelSpace.build(mesh, spec)
    res = scf_solve(space, spec, ScfSettings(tol_lambda=1e-12, tol_u=1e-10, max_iter=300))
    assert res.converged
    assert res.iterations <= 60
    assert abs(res.pair.lam - lam_oracle) <= 1e-10 * lam_oracle


def test_scf_energy_never_rises_across_accepted_sweeps(monkeypatch):
    # every sweep warm-starts its eigensolve from the accepted iterate
    spec = ProblemSpec(dim=2, zeta=100.0)
    space = LevelSpace.build(build_initial_mesh(2, 8), spec)
    iterates = []

    def recording_eigpair(A, M, **kwargs):
        if kwargs["x0"] is not None:
            iterates.append(np.array(kwargs["x0"]))
        return smallest_eigpair(A, M, **kwargs)

    monkeypatch.setattr(eigsolve, "smallest_eigpair", recording_eigpair)
    settings = ScfSettings(tol_lambda=1e-12, tol_u=1e-10, max_iter=300)
    res = scf_solve(space, spec, settings)
    assert res.converged
    iterates.append(res.pair.u.coefficients)
    assert len(iterates) == res.iterations + 1

    def energy(u):
        quartic = u @ (space.nonlinear_matrix(u) @ u)
        return u @ (space.linear() @ u) + spec.zeta / 2 * quartic

    energies = [energy(u) for u in iterates]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + max(10 * settings.tol_lambda, 1e-13 * abs(before))


def test_augmented_scf_keeps_the_plain_step():
    # mixing is for full levels only: an augmented solve takes the plain
    # damped step, and the pinned values are those of the plain SCF, bit for bit
    h = build_hierarchy(2, 8, 2)
    level = h.levels[1]
    x = level.grid[level.interior_indices] * level.spacing
    u_t = np.sin(pi * x[:, 0]) * np.sin(pi * x[:, 1]) * (1 + x[:, 0])
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    aug = augment(h, spaces, 1, u_t)
    assert aug.span is not None
    res = scf_solve(aug, GPE_2D, ScfSettings(max_iter=3), initial=aug.initial_coeffs)
    assert res.iterations == 3 and not res.converged
    assert res.pair.lam == 22.759940603349968
    assert [(s.delta_lambda, s.delta_u) for s in res.history] == [
        (0.5185096237446913, 0.12375685678729269),
        (0.003373094196106763, 0.010956885491793219),
        (9.353200719175447e-05, 0.0010678286469433446),
    ]
    u = res.pair.u.coefficients
    assert u.size == level.n_interior
    assert float(u @ np.arange(1, u.size + 1)) == 22869.0811803759


def test_scf_builds_one_multigrid_context_per_space(monkeypatch):
    # the Galerkin chain of L is built once; every sweep updates that one
    # context in place and solves the pencil L + zeta Mnl(w) at its top
    spec = ProblemSpec(dim=2, zeta=10.0)
    h = build_hierarchy(2, 4, 3)
    prols = [h.interior_prolongation(j) for j in range(h.n_levels - 1)]
    space = LevelSpace.build(h.levels[-1], spec, prolongations=prols)
    chains, solves = [], []

    def counting_chain(*args, **kwargs):
        chains.append(args[0])
        return linalg.galerkin_chain(*args, **kwargs)

    def recording_eigpair(A, M, **kwargs):
        solves.append((A, kwargs["x0"], kwargs["mg"]))
        return smallest_eigpair(A, M, **kwargs)

    monkeypatch.setattr(eigsolve, "galerkin_chain", counting_chain)
    monkeypatch.setattr(eigsolve, "smallest_eigpair", recording_eigpair)
    res = scf_solve(space, spec, ScfSettings(tol_lambda=1e-12, tol_u=1e-10))
    assert res.converged and res.iterations > 1
    assert len(chains) == 1 and chains[0] is space.linear()
    # the initial linear solve, then one solve per sweep warm-started from w
    assert len(solves) == res.iterations + 1
    mg = solves[0][2]
    assert mg.n_levels == 3
    assert solves[0][0] is space.linear() and solves[0][1] is None
    for A, w, ctx in solves[1:]:
        assert ctx is mg
        pencil = space.linear() + spec.zeta * space.nonlinear_matrix(w)
        assert abs(A - pencil).max() == 0.0


@pytest.mark.parametrize("dim, divisions, n_levels, zeta", [
    pytest.param(2, 4, 4, 5000.0, marks=pytest.mark.slow),
    (3, 2, 3, 1000.0),
])
def test_lumped_coarse_operators_bound_the_galerkin_ones(dim, divisions, n_levels, zeta):
    # each coarse matrix is L_k plus the row-sum-lumped zeta P'D P, with D
    # Mnl below the top and the lumped diagonal of the level above further
    # down: it is at least the Galerkin matrix of the pencil and within a
    # factor dim + 2 of it
    spec = ProblemSpec(dim=dim, zeta=zeta)
    h = build_hierarchy(dim, divisions, n_levels)
    prols = [h.interior_prolongation(j) for j in range(h.n_levels - 1)]
    space = LevelSpace.build(h.levels[-1], spec, prolongations=prols)
    res = scf_solve(space, spec, ScfSettings(max_iter=500))
    assert res.converged
    Mnl = space.nonlinear_matrix(res.pair.u.coefficients)
    mg = space.multigrid(Mnl)
    galerkin = galerkin_chain(space.linear() + zeta * Mnl, prols)
    assert abs(mg.matrices[-1] - galerkin[-1]).max() == 0.0
    linear = galerkin_chain(space.linear(), prols)
    D = Mnl
    for k in reversed(range(mg.n_levels - 1)):
        lumped = zeta * np.asarray((prols[k].T @ D @ prols[k]).sum(axis=1)).ravel()
        added = mg.matrices[k] - linear[k]
        assert abs(added - sp.diags(lumped)).max() <= 1e-12 * abs(mg.matrices[k]).max()
        D = sp.diags(lumped / zeta)
    for k in range(mg.n_levels - 1):
        ratios = scipy.linalg.eigh(mg.matrices[k].toarray(), galerkin[k].toarray(),
                                   eigvals_only=True)
        assert 1 - 1e-10 <= ratios.min() and ratios.max() <= dim + 2


def assert_follows_forcing(res, settings):
    """Every sweep's eigensolve tolerance is the forcing formula of the
    previous sweep's residual, or the full tolerance after a sweep that met
    the stopping rule inexactly; the last sweep runs at the full tolerance."""
    tols = [sweep.eig_tol for sweep in res.history]
    eig_tol = tols[-1]
    assert eig_tol < FORCING_CAP
    assert tols[0] == FORCING_CAP and min(tols) == eig_tol
    for prev, tol in zip(res.history[:-1], tols[1:]):
        if prev.delta_lambda <= settings.tol_lambda and prev.residual <= settings.tol_u:
            assert tol == eig_tol
        else:
            assert tol == max(eig_tol, min(FORCING_CAP, FORCING * prev.residual))


def test_scf_level_sweeps_follow_the_forcing_formula():
    # every mesh-level SCF is inexact, with or without a transfer chain below
    mesh = build_initial_mesh(2, 8)
    space = LevelSpace.build(mesh, GPE_2D)
    settings = ScfSettings(tol_lambda=1e-12, tol_u=1e-10)
    res = scf_solve(space, GPE_2D, settings)
    assert res.converged
    assert len(res.history) == res.iterations > 1
    assert_follows_forcing(res, settings)


def test_augmented_sweeps_follow_the_forcing_formula():
    # an augmented SCF is inexact as a mesh level's is: loose inner solves
    # while the iterate moves, the full tolerance on the converging sweep
    h = build_hierarchy(2, 8, 2)
    spaces = [LevelSpace.build(lv, GPE_2D) for lv in h.levels]
    u_t, _, _ = correction_style_utilde(h, spaces, GPE_2D, 1)
    aug = augment(h, spaces, 1, u_t)
    settings = ScfSettings(max_iter=30)
    res = scf_solve(aug, GPE_2D, settings, initial=aug.initial_coeffs)
    assert res.converged and res.iterations > 3
    assert_follows_forcing(res, settings)


def mg_path_scf(zeta):
    """SCF on the 64x64 level of build_hierarchy(2, 8, 4) with its transfer
    chain, so every eigensolve is preconditioned by a V-cycle, and the same
    solve on a LevelSpace without prolongations (a sparse LU solve)."""
    spec = ProblemSpec(dim=2, zeta=zeta)
    h = build_hierarchy(2, 8, 4)
    prols = [h.interior_prolongation(j) for j in range(h.n_levels - 1)]
    settings = ScfSettings(tol_lambda=1e-12, tol_u=1e-10, max_iter=300)
    mg = scf_solve(LevelSpace.build(h.levels[-1], spec, prolongations=prols), spec, settings)
    direct = scf_solve(LevelSpace.build(h.levels[-1], spec), spec, settings)
    return mg, direct, settings


def test_scf_multigrid_path_matches_direct_path():
    mg, direct, settings = mg_path_scf(zeta=10.0)
    assert mg.converged and direct.converged
    assert abs(mg.pair.lam - direct.pair.lam) <= 1e-11 * direct.pair.lam
    # inexact sweeps while the iterate still moves, the full tolerance at the end
    assert_follows_forcing(mg, settings)
    assert_follows_forcing(direct, settings)
    assert mg.history[-1].eig_tol == direct.history[-1].eig_tol


def test_scf_converging_sweep_runs_at_full_tolerance():
    # a nearly linear problem: the inexact first sweep barely moves the
    # iterate and meets the stopping rule, which counts only at full tolerance
    mg, direct, _ = mg_path_scf(zeta=1e-9)
    first = mg.history[0]
    assert first.eig_tol == FORCING_CAP
    assert first.delta_lambda <= 1e-12 and first.delta_u <= 1e-10
    assert mg.converged and mg.iterations > 1
    assert mg.history[-1].eig_tol == direct.history[-1].eig_tol
    # the recheck drops the inexact residual from the mixing history and
    # takes the plain step (delta_u equals its residual), so no sweeps stall
    assert mg.history[1].delta_u == mg.history[1].residual
    assert mg.iterations <= 4
    assert abs(mg.pair.lam - direct.pair.lam) <= 1e-11 * direct.pair.lam


@pytest.mark.slow
def test_scf_converges_at_zeta_1000_on_the_64x64_level():
    # the two lowest eigenvalues of the frozen pencil come within 0.2% of
    # each other along this SCF; the discrete ground state is 1191.07409529
    spec = ProblemSpec(dim=2, zeta=1000.0)
    h = build_hierarchy(2, 8, 4)
    prols = [h.interior_prolongation(j) for j in range(h.n_levels - 1)]
    space = LevelSpace.build(h.levels[-1], spec, prolongations=prols)
    res = scf_solve(space, spec, ScfSettings(max_iter=300))
    assert res.converged
    assert abs(res.pair.lam - 1191.07409529) <= 1e-9 * 1191.07409529


@pytest.mark.slow
@pytest.mark.parametrize("divisions, n_levels", [(16, 1), (8, 2)])
def test_scf_converges_at_zeta_5000_on_the_16x16_level(divisions, n_levels):
    # a preconditioner built once from the linear part L alone stalls LOBPCG
    # here, so every sweep's context must carry zeta Mnl(w); the discrete
    # ground state is 5772.99227041
    spec = ProblemSpec(dim=2, zeta=5000.0)
    h = build_hierarchy(2, divisions, n_levels)
    prols = [h.interior_prolongation(j) for j in range(h.n_levels - 1)]
    space = LevelSpace.build(h.levels[-1], spec, prolongations=prols)
    res = scf_solve(space, spec, ScfSettings(max_iter=500))
    assert res.converged
    assert abs(res.pair.lam - 5772.99227041) <= 1e-9 * 5772.99227041


@pytest.mark.slow
def test_one_level_scf_refactors_its_lagged_lu_when_lobpcg_stalls(monkeypatch):
    # a one-level context keeps the LU of L while its pencil changes; at
    # zeta=5000 that LU alone stalls LOBPCG (200 steps end at residual
    # 1e-4), so a stalled step refactors the pencil, and the answer is that
    # of a solve whose every sweep factors its own pencil
    spec = ProblemSpec(dim=2, zeta=5000.0)
    mesh = build_initial_mesh(2, 16)
    settings = ScfSettings(max_iter=500)
    state = {"in_eigpair": False, "refreshes": 0}
    refactor = MgContext.refactor_coarse

    def counting_refactor(mg):
        state["refreshes"] += state["in_eigpair"]
        refactor(mg)

    def recording_eigpair(A, M, **kwargs):
        state["in_eigpair"] = True
        try:
            return smallest_eigpair(A, M, **kwargs)
        finally:
            state["in_eigpair"] = False

    def fresh_eigpair(A, M, **kwargs):
        kwargs["mg"].refactor_coarse()             # the LU of this sweep's pencil
        return smallest_eigpair(A, M, **kwargs)

    monkeypatch.setattr(MgContext, "refactor_coarse", counting_refactor)
    monkeypatch.setattr(eigsolve, "smallest_eigpair", recording_eigpair)
    lagged = scf_solve(LevelSpace.build(mesh, spec), spec, settings)
    assert lagged.converged and state["refreshes"] >= 1
    monkeypatch.setattr(eigsolve, "smallest_eigpair", fresh_eigpair)
    fresh = scf_solve(LevelSpace.build(mesh, spec), spec, settings)
    assert fresh.converged
    assert abs(lagged.pair.lam - fresh.pair.lam) <= 1e-10 * fresh.pair.lam
