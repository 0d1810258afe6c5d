import numpy as np
import scipy.sparse as sp

from fmgeig.fem import ProblemSpec, assemble_stiffness
from fmgeig.linalg import (
    MgContext,
    WorkReport,
    cg_smooth,
    direct_solve,
    galerkin_chain,
    mg_solve,
    mg_solve_to_tol,
    v_cycle,
)
from fmgeig.mesh import build_hierarchy, build_initial_mesh

LAPLACE = ProblemSpec(dim=2, potential=None, zeta=0.0)


def poisson_context(divisions=8, n_levels=3, pre=3, post=3):
    h = build_hierarchy(2, divisions, n_levels)
    mats = [assemble_stiffness(lv, LAPLACE) for lv in h.levels]
    prols = [h.interior_prolongation(k) for k in range(n_levels - 1)]
    return MgContext(mats, prols, pre_steps=pre, post_steps=post)


def energy(A, e):
    return float(np.sqrt(e @ (A @ e)))


def test_direct_solve_identity():
    A = sp.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.array_equal(direct_solve(A, b), b)


def test_direct_solve_hand_2x2():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = direct_solve(A, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)


def test_direct_solve_random_spd_residual():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = direct_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_cg_smooth_zero_residual_fixed_point():
    ctx = poisson_context()
    A = ctx.matrices[1]
    rng = np.random.default_rng(2)
    xstar = rng.standard_normal(A.shape[0])
    out, _ = cg_smooth(A, A @ xstar, xstar, 5)
    assert np.array_equal(out, xstar)


def test_cg_finite_termination():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 12))
    A = sp.csr_matrix(B @ B.T + 12 * np.eye(12))
    xstar = rng.standard_normal(12)
    b = A @ xstar
    out, _ = cg_smooth(A, b, np.zeros(12), 12)
    assert np.linalg.norm(out - xstar) <= 1e-10 * np.linalg.norm(xstar)


def test_cg_energy_error_strictly_decreases():
    # 9x9 five-point system; exact solution from the direct oracle.
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m, LAPLACE)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(9)
    xstar = direct_solve(A, b)
    errs = [energy(A, xstar)]
    for steps in (1, 2, 3):
        x, _ = cg_smooth(A, b, np.zeros(9), steps)
        errs.append(energy(A, x - xstar))
    assert all(errs[i + 1] < errs[i] for i in range(3))


def test_v_cycle_zero_input():
    ctx = poisson_context()
    n = ctx.matrices[2].shape[0]
    out = v_cycle(ctx, 2, np.zeros(n), np.zeros(n))
    assert np.array_equal(out, np.zeros(n))


def test_v_cycle_contracts_energy_error():
    ctx = poisson_context(divisions=8, n_levels=3)  # top level 32^2 boxes
    A = ctx.matrices[2]
    rng = np.random.default_rng(5)
    xstar = rng.standard_normal(A.shape[0])
    b = A @ xstar
    thetas = []
    for _ in range(5):
        e0 = rng.standard_normal(A.shape[0])
        x = v_cycle(ctx, 2, b, xstar + e0)
        thetas.append(energy(A, x - xstar) / energy(A, e0))
    assert max(thetas) < 1.0


def test_v_cycle_coarsest_is_direct_solve():
    ctx = poisson_context()
    A = ctx.matrices[0]
    rng = np.random.default_rng(6)
    b = rng.standard_normal(A.shape[0])
    x = v_cycle(ctx, 0, b, np.zeros_like(b))
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_v_cycle_error_propagation_independent_of_rhs():
    # The CG polynomial is a function of the current error alone, so two
    # systems sharing the initial error produce the same error after a cycle.
    ctx = poisson_context()
    A = ctx.matrices[2]
    rng = np.random.default_rng(7)
    e0 = rng.standard_normal(A.shape[0])
    errs = []
    for seed in (8, 9):
        xstar = np.random.default_rng(seed).standard_normal(A.shape[0])
        x1 = v_cycle(ctx, 2, A @ xstar, xstar + e0)
        errs.append(x1 - xstar)
    assert np.linalg.norm(errs[0] - errs[1]) <= 1e-9 * np.linalg.norm(errs[0])


def test_mg_solve_single_cycle_bitwise():
    ctx = poisson_context()
    A = ctx.matrices[1]
    rng = np.random.default_rng(10)
    b = rng.standard_normal(A.shape[0])
    x0 = rng.standard_normal(A.shape[0])
    a = mg_solve(ctx, 1, b, x0, 1)
    bb = v_cycle(ctx, 1, b, np.array(x0))
    assert np.array_equal(a, bb)


def test_mg_solve_contraction_bound():
    # theta_obs = worst per-cycle ratio measured on this very run; the final
    # error is bounded by theta_obs^m times the initial error.
    ctx = poisson_context(divisions=8, n_levels=3)
    A = ctx.matrices[2]
    rng = np.random.default_rng(12)
    xstar = rng.standard_normal(A.shape[0])
    b = A @ xstar
    x = xstar + rng.standard_normal(A.shape[0])
    e = [energy(A, x - xstar)]
    m = 3
    for _ in range(m):
        x = v_cycle(ctx, 2, b, x)
        e.append(energy(A, x - xstar))
    theta_obs = max(e[i + 1] / e[i] for i in range(m))
    assert theta_obs < 1.0
    assert e[-1] <= theta_obs ** m * e[0] + 1e-12


def test_mg_solve_fixed_point():
    ctx = poisson_context()
    A = ctx.matrices[2]
    rng = np.random.default_rng(13)
    xstar = rng.standard_normal(A.shape[0])
    out = mg_solve(ctx, 2, A @ xstar, xstar, 2)
    assert np.linalg.norm(out - xstar) <= 1e-13 * np.linalg.norm(xstar)


def test_mg_solve_to_tol():
    ctx = poisson_context()
    A = ctx.matrices[2]
    rng = np.random.default_rng(14)
    b = rng.standard_normal(A.shape[0])
    x = mg_solve_to_tol(ctx, 2, b, np.zeros_like(b), 1e-11)
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_work_counter_monotone_and_proportional():
    ctx = poisson_context(divisions=8, n_levels=3)
    marks = [ctx.work.snapshot()]
    ratios = []
    for lvl in (1, 2):
        n = ctx.matrices[lvl].shape[0]
        mg_solve(ctx, lvl, np.ones(n), np.zeros(n), 1)
        marks.append(ctx.work.snapshot())
        ratios.append((marks[-1] - marks[-2]) / ctx.matrices[lvl].nnz)
    assert marks == sorted(marks)
    # work per solve stays proportional to the level's nonzeros
    assert max(ratios) / min(ratios) < 1.5


def test_galerkin_chain_matches_assembled():
    h = build_hierarchy(2, 4, 3)
    mats = [assemble_stiffness(lv, LAPLACE) for lv in h.levels]
    prols = [h.interior_prolongation(k) for k in range(2)]
    chain = galerkin_chain(mats[-1], prols)
    for direct, coarse in zip(mats, chain):
        scale = np.abs(direct.toarray()).max()
        assert np.abs((coarse - direct).toarray()).max() <= 1e-12 * scale


def test_work_report_counts_breakdown():
    # indefinite matrix forces a zero/negative curvature direction
    A = sp.csr_matrix(np.diag([1.0, -1.0]))
    work = WorkReport()
    out, _ = cg_smooth(A, np.array([0.0, 1.0]), np.zeros(2), 3, work)
    assert work.cg_breakdowns == 1
    assert out.shape == (2,)


def test_direct_solve_zero_rhs():
    A = sp.identity(4, format="csr")
    assert np.array_equal(direct_solve(A, np.zeros(4)), np.zeros(4))


def test_cg_smooth_zero_start_skips_the_first_matvec():
    ctx = poisson_context()
    A = ctx.matrices[2]
    b = np.random.default_rng(15).standard_normal(A.shape[0])
    runs = []
    for x0 in (np.zeros_like(b), None):
        work = WorkReport()
        runs.append((cg_smooth(A, b, x0, 3, work), work.work_units))
    (x_zero, r_zero), w_zero = runs[0]
    (x_none, r_none), w_none = runs[1]
    assert np.array_equal(x_none, x_zero) and np.array_equal(r_none, r_zero)
    assert w_zero - w_none == A.nnz


def test_cg_smooth_given_residual_matches_and_is_updated():
    ctx = poisson_context()
    A = ctx.matrices[2]
    rng = np.random.default_rng(16)
    b = rng.standard_normal(A.shape[0])
    x0 = rng.standard_normal(A.shape[0])
    r0 = b - A @ x0
    x_a, r_a = cg_smooth(A, b, x0, 3)
    x_b, r_b = cg_smooth(A, b, x0, 3, r0=r0)
    assert np.array_equal(x_a, x_b) and np.array_equal(r_a, r_b)
    assert np.array_equal(r0, b - A @ x0)          # inputs are not modified
    # the recursively updated residual tracks the true one to rounding level
    assert np.linalg.norm(r_a - (b - A @ x_a)) <= 1e-12 * np.linalg.norm(b)


def test_v_cycle_one_coarse_solve_and_zero_start():
    ctx = poisson_context()
    A = ctx.matrices[2]
    b = np.random.default_rng(17).standard_normal(A.shape[0])
    x_none = v_cycle(ctx, 2, b)
    assert ctx.work.coarse_solves == 1
    x_zero = v_cycle(ctx, 2, b, np.zeros_like(b))
    assert np.array_equal(x_none, x_zero)
    assert ctx.work.coarse_solves == 2


def test_mg_solve_to_tol_stops_at_rounding_floor():
    ctx = poisson_context()
    A = ctx.matrices[2]
    b = np.random.default_rng(14).standard_normal(A.shape[0])
    eps = np.finfo(float).eps
    # plain cycling: the residual falls to its rounding floor and stays there
    y, history = np.zeros_like(b), []
    for _ in range(25):
        history.append(np.linalg.norm(b - A @ y))
        y = v_cycle(ctx, 2, b, y)
    four_cycle_rule = next(k for k in range(4, 25) if history[k] > 0.5 * history[k - 4])
    floor = min(history)
    ctx.work.coarse_solves = 0
    x = mg_solve_to_tol(ctx, 2, b, np.zeros_like(b), 1e-20, strict=False)
    res = np.linalg.norm(b - A @ x)
    assert res <= eps * ctx.inf_norm(2) * np.linalg.norm(x)
    assert res <= 2 * floor
    assert ctx.work.coarse_solves < four_cycle_rule
