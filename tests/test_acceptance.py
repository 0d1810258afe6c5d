"""Acceptance suite: every numbered criterion as one test, each printing a
PASS line with the measured quantities.  Run with `pytest -s` to see the
lines as they complete; budgets are asserted, so keep the machine otherwise
idle for meaningful wall-clock checks."""

import json
import time
from math import pi

import numpy as np
import pytest
import scipy.linalg

from fmgeig.eigsolve import LevelSpace, ScfSettings, scf_solve, smallest_eigpair
from fmgeig.fem import ProblemSpec, assemble_mass, assemble_stiffness
from fmgeig.fmg import FmgParams, build_workspace, full_multigrid, one_correction_step
from fmgeig.harness import (
    config_from_dict,
    fitted_rate,
    measure_mg_contraction,
    run_experiment,
    solve_reference,
)
from fmgeig.mesh import build_hierarchy

pytestmark = pytest.mark.slow

GPE = ProblemSpec(dim=2, zeta=1.0)
LAPLACE = ProblemSpec(dim=2, potential=None, zeta=0.0)


def report_pass(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def gpe_run():
    """Criterion 3's configuration, shared with criteria 4 and 7: 5 levels
    from 8^2, m=p=1, surrogate reference two refinements beyond the finest."""
    t0 = time.perf_counter()
    hierarchy = build_hierarchy(2, 8, 7)
    run_h = hierarchy.truncated(5)
    result = full_multigrid(run_h, GPE, FmgParams())
    reference = solve_reference(hierarchy, GPE, ref_tol=1e-12,
                                warm=result.traces[-1].coefficients, warm_level=4)
    errs = {"lambda": [], "a": [], "l2": []}
    for k, tr in enumerate(result.traces):
        el, ea, e2 = reference.errors(k, tr.lam, tr.coefficients)
        errs["lambda"].append(el)
        errs["a"].append(ea)
        errs["l2"].append(e2)
    elapsed = time.perf_counter() - t0
    return {"hierarchy": hierarchy, "result": result, "reference": reference,
            "errors": errs, "elapsed": elapsed}


def test_criterion_1_element_ladder():
    t0 = time.perf_counter()
    cfg = config_from_dict({
        "problem": {"dim": 3, "zeta": 1.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 3},
        "study": "work-scaling",
    })
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert rep.column("n_elements") == [3072, 24576, 196608]
    assert elapsed < 10.0
    report_pass(1, f"element counts {rep.column('n_elements')} in {elapsed:.1f}s")


def test_criterion_2_linear_sanity(tmp_path):
    t0 = time.perf_counter()
    ref_path = tmp_path / "analytic.json"
    ref_path.write_text(json.dumps({"lambda": 2 * pi ** 2}))
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 0.0, "potential": "none"},
        "mesh": {"divisions_per_axis": 8, "n_levels": 5},
        "study": "convergence",
        "reference": "file",
        "reference_path": str(ref_path),
    })
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    lam = rep.column("lambda")[-1]
    rel = abs(lam - 2 * pi ** 2) / (2 * pi ** 2)
    rate = fitted_rate(rep.column("err_lambda"), 2)
    assert rel < 0.005
    assert 1.8 <= rate <= 2.1
    assert elapsed < 60.0
    report_pass(2, f"lambda={lam:.6f} ({100 * rel:.4f}% off 2pi^2), "
                   f"rate_lambda={rate:.4f} in [1.8, 2.1], {elapsed:.1f}s")


def test_criterion_3_gpe_convergence_rates(gpe_run):
    rates = {name: fitted_rate(errs, 2) for name, errs in gpe_run["errors"].items()}
    assert 0.85 <= rates["a"] <= 1.15
    assert 1.7 <= rates["lambda"] <= 2.2
    assert 1.7 <= rates["l2"] <= 2.2
    assert gpe_run["elapsed"] < 300.0
    report_pass(3, f"rate_a={rates['a']:.4f} in [0.85,1.15], "
                   f"rate_lambda={rates['lambda']:.4f}, rate_l2={rates['l2']:.4f} "
                   f"in [1.7,2.2], run {gpe_run['elapsed']:.0f}s")


def test_criterion_4_fmg_vs_direct(gpe_run):
    hierarchy = gpe_run["hierarchy"]
    reference = gpe_run["reference"]
    ratios = []
    for k in range(1, 5):
        prols = [hierarchy.interior_prolongation(j) for j in range(k)]
        space = LevelSpace.build(hierarchy.levels[k], GPE, prolongations=prols)
        direct = scf_solve(space, GPE, ScfSettings(tol_lambda=1e-12, tol_u=1e-10,
                                                   max_iter=500))
        _, ea_direct, _ = reference.errors(k, direct.pair.lam,
                                           direct.pair.u.coefficients)
        ea_fmg = gpe_run["errors"]["a"][k]
        ratios.append(ea_fmg / ea_direct)
    assert all(r <= 2.0 for r in ratios)
    report_pass(4, "FMG/direct a-error ratios per level: "
                   + ", ".join(f"{r:.6f}" for r in ratios) + " (all <= 2)")


def _gamma_for_m(spec, m):
    h = build_hierarchy(2, 8, 3)
    ws = build_workspace(h, spec, FmgParams(m=m))
    res0 = scf_solve(ws.level_spaces[0], spec, ws.params.scf)
    lam, u = res0.pair.lam, res0.pair.u.coefficients
    lam, u, _ = one_correction_step(ws, 1, lam, h.interior_prolongation(0) @ u)
    u2 = h.interior_prolongation(1) @ u
    direct = scf_solve(ws.level_spaces[2], spec,
                       ScfSettings(tol_lambda=1e-12, tol_u=1e-12, max_iter=500))
    ustar = direct.pair.u.coefficients
    ops = ws.level_spaces[2]

    def err(v):
        from fmgeig.fem import a_norm
        vv = v if v @ (ops.mass @ ustar) >= 0 else -v
        return a_norm(vv - ustar, ops.stiffness)

    e0 = err(u2)
    _, u2c, _ = one_correction_step(ws, 2, lam, u2)
    return err(u2c) / e0


def test_criterion_5_correction_contraction():
    t0 = time.perf_counter()
    for zeta, spec in ((0.0, LAPLACE), (1.0, GPE)):
        cfg = config_from_dict({
            "problem": {"dim": 2, "zeta": zeta,
                        "potential": "none" if zeta == 0.0 else "harmonic"},
            "mesh": {"divisions_per_axis": 8, "n_levels": 5},
            "study": "contraction",
        })
        rep = run_experiment(cfg)
        gammas = rep.column("gamma_obs")[1:]
        assert all(np.isfinite(g) and g < 1.0 for g in gammas), f"zeta={zeta}: {gammas}"
        g1 = _gamma_for_m(spec, 1)
        g3 = _gamma_for_m(spec, 3)
        assert g3 < g1 < 1.0, f"zeta={zeta}: gamma(m=1)={g1}, gamma(m=3)={g3}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report_pass(5, f"gamma_obs < 1 at every level and gamma(m=3) < gamma(m=1) "
                   f"for zeta in (0, 1), {elapsed:.0f}s")


def test_criterion_6_mg_contraction():
    t0 = time.perf_counter()
    thetas = measure_mg_contraction(8, 4, seed=2024, trials=20, pre=3, post=3)
    sizes = {1: "16^2", 2: "32^2", 3: "64^2"}
    assert set(thetas) == {1, 2, 3}
    assert all(t < 0.75 for t in thetas.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(6, "theta_obs " + ", ".join(
        f"{sizes[k]}: {v:.4f}" for k, v in thetas.items()) + " (all < 0.75)")


def test_criterion_7_work_linearity(gpe_run):
    traces = gpe_run["result"].traces
    work = [t.work_units for t in traces]
    dofs = [t.n_dofs for t in traces]
    per_dof = [w / n for w, n in zip(work, dofs)][-3:]
    spread = max(per_dof) / min(per_dof)
    total_ratio = sum(work) / work[-1]
    assert spread < 1.5
    assert total_ratio <= 2.2
    report_pass(7, f"work/dof spread over last 3 levels {spread:.3f} (< 1.5), "
                   f"total/finest {total_ratio:.3f} (<= 2.2)")


def test_criterion_8_strong_nonlinearity():
    t0 = time.perf_counter()
    cfg = config_from_dict({
        "problem": {"dim": 2, "zeta": 100.0},
        "mesh": {"divisions_per_axis": 8, "n_levels": 4},
        "study": "convergence",
        "reference_extra_refinements": 2,
    })
    rep = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    varpi = rep.column("varpi_max")[1:]
    rate_a = fitted_rate(rep.column("err_a"), 2)
    rate_l = fitted_rate(rep.column("err_lambda"), 2)
    rate_2 = fitted_rate(rep.column("err_l2"), 2)
    assert all(v <= 3 for v in varpi)
    assert 0.8 <= rate_a <= 1.2
    assert 1.7 <= rate_l <= 2.2
    assert 1.7 <= rate_2 <= 2.2
    assert elapsed < 300.0
    report_pass(8, f"zeta=100: varpi_max={max(varpi):.0f} (<= 3), rate_a={rate_a:.3f} "
                   f"in [0.8,1.2], rate_lambda={rate_l:.3f}, rate_l2={rate_2:.3f}, "
                   f"{elapsed:.0f}s")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    # prolongation reproduces constants and linears exactly
    for dim in (2, 3):
        h = build_hierarchy(dim, 2, 2)
        P = h.prolongations[0]
        assert np.array_equal(P @ np.ones(h.levels[0].n_vertices),
                              np.ones(h.levels[1].n_vertices))
        for axis in range(dim):
            assert np.array_equal(P @ h.levels[0].vertices[:, axis],
                                  h.levels[1].vertices[:, axis])
    # mass matrix sums to the box volume
    for dim in (2, 3):
        from fmgeig.mesh import build_initial_mesh
        M = assemble_mass(build_initial_mesh(dim, 3), interior_only=False)
        assert abs(M.sum() - 1.0) <= 1e-12
    # Galerkin coarsening reproduces the assembled coarse stiffness
    h = build_hierarchy(2, 4, 2)
    A_c = assemble_stiffness(h.levels[0], GPE).toarray()
    A_f = assemble_stiffness(h.levels[1], GPE)
    P = h.interior_prolongation(0)
    assert np.abs((P.T @ A_f @ P).toarray() - A_c).max() <= 1e-12 * np.abs(A_c).max()
    # every returned eigenpair is b-normalized
    for zeta in (0.0, 1.0):
        spec = ProblemSpec(dim=2, zeta=zeta)
        h2 = build_hierarchy(2, 8, 2)
        res = full_multigrid(h2, spec)
        M = assemble_mass(h2.levels[1])
        u = res.pair.u.coefficients
        assert abs(u @ (M @ u) - 1.0) <= 1e-12
    # 50 seeded random pencils against the dense full-spectrum oracle
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = 5 + (seed * 7) % 46
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
        Q = rng.standard_normal((n, n))
        M = Q @ Q.T + n * np.eye(n)
        lam, _ = smallest_eigpair(A, M, tol=1e-10)
        oracle = scipy.linalg.eigh(A, M, eigvals_only=True)[0]
        worst = max(worst, abs(lam - oracle))
    assert worst <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report_pass(9, f"transfer/mass/Galerkin/normalization identities hold; "
                   f"50-pencil oracle max |dlambda| = {worst:.2e} (<= 1e-8), "
                   f"{elapsed:.0f}s")


def test_criterion_10_3d_smoke():
    t0 = time.perf_counter()
    spec = ProblemSpec(dim=3, zeta=1.0)
    hierarchy = build_hierarchy(3, 8, 4)
    result = full_multigrid(hierarchy.truncated(3), spec)
    lams = result.lambdas
    assert [t.n_elements for t in result.traces] == [3072, 24576, 196608]
    assert all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))
    reference = solve_reference(hierarchy, spec, ref_tol=1e-12,
                                warm=result.traces[-1].coefficients, warm_level=2)
    errs_a, errs_l = [], []
    for k, tr in enumerate(result.traces):
        el, ea, _ = reference.errors(k, tr.lam, tr.coefficients)
        errs_a.append(ea)
        errs_l.append(el)
    assert errs_a == sorted(errs_a, reverse=True)
    assert errs_l == sorted(errs_l, reverse=True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report_pass(10, f"3D ladder complete; lambda {', '.join(f'{l:.5f}' for l in lams)} "
                    f"monotone; a-errors {', '.join(f'{e:.3e}' for e in errs_a)} "
                    f"decreasing; {elapsed:.0f}s")
