import sys
from collections import Counter

import numpy as np
import pytest

from fmgeig import eigsolve, fem, linalg
from fmgeig.eigsolve import ScfSettings, scf_solve
from fmgeig.fem import ProblemSpec, a_norm
from fmgeig.fmg import (
    FmgParams,
    build_workspace,
    full_multigrid,
    one_correction_step,
)
from fmgeig.mesh import build_hierarchy

GPE = ProblemSpec(dim=2, zeta=1.0)
LAPLACE = ProblemSpec(dim=2, potential=None, zeta=0.0)


def direct_solution(ws, level, tol=1e-12):
    res = scf_solve(ws.level_spaces[level], ws.spec,
                    ScfSettings(tol_lambda=tol, tol_u=tol, max_iter=500))
    return res.pair.lam, res.pair.u.coefficients


def err_a(ws, level, u, u_star):
    ops = ws.level_spaces[level]
    v = u if u @ (ops.mass @ u_star) >= 0 else -u
    return a_norm(v - u_star, ops.stiffness)


def test_params_validation():
    with pytest.raises(ValueError):
        FmgParams(m=0)
    with pytest.raises(ValueError):
        FmgParams(p=0)
    with pytest.raises(ValueError):
        FmgParams(varpi=0)


def test_correction_level_bounds():
    h = build_hierarchy(2, 8, 2)
    ws = build_workspace(h, GPE)
    with pytest.raises(ValueError):
        one_correction_step(ws, 0, 20.0, np.ones(h.levels[0].n_interior))


def test_correction_fixed_point():
    # feeding the level's direct solution must return it within inner tolerances
    h = build_hierarchy(2, 8, 3)
    ws = build_workspace(h, GPE)
    lam_star, u_star = direct_solution(ws, 2)
    lam, u, _ = one_correction_step(ws, 2, lam_star, u_star)
    assert err_a(ws, 2, u, u_star) <= 1e-8
    assert abs(lam - lam_star) <= 1e-8


def test_correction_contracts_laplace():
    # one correction from the prolongated coarse pair on a 32x32 level
    h = build_hierarchy(2, 8, 3)
    ws = build_workspace(h, LAPLACE)
    res0 = scf_solve(ws.level_spaces[0], LAPLACE)
    lam, u = res0.pair.lam, res0.pair.u.coefficients
    lam, u, _ = one_correction_step(ws, 1, lam, h.interior_prolongation(0) @ u)
    u2 = h.interior_prolongation(1) @ u
    lam_star, u_star = direct_solution(ws, 2)
    e0 = err_a(ws, 2, u2, u_star)
    lam2, u2c, _ = one_correction_step(ws, 2, lam, u2)
    gamma_obs = err_a(ws, 2, u2c, u_star) / e0
    assert gamma_obs < 1.0


def test_correction_output_normalized():
    h = build_hierarchy(2, 8, 2)
    ws = build_workspace(h, GPE)
    res0 = scf_solve(ws.level_spaces[0], GPE)
    lam, u, _ = one_correction_step(ws, 1, res0.pair.lam,
                                    h.interior_prolongation(0) @ res0.pair.u.coefficients)
    M = ws.level_spaces[1].mass
    assert u @ (M @ u) == pytest.approx(1.0, abs=1e-12)
    assert u[np.argmax(np.abs(u))] > 0


def test_full_multigrid_single_level_equals_scf():
    h = build_hierarchy(2, 8, 1)
    res = full_multigrid(h, GPE)
    ws = build_workspace(h, GPE)
    ref = scf_solve(ws.level_spaces[0], GPE, FmgParams().scf)
    assert res.pair.lam == pytest.approx(ref.pair.lam, abs=1e-12)
    assert np.allclose(res.pair.u.coefficients, ref.pair.u.coefficients, atol=1e-10)
    assert len(res.traces) == 1


def test_full_multigrid_lambda_monotone_and_traces():
    h = build_hierarchy(2, 8, 4)
    params = FmgParams(p=2)
    res = full_multigrid(h, GPE, params)
    lams = res.lambdas
    assert all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))
    for t in res.traces[1:]:
        assert len(t.records) == params.p
        assert t.varpi_max <= params.varpi
        # the prolongated start, then one iterate per correction
        assert len(t.iterates) == params.p + 1
        assert t.coefficients is t.iterates[-1]
    assert [t.n_elements for t in res.traces] == [128, 512, 2048, 8192]


def test_full_multigrid_close_to_direct_solution():
    h = build_hierarchy(2, 8, 4)
    res = full_multigrid(h, GPE)
    ws = build_workspace(h, GPE)
    lam_star, u_star = direct_solution(ws, 3)
    # algebraic error of the returned iterate is far below discretization size
    assert abs(res.pair.lam - lam_star) < 1e-5
    assert err_a(ws, 3, res.pair.u.coefficients, u_star) < 1e-2


def test_full_multigrid_work_budget():
    h = build_hierarchy(2, 8, 5)
    res = full_multigrid(h, GPE)
    w = [t.work_units for t in res.traces]
    assert sum(w) <= 2.2 * w[-1]
    assert w == sorted(w)


def test_gamma_improves_with_more_mg_iterations():
    for spec in (LAPLACE, GPE):
        h = build_hierarchy(2, 8, 3)
        gammas = {}
        for m in (1, 3):
            ws = build_workspace(h, spec, FmgParams(m=m))
            res0 = scf_solve(ws.level_spaces[0], spec, ws.params.scf)
            lam, u = res0.pair.lam, res0.pair.u.coefficients
            lam, u, _ = one_correction_step(ws, 1, lam, h.interior_prolongation(0) @ u)
            u2 = h.interior_prolongation(1) @ u
            lam_star, u_star = direct_solution(ws, 2)
            e0 = err_a(ws, 2, u2, u_star)
            _, u2c, _ = one_correction_step(ws, 2, lam, u2)
            gammas[m] = err_a(ws, 2, u2c, u_star) / e0
        assert gammas[3] < gammas[1] < 1.0


def test_full_multigrid_with_strictly_coarser_correction_space():
    # V_H one refinement below the first solve level
    h = build_hierarchy(2, 8, 3, coarse_offset=1)
    assert h.coarse is not None
    assert h.coarse.n_cells * 4 == h.levels[0].n_cells
    res = full_multigrid(h, GPE)
    lams = res.lambdas
    assert all(lams[i + 1] < lams[i] for i in range(len(lams) - 1))
    ws = build_workspace(h, GPE)
    lam_star, u_star = direct_solution(ws, 2)
    assert abs(res.pair.lam - lam_star) < 1e-4


@pytest.mark.parametrize("offset", [0, 1])
def test_full_multigrid_assembles_every_mesh_once(monkeypatch, offset):
    # every mesh assembles its stiffness and mass once, and the potential
    # only where a solve needs L = K + W: level 0's SCF and the correction
    # space V_H (one mesh when the offset is 0).  The correction levels
    # assemble no potential and no nonlinear matrix: their right sides are
    # load passes, their borders K t and the moments of t
    calls = Counter()

    def counting(name):
        original = getattr(eigsolve, name)

        def counted(mesh, *args, **kwargs):
            kind = name
            if name == "assemble_weighted_mass":
                kind = "potential" if callable(args[0]) else "nonlinear"
            calls[kind, mesh.level_index] += 1
            return original(mesh, *args, **kwargs)
        return counted

    for name in ("assemble_stiffness", "assemble_mass", "assemble_weighted_mass"):
        monkeypatch.setattr(eigsolve, name, counting(name))
    h = build_hierarchy(2, 4, 3, coarse_offset=offset)
    res = full_multigrid(h, GPE)
    assert [ls._linear is not None for ls in res.level_spaces] == [True, False, False]
    nonlinear = Counter({key: n for key, n in calls.items() if key[0] == "nonlinear"})
    assert set(nonlinear) == {("nonlinear", h.coarse.level_index),
                              ("nonlinear", h.levels[0].level_index)}
    expected = Counter({(name, mesh.level_index): 1 for mesh in h.meshes
                        for name in ("assemble_stiffness", "assemble_mass")})
    expected.update({("potential", h.coarse.level_index), ("potential", h.levels[0].level_index)})
    assert calls - nonlinear == expected


def test_correction_levels_build_no_slot_map_and_k_and_m_visit_no_cell(monkeypatch):
    # K and M are read from the Kuhn stencil tables, so no stiffness or
    # mass assembly streams the cells, and only level 0, whose SCF
    # assembles W and Mnl, builds the per-cell slot map
    blocks = fem._cell_blocks

    def guarded(mesh):
        frame = sys._getframe(1)
        while frame is not None:
            if (frame.f_globals.get("__name__") == fem.__name__
                    and frame.f_code.co_name in ("assemble_stiffness", "assemble_mass")):
                raise AssertionError(f"{frame.f_code.co_name} visits the cells")
            frame = frame.f_back
        return blocks(mesh)

    monkeypatch.setattr(fem, "_cell_blocks", guarded)
    h = build_hierarchy(3, 8, 3)
    full_multigrid(h, ProblemSpec(dim=3, zeta=1.0))
    assert "_fem_slots" in h.meshes[0].__dict__
    assert not any("_fem_slots" in mesh.__dict__ for mesh in h.meshes[1:])


def test_ladder_runs_no_dense_eigensolve_and_no_potential_at_quadrature_points(monkeypatch):
    # the augmented pencils run LOBPCG, whose only LAPACK eigh is the 3x3
    # Rayleigh-Ritz step; W and the load's W u are read from the stencil
    # tables, so no cell-streamed kernel reads a vertex position: |x|^2 at
    # a cell's quadrature points would read the grid inside the block loop
    eigh, blocks = eigsolve.scipy.linalg.eigh, fem._cell_blocks

    def small_eigh(a, b=None, **kwargs):
        if a.shape[0] > 3:
            raise AssertionError(f"dense {a.shape} eigensolve")
        return eigh(a, b, **kwargs)

    class Blind:
        """The grid's shape (the vertex count) without its positions."""

        def __init__(self, shape):
            self.shape = shape

        def __getattr__(self, name):
            raise AssertionError("a cell-streamed kernel reads the grid")

        def __array__(self, *args, **kwargs):
            raise AssertionError("a cell-streamed kernel reads the grid")

    def blinded(mesh):
        grid = mesh.grid
        for block in blocks(mesh):
            object.__setattr__(mesh, "grid", Blind(grid.shape))
            try:
                yield block
            finally:
                object.__setattr__(mesh, "grid", grid)

    monkeypatch.setattr(eigsolve.scipy.linalg, "eigh", small_eigh)
    monkeypatch.setattr(fem, "_cell_blocks", blinded)
    h = build_hierarchy(3, 8, 3)
    res = full_multigrid(h, ProblemSpec(dim=3, zeta=1.0))
    assert abs(res.pair.lam - 33.819099419347445) <= 1e-12 * res.pair.lam
    assert all(isinstance(mesh.grid, np.ndarray) for mesh in h.meshes)


def test_ladder_factors_no_pencil_per_sweep(monkeypatch):
    # LOBPCG needs an SPD preconditioner, not this sweep's inverse: level 0
    # keeps the LU of L (the other LU is the ladder's stiffness chain), each
    # correction factors its first augmented pencil only, and V_H's mass is
    # factored once for both corrections
    splu, cho_factor = linalg.spla.splu, eigsolve.scipy.linalg.cho_factor
    lus, choleskys = [], []

    def counting_splu(A, *args, **kwargs):
        lus.append(A.shape)
        return splu(A, *args, **kwargs)

    def counting_cho_factor(A, *args, **kwargs):
        choleskys.append(A.shape)
        return cho_factor(A, *args, **kwargs)

    monkeypatch.setattr(linalg.spla, "splu", counting_splu)
    monkeypatch.setattr(eigsolve.scipy.linalg, "cho_factor", counting_cho_factor)
    res = full_multigrid(build_hierarchy(3, 8, 3), ProblemSpec(dim=3, zeta=1.0))
    corrections = sum(len(t.records) for t in res.traces)
    n = res.level_spaces[0].n_dofs
    assert corrections == 2 and len(lus) <= 2
    assert choleskys.count((n, n)) == 1
    assert choleskys.count((n + 1, n + 1)) <= corrections
    assert len(choleskys) <= corrections + 1


def test_work_report_shared_and_monotone():
    h = build_hierarchy(2, 8, 3)
    res = full_multigrid(h, GPE)
    assert res.work.scf_iterations > 0
    assert res.work.assemblies > 0
    assert res.work.coarse_solves > 0
    assert res.work.work_units >= sum(t.work_units for t in res.traces)


def test_correction_records_tell_converged_from_capped():
    # with the default cap of 3 sweeps varpi == 3 cannot say whether the
    # augmented solve converged on its last sweep or stopped at the cap
    h = build_hierarchy(2, 8, 3)
    capped = full_multigrid(h, GPE, FmgParams(varpi=1))
    loose = full_multigrid(h, GPE, FmgParams(varpi=30))
    for t in capped.traces[1:]:
        assert [(r.varpi, r.converged) for r in t.records] == [(1, False)]
    for t in loose.traces[1:]:
        assert all(r.converged and 1 < r.varpi < 30 for r in t.records)
