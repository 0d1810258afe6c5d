import tracemalloc
from dataclasses import replace
from itertools import product
from math import factorial, pi

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fmgeig import fem
from fmgeig.fem import (
    _full_values,
    FeFunction,
    ProblemSpec,
    a_norm,
    apply_nonlinear_residual,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    harmonic_potential,
    l2_norm,
    nonlinear_load,
    span_moments,
    span_potential,
)
from fmgeig.linalg import WorkReport
from fmgeig.mesh import build_hierarchy, build_initial_mesh, refine


def _boundary_free(mesh):
    """Copy of the mesh with no boundary vertex: every vertex is a dof, so
    its interior-dof matrices are the full-vertex ones of the mesh."""
    return replace(mesh, boundary_vertex=np.zeros(mesh.n_vertices, dtype=bool))


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, zeta=-1.0)
    # the potential is |x|^2 or none: any other callable is refused
    with pytest.raises(ValueError, match="potential"):
        ProblemSpec(dim=2, potential=lambda x: (x ** 2).sum(axis=-1))
    with pytest.raises(ValueError):
        ProblemSpec(dim=4)


def test_quadrature_exact_to_degree_four():
    # Oracle: int over the reference simplex of a barycentric monomial is
    # d! * prod(e_i!) / (sum(e) + d)!  in volume-1 normalization.
    for dim in (2, 3):
        rule = fem._RULES[dim]
        assert rule.degree == 4
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        for exps in product(range(5), repeat=dim + 1):
            if sum(exps) > 4:
                continue
            quad = float(np.sum(rule.weights * np.prod(rule.points ** np.array(exps), axis=1)))
            exact = factorial(dim) * np.prod([factorial(e) for e in exps]) / factorial(sum(exps) + dim)
            assert quad == pytest.approx(exact, abs=1e-14)


def test_stiffness_no_interior_dofs():
    m = build_initial_mesh(2, 1)
    A = assemble_stiffness(m)
    assert A.shape == (0, 0)


def test_stiffness_five_point_stencil():
    # Oracle: on the uniform right-triangle pair the assembled P1 Laplacian
    # is the classical 5-point stencil, built here from grid adjacency alone.
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m).toarray()
    idx = {tuple(np.round(m.vertices[v] * 4).astype(int)): j
           for j, v in enumerate(m.interior_indices)}
    expected = np.zeros((9, 9))
    for (ix, iy), j in idx.items():
        expected[j, j] = 4.0
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            k = idx.get((ix + dx, iy + dy))
            if k is not None:
                expected[j, k] = -1.0
    assert np.array_equal(A, expected)


def test_stiffness_spd():
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(A.shape[0])
        assert v @ (A @ v) > 0


def test_mass_partition_of_unity():
    for dim in (2, 3):
        m = _boundary_free(build_initial_mesh(dim, 2))
        M = assemble_mass(m)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_element_matrix_hand_values():
    # Exact barycentric integrals give (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
    # per triangle; assembling the 2-cell unit square mesh yields these sums.
    m = _boundary_free(build_initial_mesh(2, 1))
    M = assemble_mass(m).toarray()
    hand = np.array([
        [4, 1, 1, 2],
        [1, 2, 0, 1],
        [1, 0, 2, 1],
        [2, 1, 1, 4],
    ]) / 24.0
    assert np.allclose(M, hand, atol=1e-15)


def test_mass_positive_definite():
    m = build_initial_mesh(3, 2)
    M = assemble_mass(m)
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = rng.standard_normal(M.shape[0])
        assert v @ (M @ v) > 0


def test_weighted_mass_zero_weight():
    m = _boundary_free(build_initial_mesh(2, 2))
    Z = assemble_weighted_mass(m, FeFunction(0, np.zeros(m.n_vertices)))
    assert Z.nnz == 0 or np.abs(Z.data).max() == 0.0


def test_weighted_mass_unit_weight_equals_mass():
    m = _boundary_free(build_initial_mesh(2, 3))
    M = assemble_mass(m).toarray()
    W1 = assemble_weighted_mass(m, FeFunction(0, np.ones(m.n_vertices))).toarray()
    assert np.allclose(W1, M, rtol=1e-13)


def test_weighted_mass_harmonic_total():
    # int over the unit square of x^2 + y^2 = 2/3
    m = _boundary_free(build_initial_mesh(2, 1))
    MW = assemble_weighted_mass(m, harmonic_potential)
    assert MW.sum() == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_weighted_mass_wrong_level_rejected():
    h = build_hierarchy(2, 2, 2)
    w = FeFunction(0, np.ones(h.levels[0].n_interior))
    with pytest.raises(ValueError):
        assemble_weighted_mass(h.levels[1], w)


def test_weighted_mass_rejects_a_raw_array():
    m = build_initial_mesh(2, 2)
    with pytest.raises(TypeError, match="FeFunction"):
        assemble_weighted_mass(m, np.ones(m.n_interior))


def test_weighted_mass_rejects_another_potential():
    # |x|^2 is the one analytic weight; another callable is not evaluated
    m = build_initial_mesh(2, 2)
    with pytest.raises(TypeError, match="harmonic_potential"):
        assemble_weighted_mass(m, lambda x: (x ** 2).sum(axis=-1))


def test_assembled_matrices_exactly_symmetric():
    m = build_initial_mesh(2, 5)
    A = assemble_stiffness(m)
    rng = np.random.default_rng(3)
    w = FeFunction(0, rng.standard_normal(m.n_interior))
    K = assemble_weighted_mass(m, w)
    for mat in (A, assemble_mass(m), K):
        diff = (mat - mat.T).tocsr()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_galerkin_coarsening_exact():
    h = build_hierarchy(2, 4, 2)
    P = h.interior_prolongation(0)
    for assemble in (assemble_stiffness, assemble_mass):
        coarse = assemble(h.levels[0]).toarray()
        fine = assemble(h.levels[1])
        galerkin = (P.T @ fine @ P).toarray()
        scale = np.abs(coarse).max()
        assert np.abs(galerkin - coarse).max() <= 1e-12 * scale


def test_residual_zero_function():
    m = build_initial_mesh(2, 4)
    spec = ProblemSpec(dim=2, zeta=1.0)
    r = apply_nonlinear_residual(m, spec, np.zeros(m.n_interior), 3.7)
    assert np.all(r == 0.0)


def test_residual_linear_case_exact():
    m = build_initial_mesh(2, 4)
    spec = ProblemSpec(dim=2, zeta=0.0)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(m.n_interior)
    lam = 11.0
    A = assemble_stiffness(m)
    MW = assemble_weighted_mass(m, harmonic_potential)
    M = assemble_mass(m)
    expected = (A + MW) @ u - lam * (M @ u)
    r = apply_nonlinear_residual(m, spec, u, lam)
    assert np.array_equal(r, expected)


def test_a_norm_zero_and_mismatch():
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m)
    assert a_norm(np.zeros(m.n_interior), A) == 0.0
    with pytest.raises(ValueError):
        a_norm(np.zeros(3), A)
    with pytest.raises(ValueError):
        l2_norm(np.zeros(3), assemble_mass(m))


def test_a_norm_dirichlet_energy_of_sine_interpolant():
    # Oracle: the Dirichlet energy of sin(pi x) sin(pi y) on the unit square
    # is pi^2 / 2; the P1 interpolant energy converges to it at O(h^2).
    target = pi ** 2 / 2
    errs = []
    for n in (16, 32, 64):
        m = build_initial_mesh(2, n)
        A = assemble_stiffness(m)
        vals = np.sin(pi * m.vertices[:, 0]) * np.sin(pi * m.vertices[:, 1])
        errs.append(abs(a_norm(vals[m.interior_indices], A) ** 2 - target))
    assert errs[-1] / target < 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
def test_a_norm_sign_flip_invariant(vals):
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m)
    u = np.array(vals)
    assert a_norm(u, A) == a_norm(-u, A)


def test_assumption_a_witness_bounded():
    # Empirical form of the Lipschitz-type bound for f(u) = W u + zeta u^3:
    # over a seeded set of unit-energy w, v, psi the ratio
    # |(f(w) - f(v), psi)| / ||w - v||_0 stays below a fixed constant.
    spec = ProblemSpec(dim=2)
    m = build_initial_mesh(2, 16)
    A = assemble_stiffness(m)
    M = assemble_mass(m)
    MW = assemble_weighted_mass(m, harmonic_potential)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        w, v, psi = (rng.standard_normal(m.n_interior) for _ in range(3))
        w /= a_norm(w, A)
        v /= a_norm(v, A)
        psi /= a_norm(psi, A)
        Mw2 = assemble_weighted_mass(m, FeFunction(0, w))
        Mv2 = assemble_weighted_mass(m, FeFunction(0, v))
        val = psi @ (MW @ (w - v)) + spec.zeta * (psi @ (Mw2 @ w - Mv2 @ v))
        worst = max(worst, abs(val) / l2_norm(w - v, M))
    assert worst <= 0.01


def _integrate_power(mesh, vertex_values, exponent):
    """Integral of u^exponent for P1 u given by full vertex values, by the
    degree-4 volume rule: exact for exponent <= 4."""
    rule = fem._RULES[mesh.dim]
    vals = vertex_values[mesh.cells] @ rule.points.T
    _, measures = _reference_geometry(mesh)
    return float(np.einsum("c,cq,q->", measures, vals ** exponent, rule.weights))


def test_integrate_power_against_analytic():
    # u = x on [0,1]^2 over all vertices: int x^2 = 1/3 and int x^4 = 1/5,
    # both exact for P1 with the degree-4 rule, by quadrature and through
    # the quadratic forms u'Mu and u'M_{u^2}u
    m = _boundary_free(build_initial_mesh(2, 3))
    u = m.vertices[:, 0]
    assert _integrate_power(m, u, 2) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert _integrate_power(m, u, 4) == pytest.approx(1.0 / 5.0, rel=1e-13)
    M = assemble_mass(m)
    Mu2 = assemble_weighted_mass(m, FeFunction(0, u))
    assert u @ (M @ u) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert u @ (Mu2 @ u) == pytest.approx(1.0 / 5.0, rel=1e-13)


def test_integrate_power_matches_weighted_mass_quadratic_form():
    m = build_initial_mesh(2, 4)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(m.n_interior)
    Mu2 = assemble_weighted_mass(m, FeFunction(0, u))
    assert u @ (Mu2 @ u) == pytest.approx(_integrate_power(m, _full_values(m, u), 4), rel=1e-12)


# --- fixed-pattern assembly against an independent plain-COO reference ------

def _reference_geometry(mesh, cells=None):
    """Barycentric gradients (nc, d+1, d) and measures by inverting the
    homogeneous vertex matrix of every cell (of `cells`, default all)."""
    cells = mesh.cells if cells is None else cells
    coords = mesh.vertices[cells]
    B = np.concatenate([np.ones((len(cells), mesh.dim + 1, 1)), coords], axis=2)
    grads = np.transpose(np.linalg.inv(B)[:, 1:, :], (0, 2, 1))
    return grads, np.abs(np.linalg.det(B)) / factorial(mesh.dim)


def _moment_tensor(dim, order):
    """T[k1..k_order] = int over a unit-measure simplex of prod lambda_k,
    from int lambda^alpha = alpha! d! |K| / (|alpha| + d)!."""
    n_loc = dim + 1
    T = np.empty((n_loc,) * order)
    for ks in product(range(n_loc), repeat=order):
        alpha = np.bincount(ks, minlength=n_loc)
        T[ks] = (np.prod([factorial(a) for a in alpha]) * factorial(dim)
                 / factorial(order + dim))
    return T


def _coo_reference(mesh, local):
    """Dense matrix summed from plain COO triplets, then restricted to the
    interior vertices."""
    n_loc = mesh.dim + 1
    rows = np.repeat(mesh.cells, n_loc, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, n_loc)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_vertices, mesh.n_vertices)).toarray()
    idx = mesh.interior_indices
    return A[np.ix_(idx, idx)]


def _assert_matches(assembled, reference):
    """Every entry within 1e-14 of the largest reference entry: the local
    matrices come from other formulas and are summed in another order, so
    the two agree to rounding, not bit for bit."""
    assert assembled.shape == reference.shape
    err = np.abs(assembled.toarray() - reference).max()
    assert err <= 1e-14 * np.abs(reference).max()


_TEST_DIVISIONS = {2: 3, 3: 2}


def _test_mesh(dim):
    return refine(build_initial_mesh(dim, _TEST_DIVISIONS[dim]))


# with_boundary=False runs on a boundary-free copy, whose interior dofs are
# all the vertices
@pytest.mark.parametrize("with_boundary", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_stiffness_and_mass_match_coo_reference(dim, with_boundary, monkeypatch):
    m = _test_mesh(dim)
    if not with_boundary:
        m = _boundary_free(m)
    # stream many blocks: 17 rounds down to whole parents, 16 cells
    monkeypatch.setattr(fem, "_BLOCK", 17)
    blocks = fem._cell_blocks(m)
    assert len(blocks) > 2 and {stop - start for start, stop in blocks[:-1]} == {16}
    grads, meas = _reference_geometry(m)
    local_a = np.einsum("c,cid,cjd->cij", meas, grads, grads)
    _assert_matches(assemble_stiffness(m), _coo_reference(m, local_a))
    local_m = np.einsum("c,ij->cij", meas, _moment_tensor(dim, 2))
    _assert_matches(assemble_mass(m), _coo_reference(m, local_m))


@pytest.mark.parametrize("with_boundary", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_weighted_mass_matches_coo_reference(dim, with_boundary, monkeypatch):
    m = _test_mesh(dim)
    if not with_boundary:
        m = _boundary_free(m)
    # weights are evaluated block by block of cells; 17 rounds down to whole
    # parents, 16 cells, and the blocks cover the mesh
    monkeypatch.setattr(fem, "_BLOCK", 17)
    blocks = fem._cell_blocks(m)
    assert len(blocks) > 2 and {stop - start for start, stop in blocks[:-1]} == {16}
    _, meas = _reference_geometry(m)
    # analytic weight |x|^2 = sum_kl (x_k . x_l) lambda_k lambda_l on a cell
    coords = m.vertices[m.cells]
    gram = np.einsum("ckd,cld->ckl", coords, coords)
    local = np.einsum("c,ckl,klij->cij", meas, gram, _moment_tensor(dim, 4))
    _assert_matches(assemble_weighted_mass(m, harmonic_potential), _coo_reference(m, local))
    # the square of a P1 weight, zero on the boundary the mesh has; on the
    # boundary-free copy it is nonzero on the box faces too
    w = np.random.default_rng(11).uniform(-1.0, 2.0, m.n_vertices)
    w[m.boundary_vertex] = 0.0
    weight = FeFunction(m.level_index, w[m.interior_indices])
    wc = w[m.cells]
    local = np.einsum("c,ck,cl,klij->cij", meas, wc, wc, _moment_tensor(dim, 4))
    _assert_matches(assemble_weighted_mass(m, weight), _coo_reference(m, local))


def _scale_data(A):
    A.data *= 2.0


def _overwrite_indices(A):
    A.indices[:] = 0


def _overwrite_indptr(A):
    A.indptr[1:] = 0


def _zero_then_prune(A):
    # pruning compacts indices and indptr in place
    A.data[::3] = 0.0
    A.eliminate_zeros()


@pytest.mark.parametrize("with_boundary", [True, False])
@pytest.mark.parametrize("mutate", [_scale_data, _overwrite_indices, _overwrite_indptr,
                                    _zero_then_prune])
def test_mutating_a_result_leaves_the_next_assembly_intact(mutate, with_boundary):
    m = build_initial_mesh(2, 4)
    if not with_boundary:
        m = _boundary_free(m)
    w = FeFunction(0, np.random.default_rng(2).standard_normal(m.n_interior))
    assemblers = [lambda: assemble_stiffness(m),
                  lambda: assemble_mass(m),
                  lambda: assemble_weighted_mass(m, w)]
    for assemble in assemblers:
        first = assemble()
        expected = first.toarray()
        mutate(first)
        again = assemble()
        assert np.array_equal(again.toarray(), expected)
        assert again.has_sorted_indices


def test_reassembly_reuses_cached_measures_and_pattern(monkeypatch):
    # after the first assembly on a mesh, a nonlinear reassembly only
    # refills values: no determinant, inverse, sort-unique or COO->CSR pass
    # (the measures are one constant per mesh, so only the pattern is kept)
    m = _test_mesh(3)
    w = FeFunction(m.level_index, np.random.default_rng(4).standard_normal(m.n_interior))
    expected = assemble_weighted_mass(m, w).toarray()

    def forbidden(*args, **kwargs):
        raise AssertionError("repeated on reassembly")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    monkeypatch.setattr(sp.coo_matrix, "tocsr", forbidden)
    monkeypatch.setattr(sp.coo_array, "tocsr", forbidden)
    assert np.array_equal(assemble_weighted_mass(m, w).toarray(), expected)
    assemble_mass(m)
    assemble_stiffness(m)


def _forbid(monkeypatch, *targets):
    def forbidden(*args, **kwargs):
        raise AssertionError("called during assembly")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, forbidden)


@pytest.mark.parametrize("dim", [2, 3])
def test_first_assembly_needs_no_det_inverse_or_cross(dim, monkeypatch):
    # cell measures and local stiffnesses come from the shape tables, so
    # even the first assembly on a fresh mesh (pattern, kernels) runs
    # without a batched determinant, inverse or cross product
    m = _test_mesh(dim)
    grads, meas = _reference_geometry(m)
    local_a = np.einsum("c,cid,cjd->cij", meas, grads, grads)
    local_m = np.einsum("c,ij->cij", meas, _moment_tensor(dim, 2))
    expected_a = _coo_reference(m, local_a)
    expected_m = _coo_reference(m, local_m)
    fresh = _test_mesh(dim)
    _forbid(monkeypatch, (np.linalg, "det"), (np.linalg, "inv"), (np, "cross"))
    _assert_matches(assemble_stiffness(fresh), expected_a)
    _assert_matches(assemble_mass(fresh), expected_m)
    assemble_weighted_mass(fresh, harmonic_potential)
    assemble_weighted_mass(fresh, FeFunction(fresh.level_index, np.ones(fresh.n_interior)))


@pytest.mark.parametrize("with_boundary", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_cached_slot_map_holds_only_upper_entries(dim, with_boundary):
    m = _test_mesh(dim)
    if not with_boundary:
        m = _boundary_free(m)
    assemble_mass(m)
    pattern = m.__dict__["_fem_pattern"]
    assert pattern.slot.shape == (m.n_cells * (dim + 1) * (dim + 2) // 2,)
    # one gather entry per stored CSR entry
    assert pattern.gather.shape == pattern.indices.shape


# --- streamed assembly: blocks of cells against the whole-mesh bincount -----

def _whole_mesh_bincount(mesh, pattern, entries, work=None):
    """The assembly before it streamed: every cell's upper entries at once,
    one bincount into the compact index, then the gather."""
    indptr, indices, slot, gather, n_compact = pattern
    up = entries(0, mesh.n_cells)
    sums = np.bincount(slot, weights=up.ravel(), minlength=n_compact)
    n = indptr.size - 1
    A = sp.csr_matrix((sums[gather], indices.copy(), indptr.copy()), shape=(n, n))
    A.eliminate_zeros()
    return A


def _every_kind(mesh):
    """One assembly of every kind on the mesh: stiffness, mass, the analytic
    potential and the square of a P1 weight."""
    u = FeFunction(mesh.level_index,
                   np.random.default_rng(8).standard_normal(mesh.n_interior))
    return [assemble_stiffness(mesh),
            assemble_mass(mesh),
            assemble_weighted_mass(mesh, harmonic_potential),
            assemble_weighted_mass(mesh, u)]


_STREAM_MESHES = {
    "refined-2d": lambda: _test_mesh(2),
    "refined-3d": lambda: _test_mesh(3),
    "refined-3d-free": lambda: _boundary_free(_test_mesh(3)),
    "level0-2d": lambda: build_initial_mesh(2, 5),
    "level0-3d": lambda: build_initial_mesh(3, 2),
    # fewer cells than one block of 17
    "tiny-refined-2d": lambda: refine(build_initial_mesh(2, 1)),
    "tiny-3d": lambda: build_initial_mesh(3, 1),
}


# 17 is no multiple of 2^d, so refined meshes round it down to whole
# parents; 41 leaves a ragged last block on every mesh above one block
@pytest.mark.parametrize("block", [17, 41, None])
@pytest.mark.parametrize("case", sorted(_STREAM_MESHES))
def test_streamed_assembly_is_bit_identical_to_whole_mesh_bincount(case, block, monkeypatch):
    mesh = _STREAM_MESHES[case]()
    with monkeypatch.context() as patch:
        patch.setattr(fem, "_assemble", _whole_mesh_bincount)
        expected = _every_kind(mesh)
    if block is not None:
        monkeypatch.setattr(fem, "_BLOCK", block)
    blocks = fem._cell_blocks(mesh)
    assert blocks[0][0] == 0 and blocks[-1][1] == mesh.n_cells
    assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
    if mesh.n_parent_vertices:
        assert all(start % 2 ** mesh.dim == 0 for start, _ in blocks)
    if block is None or mesh.n_cells < block:
        assert len(blocks) == 1
    # a one-cell block would turn the per-block matrix products into
    # matrix-vector products, which BLAS may round differently
    assert mesh.n_cells == 1 or min(stop - start for start, stop in blocks) > 1
    for streamed, whole in zip(_every_kind(mesh), expected):
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(streamed, name), getattr(whole, name))


def _transient(call):
    """Traced peak memory of call() above what is still allocated after it:
    the peak above live memory, minus the result and any cache it fills."""
    tracemalloc.reset_peak()
    result = call()
    kept, peak = tracemalloc.get_traced_memory()
    del result
    return peak - kept


def test_assembly_and_pattern_transients_do_not_scale_with_all_entries(monkeypatch):
    # the finest level of build_hierarchy(3, 4, 3), 24,576 cells, in blocks
    # of 256 cells: no kernel holds all cells' upper entries (or their
    # quadrature values) at once; the whole-mesh kernels took 1.8-7.5 times
    # cells * entries * 8 bytes above their results, the pattern build 2.6
    mesh = build_hierarchy(3, 4, 3).levels[-1]
    assert mesh.n_cells == 24_576
    monkeypatch.setattr(fem, "_BLOCK", 256)
    entries_bytes = mesh.n_cells * 10 * 8
    u = FeFunction(mesh.level_index,
                   np.random.default_rng(9).standard_normal(mesh.n_interior))
    kinds = {"stiffness": lambda: assemble_stiffness(mesh),
             "mass": lambda: assemble_mass(mesh),
             "potential": lambda: assemble_weighted_mass(mesh, harmonic_potential),
             "nonlinear": lambda: assemble_weighted_mass(mesh, u)}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        pattern = _transient(lambda: fem._build_pattern(mesh))
        fem._pattern(mesh)
        transients = {name: _transient(call) for name, call in kinds.items()}
    finally:
        if not tracing:
            tracemalloc.stop()
    assert pattern < 1.3 * entries_bytes
    for name, transient in transients.items():
        assert transient < 0.5 * entries_bytes, name


# --- refined meshes: edges from the parent cells, entries from the shapes ---

def _closed_form(mesh):
    """The same mesh without its refinement record, so its pattern takes the
    sort-unique edges."""
    return replace(mesh, n_parent_vertices=0)


@pytest.mark.parametrize("config", [(3, 8, 3), (2, 8, 6)])
def test_refined_levels_assemble_bit_identical_to_closed_form(config):
    # on the benchmark hierarchies the edges derived from the parent cells
    # give the sort-unique pattern exactly, so every kind assembles the
    # same arrays on both
    h = build_hierarchy(*config)
    for mesh in h.meshes:
        u = FeFunction(mesh.level_index,
                       np.random.default_rng(mesh.level_index).standard_normal(mesh.n_interior))
        for assemble in (assemble_stiffness, assemble_mass,
                         lambda m: assemble_weighted_mass(m, harmonic_potential),
                         lambda m: assemble_weighted_mass(m, u)):
            derived, closed = assemble(mesh), assemble(_closed_form(mesh))
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(derived, name), getattr(closed, name))


def _sparse_stiffness_reference(mesh, block=1 << 14):
    """Interior stiffness summed from plain COO triplets of the inverted
    vertex matrices, block by block of cells."""
    n_loc = mesh.dim + 1
    A = sp.csr_matrix((mesh.n_vertices, mesh.n_vertices))
    for start in range(0, mesh.n_cells, block):
        cells = mesh.cells[start:start + block]
        grads, meas = _reference_geometry(mesh, cells)
        local = np.einsum("c,cid,cjd->cij", meas, grads, grads)
        rows = np.repeat(cells, n_loc, axis=1).ravel()
        cols = np.tile(cells, (1, n_loc)).ravel()
        A = A + sp.coo_matrix((local.ravel(), (rows, cols)), shape=A.shape).tocsr()
    idx = mesh.interior_indices
    return A[idx][:, idx]


# (dim, divisions) of unit-box meshes whose spacing is no binary fraction
_NON_BINARY = {"2d": (2, 3), "3d": (3, 5), "3d-7": (3, 7)}


# depth 3 of 7 divisions (1.05M cells) is left out for its size
@pytest.mark.parametrize("case, depth", [
    (case, depth) for case in _NON_BINARY for depth in (1, 2, 3) if (case, depth) != ("3d-7", 3)])
def test_refined_stiffness_on_non_binary_meshes(case, depth):
    # a spacing that is no binary fraction: the table entries times h round
    # differently from the inverted vertex matrices, so the values agree to
    # rounding; every entry is an integer multiple of one float, so the
    # couplings that cancel are exact zeros and the nonzeros are the
    # reference's above rounding; the derived edges give the sort-unique
    # pattern
    dim, divisions = _NON_BINARY[case]
    mesh = build_initial_mesh(dim, divisions)
    for _ in range(depth):
        mesh = refine(mesh)
    closed = _closed_form(mesh)
    A = assemble_stiffness(mesh)
    assemble_stiffness(closed)
    derived, reference = (m.__dict__["_fem_pattern"] for m in (mesh, closed))
    assert np.array_equal(derived.indptr, reference.indptr)
    assert np.array_equal(derived.indices, reference.indices)
    assert derived.n_compact == reference.n_compact
    R = _sparse_stiffness_reference(mesh)
    bound = 1e-14 * abs(R).max()
    assert abs(A - R).max() <= bound
    assert A.nnz == np.count_nonzero(abs(R.data) > bound)


def test_stiffness_and_mass_read_no_vertex_coordinates(monkeypatch):
    # the stiffness and mass of a copy whose vertices are all NaN equal the
    # original's bit for bit: they take the spacing and the cell shapes,
    # never the vertices; a refined mesh's pattern sorts at most 13
    # midpoint pairs per parent
    unique, sizes = np.unique, []

    def recorded(*args, **kwargs):
        sizes.append(np.size(args[0]))
        return unique(*args, **kwargs)

    meshes = [_test_mesh(dim) for dim in (2, 3)]
    monkeypatch.setattr(np, "unique", recorded)
    for mesh in meshes:
        blind = replace(mesh, vertices=np.full_like(mesh.vertices, np.nan))
        for assemble in (assemble_stiffness, assemble_mass):
            expected, got = assemble(mesh), assemble(blind)
            for name in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, name), getattr(expected, name))
    assert sizes and max(sizes) <= 13 * (mesh.n_cells // 8)


# --- what the correction levels compute without W_h or Mnl_h ---------------

@pytest.mark.parametrize("zeta", [0.0, 1.0])
@pytest.mark.parametrize("potential", [harmonic_potential, None])
@pytest.mark.parametrize("dim", [2, 3])
def test_nonlinear_load_matches_the_assembled_matrices(dim, potential, zeta, monkeypatch):
    # one streamed pass over ragged blocks gives W_h u + zeta Mnl(u) u up to
    # rounding, and counts one work unit per local entry
    mesh = _test_mesh(dim)
    monkeypatch.setattr(fem, "_BLOCK", 41)
    spec = ProblemSpec(dim=dim, potential=potential, zeta=zeta)
    u = np.random.default_rng(12).standard_normal(mesh.n_interior)
    expected = np.zeros(mesh.n_interior)
    if potential is not None:
        expected += assemble_weighted_mass(mesh, potential) @ u
    if zeta:
        expected += zeta * (assemble_weighted_mass(mesh, FeFunction(mesh.level_index, u)) @ u)
    work = WorkReport()
    load = nonlinear_load(mesh, spec, u, work)
    if potential is None and not zeta:
        assert np.all(load == 0.0) and work.work_units == 0
        return
    assert np.abs(load - expected).max() <= 1e-13 * np.abs(expected).max()
    assert work.work_units == mesh.n_cells * (dim + 1)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_span_potential_matches_the_fine_potential_products(dim, depth):
    # B' W_h t and t' W_h t from the span moments of t and the coarse
    # cells' vertex Gram matrices, one and two refinements below V_H
    h = build_hierarchy(dim, 3 if dim == 2 else 2, depth + 1)
    coarse, fine = h.levels[0], h.levels[depth]
    t = np.random.default_rng(13).standard_normal(fine.n_interior)
    Wt = assemble_weighted_mass(fine, harmonic_potential) @ t
    expected = h.coarse_to_level_interior(depth).T @ Wt
    moments = span_moments(coarse, fine, t)
    work = WorkReport()
    border, corner = span_potential(coarse, moments, work)
    assert np.abs(border - expected).max() <= 1e-13 * np.abs(expected).max()
    assert abs(corner - t @ Wt) <= 1e-13 * abs(t @ Wt)
    assert work.work_units == moments.s3.size + moments.s2.size
