from itertools import product
from math import factorial, pi

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fmgeig import fem
from fmgeig.errors import AssemblyError
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
    quadrature_rule,
)
from fmgeig.mesh import MeshLevel, build_hierarchy, build_initial_mesh, cell_measures, refine


LAPLACE_2D = ProblemSpec(dim=2, potential=None, zeta=0.0)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, zeta=-1.0)
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, sigma=0)
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, diffusion=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, diffusion=np.array([[1.0, 0.0], [0.0, -1.0]]))
    spec = ProblemSpec(dim=2, diffusion=np.diag([2.0, 3.0]))
    assert np.allclose(spec.diffusion_matrix, np.diag([2.0, 3.0]))


def test_quadrature_exact_to_degree_four():
    # Oracle: int over the reference simplex of a barycentric monomial is
    # d! * prod(e_i!) / (sum(e) + d)!  in volume-1 normalization.
    for dim in (2, 3):
        rule = quadrature_rule(dim, 4)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        for exps in product(range(5), repeat=dim + 1):
            if sum(exps) > 4:
                continue
            quad = float(np.sum(rule.weights * np.prod(rule.points ** np.array(exps), axis=1)))
            exact = factorial(dim) * np.prod([factorial(e) for e in exps]) / factorial(sum(exps) + dim)
            assert quad == pytest.approx(exact, abs=1e-14)


def test_quadrature_degree_limit():
    with pytest.raises(AssemblyError):
        quadrature_rule(2, 6)


def test_stiffness_no_interior_dofs():
    m = build_initial_mesh(2, 1)
    A = assemble_stiffness(m, LAPLACE_2D)
    assert A.shape == (0, 0)


def test_stiffness_five_point_stencil():
    # Oracle: on the uniform right-triangle pair the assembled P1 Laplacian
    # is the classical 5-point stencil, built here from grid adjacency alone.
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m, LAPLACE_2D).toarray()
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
    A = assemble_stiffness(m, LAPLACE_2D)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(A.shape[0])
        assert v @ (A @ v) > 0


def test_mass_partition_of_unity():
    for dim in (2, 3):
        m = build_initial_mesh(dim, 2)
        M = assemble_mass(m, interior_only=False)
        assert M.sum() == pytest.approx(1.0, abs=1e-12)


def test_mass_element_matrix_hand_values():
    # Exact barycentric integrals give (area/12) * [[2,1,1],[1,2,1],[1,1,2]]
    # per triangle; assembling the 2-cell unit square mesh yields these sums.
    m = build_initial_mesh(2, 1)
    M = assemble_mass(m, interior_only=False).toarray()
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
    m = build_initial_mesh(2, 2)
    Z = assemble_weighted_mass(m, np.zeros(m.n_vertices), 1, interior_only=False)
    assert Z.nnz == 0 or np.abs(Z.data).max() == 0.0


def test_weighted_mass_unit_weight_equals_mass():
    m = build_initial_mesh(2, 3)
    M = assemble_mass(m, interior_only=False).toarray()
    W1 = assemble_weighted_mass(m, np.ones(m.n_vertices), 1, interior_only=False).toarray()
    assert np.allclose(W1, M, rtol=1e-13)


def test_weighted_mass_harmonic_total():
    # int over the unit square of x^2 + y^2 = 2/3
    m = build_initial_mesh(2, 1)
    MW = assemble_weighted_mass(m, harmonic_potential, 1, interior_only=False)
    assert MW.sum() == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_weighted_mass_wrong_level_rejected():
    h = build_hierarchy(2, 2, 2)
    w = FeFunction(0, np.ones(h.levels[0].n_interior))
    with pytest.raises(ValueError):
        assemble_weighted_mass(h.levels[1], w, 2)


def test_weighted_mass_degree_limit():
    m = build_initial_mesh(2, 2)
    w = FeFunction(0, np.ones(m.n_interior))
    with pytest.raises(AssemblyError):
        assemble_weighted_mass(m, w, 4)  # sigma = 2 nonlinearity


def test_assembled_matrices_exactly_symmetric():
    m = build_initial_mesh(2, 5)
    spec = ProblemSpec(dim=2, diffusion=np.array([[2.0, 0.5], [0.5, 1.0]]), zeta=1.0)
    A = assemble_stiffness(m, spec)
    rng = np.random.default_rng(3)
    w = FeFunction(0, rng.standard_normal(m.n_interior))
    K = assemble_weighted_mass(m, w, 2)
    for mat in (A, assemble_mass(m), K):
        diff = (mat - mat.T).tocsr()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_degenerate_cell_reported():
    m = build_initial_mesh(2, 1)
    bad_cells = m.cells.copy()
    bad_cells[1, 1] = bad_cells[1, 0]  # collapse an edge
    broken = MeshLevel(dim=2, vertices=m.vertices, cells=bad_cells,
                       boundary_vertex=m.boundary_vertex, level_index=0,
                       mesh_size=m.mesh_size, box=m.box)
    with pytest.raises(AssemblyError, match="cell 1"):
        assemble_stiffness(broken, LAPLACE_2D)


def test_galerkin_coarsening_exact():
    h = build_hierarchy(2, 4, 2)
    spec = ProblemSpec(dim=2)
    P = h.interior_prolongation(0)
    for assemble in (lambda lv: assemble_stiffness(lv, spec), assemble_mass):
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
    A = assemble_stiffness(m, spec)
    MW = assemble_weighted_mass(m, harmonic_potential, 1)
    M = assemble_mass(m)
    expected = (A + MW) @ u - lam * (M @ u)
    r = apply_nonlinear_residual(m, spec, u, lam)
    assert np.array_equal(r, expected)


def test_a_norm_zero_and_mismatch():
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m, LAPLACE_2D)
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
        A = assemble_stiffness(m, LAPLACE_2D)
        vals = np.sin(pi * m.vertices[:, 0]) * np.sin(pi * m.vertices[:, 1])
        errs.append(abs(a_norm(vals[m.interior_indices], A) ** 2 - target))
    assert errs[-1] / target < 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=9, max_size=9))
def test_a_norm_sign_flip_invariant(vals):
    m = build_initial_mesh(2, 4)
    A = assemble_stiffness(m, LAPLACE_2D)
    u = np.array(vals)
    assert a_norm(u, A) == a_norm(-u, A)


def test_assumption_a_witness_bounded():
    # Empirical form of the Lipschitz-type bound for f(u) = W u + zeta u^3:
    # over a seeded set of unit-energy w, v, psi the ratio
    # |(f(w) - f(v), psi)| / ||w - v||_0 stays below a fixed constant.
    spec = ProblemSpec(dim=2)
    m = build_initial_mesh(2, 16)
    A = assemble_stiffness(m, spec)
    M = assemble_mass(m)
    MW = assemble_weighted_mass(m, harmonic_potential, 1)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(30):
        w, v, psi = (rng.standard_normal(m.n_interior) for _ in range(3))
        w /= a_norm(w, A)
        v /= a_norm(v, A)
        psi /= a_norm(psi, A)
        Mw2 = assemble_weighted_mass(m, FeFunction(0, w), 2)
        Mv2 = assemble_weighted_mass(m, FeFunction(0, v), 2)
        val = psi @ (MW @ (w - v)) + spec.zeta * (psi @ (Mw2 @ w - Mv2 @ v))
        worst = max(worst, abs(val) / l2_norm(w - v, M))
    assert worst <= 0.01


def _integrate_power(mesh, vertex_values, exponent):
    """Integral of u^exponent for P1 u given by full vertex values, by the
    degree-4 volume rule: exact for exponent <= 4."""
    rule = quadrature_rule(mesh.dim)
    vals = vertex_values[mesh.cells] @ rule.points.T
    return float(np.einsum("c,cq,q->", cell_measures(mesh), vals ** exponent, rule.weights))


def test_integrate_power_against_analytic():
    # u = x on [0,1]^2 over all vertices: int x^2 = 1/3 and int x^4 = 1/5,
    # both exact for P1 with the degree-4 rule, by quadrature and through
    # the quadratic forms u'Mu and u'M_{u^2}u
    m = build_initial_mesh(2, 3)
    u = m.vertices[:, 0]
    assert _integrate_power(m, u, 2) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert _integrate_power(m, u, 4) == pytest.approx(1.0 / 5.0, rel=1e-13)
    M = assemble_mass(m, interior_only=False)
    Mu2 = assemble_weighted_mass(m, u, 2, interior_only=False)
    assert u @ (M @ u) == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert u @ (Mu2 @ u) == pytest.approx(1.0 / 5.0, rel=1e-13)


def test_integrate_power_matches_weighted_mass_quadratic_form():
    m = build_initial_mesh(2, 4)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(m.n_interior)
    Mu2 = assemble_weighted_mass(m, FeFunction(0, u), 2)
    assert u @ (Mu2 @ u) == pytest.approx(_integrate_power(m, _full_values(m, u), 4), rel=1e-12)


# --- fixed-pattern assembly against an independent plain-COO reference ------

def _reference_geometry(mesh):
    """Barycentric gradients (nc, d+1, d) and measures by inverting the
    homogeneous vertex matrix of every cell."""
    coords = mesh.vertices[mesh.cells]
    B = np.concatenate([np.ones((mesh.n_cells, mesh.dim + 1, 1)), coords], axis=2)
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


def _coo_reference(mesh, local, interior_only):
    """Dense matrix summed from plain COO triplets, then restricted."""
    n_loc = mesh.dim + 1
    rows = np.repeat(mesh.cells, n_loc, axis=1).ravel()
    cols = np.tile(mesh.cells, (1, n_loc)).ravel()
    A = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_vertices, mesh.n_vertices)).toarray()
    if interior_only:
        idx = mesh.interior_indices
        A = A[np.ix_(idx, idx)]
    return A


def _assert_matches(assembled, reference):
    """Every entry within 1e-14 of the largest reference entry: the local
    matrices come from other formulas and are summed in another order, so
    the two agree to rounding, not bit for bit."""
    assert assembled.shape == reference.shape
    err = np.abs(assembled.toarray() - reference).max()
    assert err <= 1e-14 * np.abs(reference).max()


_DIFFUSION = {2: np.array([[2.0, 0.5], [0.5, 1.0]]),
              3: np.array([[2.0, 0.3, -0.2], [0.3, 1.5, 0.4], [-0.2, 0.4, 1.0]])}


def _test_mesh(dim):
    return refine(build_initial_mesh(dim, 3 if dim == 2 else 2))


@pytest.mark.parametrize("interior_only", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_stiffness_and_mass_match_coo_reference(dim, interior_only):
    m = _test_mesh(dim)
    grads, meas = _reference_geometry(m)
    D = _DIFFUSION[dim]
    spec = ProblemSpec(dim=dim, diffusion=D)
    local_a = np.einsum("c,cid,de,cje->cij", meas, grads, D, grads)
    _assert_matches(assemble_stiffness(m, spec, interior_only=interior_only),
                    _coo_reference(m, local_a, interior_only))
    local_m = np.einsum("c,ij->cij", meas, _moment_tensor(dim, 2))
    _assert_matches(assemble_mass(m, interior_only=interior_only),
                    _coo_reference(m, local_m, interior_only))


@pytest.mark.parametrize("interior_only", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_weighted_mass_matches_coo_reference(dim, interior_only, monkeypatch):
    m = _test_mesh(dim)
    # analytic weights are evaluated in blocks of cells; cover several blocks
    # and a ragged last one
    monkeypatch.setattr(fem, "_FIELD_BLOCK", 17)
    assert m.n_cells % 17 != 0 and m.n_cells > 2 * 17
    _, meas = _reference_geometry(m)
    # analytic weight |x|^2 = sum_kl (x_k . x_l) lambda_k lambda_l on a cell
    coords = m.vertices[m.cells]
    gram = np.einsum("ckd,cld->ckl", coords, coords)
    local = np.einsum("c,ckl,klij->cij", meas, gram, _moment_tensor(dim, 4))
    _assert_matches(assemble_weighted_mass(m, harmonic_potential, 1,
                                           interior_only=interior_only),
                    _coo_reference(m, local, interior_only))
    # P1 weight, nonzero on the boundary too, at powers 1 and 2
    w = np.random.default_rng(11).uniform(-1.0, 2.0, m.n_vertices)
    wc = w[m.cells]
    local1 = np.einsum("c,ck,kij->cij", meas, wc, _moment_tensor(dim, 3))
    local2 = np.einsum("c,ck,cl,klij->cij", meas, wc, wc, _moment_tensor(dim, 4))
    for power, local in ((1, local1), (2, local2)):
        _assert_matches(assemble_weighted_mass(m, w, power, interior_only=interior_only),
                        _coo_reference(m, local, interior_only))


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


@pytest.mark.parametrize("interior_only", [True, False])
@pytest.mark.parametrize("mutate", [_scale_data, _overwrite_indices, _overwrite_indptr,
                                    _zero_then_prune])
def test_mutating_a_result_leaves_the_next_assembly_intact(mutate, interior_only):
    m = build_initial_mesh(2, 4)
    w = np.random.default_rng(2).standard_normal(m.n_vertices)
    spec = ProblemSpec(dim=2)
    assemblers = [lambda: assemble_stiffness(m, spec, interior_only=interior_only),
                  lambda: assemble_mass(m, interior_only=interior_only),
                  lambda: assemble_weighted_mass(m, w, 2, interior_only=interior_only)]
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
    m = _test_mesh(3)
    w = FeFunction(m.level_index, np.random.default_rng(4).standard_normal(m.n_interior))
    expected = assemble_weighted_mass(m, w, 2).toarray()

    def forbidden(*args, **kwargs):
        raise AssertionError("repeated on reassembly")

    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    monkeypatch.setattr(sp.coo_matrix, "tocsr", forbidden)
    monkeypatch.setattr(sp.coo_array, "tocsr", forbidden)
    assert np.array_equal(assemble_weighted_mass(m, w, 2).toarray(), expected)
    assemble_mass(m)
    assemble_stiffness(m, ProblemSpec(dim=3))


def _forbid(monkeypatch, *targets):
    def forbidden(*args, **kwargs):
        raise AssertionError("called during assembly")

    for owner, name in targets:
        monkeypatch.setattr(owner, name, forbidden)


@pytest.mark.parametrize("dim", [2, 3])
def test_first_assembly_needs_no_det_inverse_or_cross(dim, monkeypatch):
    # cell measures and scaled gradients are written out in closed form, so
    # even the first assembly on a fresh mesh (measures, pattern, kernels)
    # runs without a batched determinant, inverse or cross product
    m = _test_mesh(dim)
    grads, meas = _reference_geometry(m)
    D = _DIFFUSION[dim]
    local_a = np.einsum("c,cid,de,cje->cij", meas, grads, D, grads)
    local_m = np.einsum("c,ij->cij", meas, _moment_tensor(dim, 2))
    expected_a = _coo_reference(m, local_a, True)
    expected_m = _coo_reference(m, local_m, True)
    fresh = refine(build_initial_mesh(dim, 3 if dim == 2 else 2))
    _forbid(monkeypatch, (np.linalg, "det"), (np.linalg, "inv"), (np, "cross"))
    _assert_matches(assemble_stiffness(fresh, ProblemSpec(dim=dim, diffusion=D)), expected_a)
    _assert_matches(assemble_mass(fresh), expected_m)
    assemble_weighted_mass(fresh, harmonic_potential, 1)
    assemble_weighted_mass(fresh, FeFunction(fresh.level_index, np.ones(fresh.n_interior)), 2)


@pytest.mark.parametrize("interior_only", [True, False])
@pytest.mark.parametrize("dim", [2, 3])
def test_cached_slot_map_holds_only_upper_entries(dim, interior_only):
    m = _test_mesh(dim)
    assemble_mass(m, interior_only=interior_only)
    key = "_fem_pattern_interior" if interior_only else "_fem_pattern_full"
    pattern = m.__dict__[key]
    assert pattern.slot.shape == (m.n_cells * (dim + 1) * (dim + 2) // 2,)
    # one gather entry per stored CSR entry
    assert pattern.gather.shape == pattern.indices.shape


@pytest.mark.parametrize("dim", [2, 3])
def test_cell_measures_match_determinant_reference(dim):
    # the written-out cross / triple product against a batched LU
    # determinant, with every other cell's orientation reversed; on the
    # built meshes to 1e-15, on jittered general-position cells to 1e-14
    m = _test_mesh(dim)
    cells = m.cells.copy()
    cells[::2, [0, 1]] = cells[::2, [1, 0]]
    jitter = np.random.default_rng(6).uniform(-1.0, 1.0, m.vertices.shape)
    for vertices, rtol in ((m.vertices, 1e-15), (m.vertices + 0.2 * m.mesh_size * jitter, 1e-14)):
        mesh = MeshLevel(dim=dim, vertices=vertices, cells=cells,
                         boundary_vertex=m.boundary_vertex, level_index=m.level_index,
                         mesh_size=m.mesh_size, box=m.box)
        coords = vertices[cells]
        reference = np.abs(np.linalg.det(coords[:, 1:] - coords[:, :1])) / factorial(dim)
        measures = cell_measures(mesh)
        assert np.all(reference > 0)
        assert (np.abs(measures - reference) / reference).max() <= rtol
