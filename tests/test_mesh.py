from dataclasses import replace
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fmgeig import mesh as mesh_module
from fmgeig.eigsolve import LevelSpace, build_augmented_space
from fmgeig.errors import MeshBudgetError
from fmgeig.fem import ProblemSpec
from fmgeig.mesh import (
    SHAPE_CHILDREN,
    SHAPES,
    MeshHierarchy,
    build_hierarchy,
    build_initial_mesh,
    descendant_barycentrics,
    index_dtype,
    interior_prolongation,
    refine,
)


def _boundary_free(mesh):
    """Copy of the mesh with no boundary vertex: every vertex is a dof."""
    return replace(mesh, boundary_vertex=np.zeros(mesh.n_vertices, dtype=bool))


def _box_image(hierarchy, box):
    """The hierarchy with every mesh's vertices mapped onto ``box`` by
    x -> lo + (hi - lo) x per axis (None keeps the unit box); boundary flags
    and refinement records are kept, so the box faces stay the boundary."""
    if box is None:
        return hierarchy
    lo, hi = np.array(box, dtype=float).T
    meshes = [replace(m, vertices=lo + (hi - lo) * m.vertices) for m in hierarchy.meshes]
    return MeshHierarchy(meshes=meshes, first=hierarchy.first)


def _cell_measures(mesh):
    """Every cell's measure from its vertices, by a batched determinant."""
    coords = mesh.vertices[mesh.cells]
    return np.abs(np.linalg.det(coords[:, 1:] - coords[:, :1])) / factorial(mesh.dim)


def _vertex_prolongation(coarse, fine):
    """Reference full-vertex interpolation: inherited vertices get a single
    1, edge midpoints 1/2 at each of their two parents."""
    nv_c = coarse.n_vertices
    n_mid = fine.n_vertices - nv_c
    rows = np.concatenate([np.arange(nv_c), np.repeat(np.arange(nv_c, fine.n_vertices), 2)])
    cols = np.concatenate([np.arange(nv_c), fine.midpoint_parents.ravel()])
    data = np.concatenate([np.ones(nv_c), np.full(2 * n_mid, 0.5)])
    P = sp.csr_matrix((data, (rows, cols)), shape=(fine.n_vertices, nv_c))
    P.sort_indices()
    return P


def test_initial_mesh_3d_element_count():
    m = build_initial_mesh(3, 8)
    assert m.n_cells == 3072
    assert m.n_vertices == 9 ** 3


def test_initial_mesh_smallest():
    m = build_initial_mesh(2, 1)
    assert m.n_cells == 2
    assert m.n_vertices == 4
    assert m.boundary_vertex.all()


def test_initial_mesh_2d_counts_by_enumeration():
    # 5x5 vertex grid: 25 vertices, 2 triangles per square, 3x3 interior block
    m = build_initial_mesh(2, 4)
    assert m.n_cells == 32
    assert m.n_vertices == 25
    assert m.n_interior == 9


def test_unsupported_dim_rejected():
    with pytest.raises(ValueError):
        build_initial_mesh(1, 4)
    with pytest.raises(ValueError):
        build_initial_mesh(4, 2)
    with pytest.raises(ValueError):
        build_initial_mesh(2, 0)


def test_boundary_flags_match_box_faces():
    for dim in (2, 3):
        m = build_initial_mesh(dim, 3)
        on_face = np.zeros(m.n_vertices, dtype=bool)
        for axis in range(dim):
            on_face |= np.isclose(m.vertices[:, axis], 0.0, atol=1e-12)
            on_face |= np.isclose(m.vertices[:, axis], 1.0, atol=1e-12)
        assert np.array_equal(m.boundary_vertex, on_face)


def test_cells_tile_the_box():
    for dim, n in ((2, 3), (3, 2)):
        m = build_initial_mesh(dim, n)
        assert _cell_measures(m).sum() == pytest.approx(1.0, rel=1e-12)
        f = refine(m)
        assert _cell_measures(f).sum() == pytest.approx(1.0, rel=1e-12)


def test_refine_counts():
    m = build_initial_mesh(3, 8)
    f = refine(m)
    assert f.n_cells == 24576


def test_refine_unit_square():
    f = refine(build_initial_mesh(2, 1))
    assert f.n_cells == 8
    assert f.n_vertices == 9


def test_refine_preserves_measure_per_cell():
    for dim in (2, 3):
        m = build_initial_mesh(dim, 2)
        f = refine(m)
        child_meas = _cell_measures(f)
        parent_meas = _cell_measures(m)
        per_parent = child_meas.reshape(m.n_cells, -1).sum(axis=1)
        assert np.allclose(per_parent, parent_meas, rtol=1e-12)


def test_refined_cells_nondegenerate_2d_orientation():
    m = build_initial_mesh(2, 2)
    for _ in range(3):
        m = refine(m)
    coords = m.vertices[m.cells]
    det = np.linalg.det(coords[:, 1:, :] - coords[:, :1, :])
    assert (det > 0).all()


def test_refinement_shape_quality_stays_fixed_3d():
    # The diagonal choice in the split table reproduces the initial
    # triangulation pattern, so measure/diameter^3 is level independent.
    m = build_initial_mesh(3, 1)
    ratios = []
    for _ in range(3):
        meas = _cell_measures(m)
        coords = m.vertices[m.cells]
        diam = np.zeros(m.n_cells)
        for i in range(4):
            for j in range(i + 1, 4):
                diam = np.maximum(diam, np.linalg.norm(coords[:, i] - coords[:, j], axis=1))
        q = meas / diam ** 3
        ratios.append((q.min(), q.max()))
        m = refine(m)
    lo = min(r[0] for r in ratios)
    hi = max(r[1] for r in ratios)
    assert hi / lo < 1.0 + 1e-12


def test_hierarchy_element_ladder_3d():
    h = build_hierarchy(3, 8, 3)
    assert [lv.n_cells for lv in h.levels] == [3072, 24576, 196608]


@pytest.mark.parametrize("config", [(3, 8, 3), (2, 8, 6)])
def test_hierarchy_stores_int32_cells(config):
    # every index of these meshes fits in int32, so every level's cell and
    # midpoint tables are int32, half the bytes of int64
    h = build_hierarchy(*config)
    for m in h.meshes:
        assert index_dtype(m) is np.int32
        assert m.cells.dtype == np.int32 and m.midpoint_parents.dtype == np.int32


@pytest.mark.parametrize("dim", [2, 3])
def test_shapes_close_under_refinement(dim):
    # six integer shapes of unit |det|; the first are the cells of one
    # sub-box in build_initial_mesh's block order, and the child table maps
    # every child into the list
    shapes, children = SHAPES[dim], SHAPE_CHILDREN[dim]
    assert shapes.shape == (6, dim, dim) and np.issubdtype(shapes.dtype, np.integer)
    assert np.array_equal(np.abs(np.rint(np.linalg.det(shapes))), np.ones(6))
    assert children.shape == (6, 2 ** dim)
    assert children.min() >= 0 and children.max() < 6
    seed = build_initial_mesh(dim, 1)
    x = seed.vertices[seed.cells]
    assert np.array_equal(shapes[:seed.n_cells], x[:, 1:] - x[:, :1])
    assert np.array_equal(seed.shapes, np.arange(seed.n_cells))


@pytest.mark.parametrize("config", [(3, 8, 3), (2, 8, 6), (3, 5, 3), (2, 3, 4)])
def test_every_cell_is_its_shape_times_the_spacing(config):
    # the edge vectors x_i - x_0 of every cell are its shape's times the
    # level's spacing, which starts at 1/n and halves per refinement
    dim, divisions, _ = config
    for k, m in enumerate(build_hierarchy(*config).meshes):
        assert m.shapes.dtype == np.int8 and m.shapes.shape == (m.n_cells,)
        assert m.spacing == 1.0 / divisions / 2 ** k
        x = m.vertices[m.cells]
        edges = x[:, 1:] - x[:, :1]
        assert np.abs(edges - SHAPES[dim][m.shapes] * m.spacing).max() <= 1e-12 * m.spacing


def test_hierarchy_single_level():
    h = build_hierarchy(2, 2, 1)
    assert h.n_levels == 1 and len(h.meshes) == 1


def _longest_edge(mesh):
    """Brute-force reference: every vertex pair of every cell."""
    coords = mesh.vertices[mesh.cells]
    n_loc = mesh.cells.shape[1]
    dmax = 0.0
    for i in range(n_loc):
        for j in range(i + 1, n_loc):
            d = np.linalg.norm(coords[:, i, :] - coords[:, j, :], axis=1)
            dmax = max(dmax, float(d.max()))
    return dmax


@pytest.mark.parametrize("dim, box", [
    (2, None),
    (3, None),
    (2, ((0, 2), (-1, 0.5))),
    (3, ((0, 1), (0, 3), (0, 0.5))),
])
@pytest.mark.parametrize("divisions", [1, 2, 3])
def test_mesh_size_is_the_longest_edge(dim, box, divisions):
    # the mesh size of level k, the diagonal of a level-0 sub-box over 2^k,
    # is its longest cell edge: no refinement lengthens an edge beyond the
    # halved grid's (in 3D the m02-m13 cut is half a face diagonal), also on
    # the axis-scaled images of the unit box
    h = _box_image(build_hierarchy(dim, divisions, 3), box)
    lo, hi = np.array(box if box else ((0, 1),) * dim, dtype=float).T
    diagonal = np.linalg.norm((hi - lo) / divisions)
    for k, lv in enumerate(h.levels):
        assert _longest_edge(lv) == pytest.approx(diagonal / 2 ** k, rel=1e-14)


@pytest.mark.parametrize("dim, box", [
    (2, None),
    (3, None),
    (2, ((0, 2), (-1, 0.5))),
    (3, ((0, 1), (0, 3), (-0.5, 0))),
])
def test_descendant_table_places_every_fine_cell(dim, box):
    # fine cell i descends from coarse cell i // n as type i % n, and its
    # vertices are that type's barycentrics of the ancestor's vertices
    h = _box_image(build_hierarchy(dim, 1, 4), box)
    coarse = h.levels[0]
    size = np.abs(coarse.vertices).max()
    for depth in (1, 2, 3):
        fine = h.levels[depth]
        table = descendant_barycentrics(dim, depth)
        n = len(table)
        assert n == 2 ** (dim * depth) and fine.n_cells == coarse.n_cells * n
        cell = np.arange(fine.n_cells)
        ancestor = coarse.vertices[coarse.cells[cell // n]]        # (cells, d+1, d)
        placed = np.matmul(table[cell % n], ancestor)
        assert np.abs(placed - fine.vertices[fine.cells]).max() <= 1e-15 * size
    assert np.array_equal(descendant_barycentrics(dim, 0), np.eye(dim + 1)[None])


def test_augmented_space_rejects_a_level_not_refined_from_the_coarse_mesh():
    spec = ProblemSpec(dim=2)
    h = build_hierarchy(2, 4, 3)
    coarse = LevelSpace.build(h.coarse, spec)
    for other in (build_hierarchy(2, 3, 2).levels[1], build_hierarchy(2, 2, 3).levels[2]):
        ops = LevelSpace.build(other, spec)
        assert other.n_cells != h.levels[0].n_cells * 4 ** other.level_index
        with pytest.raises(ValueError, match="uniform refinement"):
            build_augmented_space(coarse, h.coarse_to_level_interior(other.level_index),
                                  ops, np.ones(ops.n_dofs))


def test_cell_count_ladder_exact():
    for dim in (2, 3):
        h = build_hierarchy(dim, 2, 3)
        base = h.levels[0].n_cells
        for k, lv in enumerate(h.levels):
            assert lv.n_cells == base * (2 ** dim) ** k


def test_vertex_nestedness():
    h = build_hierarchy(2, 2, 3)
    for k in range(2):
        c, f = h.levels[k], h.levels[k + 1]
        assert np.array_equal(f.vertices[: c.n_vertices], c.vertices)


def test_interior_dof_ratio_tends_to_one():
    h = build_hierarchy(2, 4, 5)
    n = h.n_levels - 1
    N = [lv.n_interior for lv in h.levels]
    ratios = [N[k] * 4 ** (n - k) / N[n] for k in range(n)]
    assert all(r < 1 for r in ratios)
    assert ratios == sorted(ratios)
    assert ratios[-1] > 0.9


def test_budget_error_names_level(monkeypatch):
    # 9^2 vertices on level 0, about 4x as many per refinement: level 2
    # would pass 1000
    monkeypatch.setattr(mesh_module, "MAX_VERTICES", 1000)
    with pytest.raises(MeshBudgetError, match="budget 1000") as err:
        build_hierarchy(2, 8, 10)
    assert err.value.level_index == 2


def test_prolongation_reproduces_constants():
    # on a boundary-free copy the interior map is the full-vertex one
    h = build_hierarchy(3, 2, 2)
    P = interior_prolongation(*map(_boundary_free, h.levels))
    ones = np.ones(h.levels[0].n_vertices)
    assert np.array_equal(P @ ones, np.ones(h.levels[1].n_vertices))


def test_prolongation_reproduces_linears_exactly():
    for dim in (2, 3):
        h = build_hierarchy(dim, 2, 2)
        P = interior_prolongation(*map(_boundary_free, h.levels))
        for axis in range(dim):
            coarse_vals = h.levels[0].vertices[:, axis]
            fine_vals = h.levels[1].vertices[:, axis]
            assert np.array_equal(P @ coarse_vals, fine_vals)


def test_prolongation_column_sums_by_enumeration():
    # Oracle: each edge incident to a coarse vertex contributes one midpoint
    # row with entry 1/2, so the column sum is 1 + degree/2.  On this grid
    # interior vertices have degree 6, giving column sum 4.
    m = build_initial_mesh(2, 4)
    f = refine(m)
    P = interior_prolongation(_boundary_free(m), _boundary_free(f))
    edges = set()
    for cell in m.cells:
        s = sorted(int(v) for v in cell)
        edges |= {(s[0], s[1]), (s[0], s[2]), (s[1], s[2])}
    degree = np.zeros(m.n_vertices)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    colsums = np.asarray(P.sum(axis=0)).ravel()
    assert np.array_equal(colsums, 1 + degree / 2)
    assert np.all(colsums[m.interior_indices] == 4.0)


def test_prolongation_row_structure():
    m = build_initial_mesh(2, 2)
    f = refine(m)
    P = interior_prolongation(_boundary_free(m), _boundary_free(f)).tolil()
    for row in range(m.n_vertices):
        assert P.rows[row] == [row] and P.data[row] == [1.0]
    for row in range(m.n_vertices, f.n_vertices):
        assert sorted(P.data[row]) == [0.5, 0.5]


def test_prolongation_level_mismatch_rejected():
    h = build_hierarchy(2, 2, 3)
    with pytest.raises(ValueError, match="not the refinement"):
        interior_prolongation(h.levels[0], h.levels[2])
    shifted = replace(h.levels[0], vertices=h.levels[0].vertices + 0.5)
    with pytest.raises(ValueError, match="prefix"):
        interior_prolongation(shifted, h.levels[1])


def _locate_and_eval(mesh, coeffs, points):
    """Brute-force P1 evaluation: find the containing cell, use barycentric
    coordinates.  Independent of the prolongation construction."""
    coords = mesh.vertices[mesh.cells]                                # (cells, d+1, d)
    A = np.concatenate([np.ones((mesh.n_cells, 1, mesh.dim + 1)),
                        coords.transpose(0, 2, 1)], axis=1)
    rhs = np.vstack([np.ones(len(points)), np.asarray(points).T])     # (d+1, points)
    lam = np.linalg.inv(A) @ rhs                                      # (cells, d+1, points)
    inside = (lam > -1e-10).all(axis=1)
    assert inside.any(axis=0).all(), "point not located in any cell"
    cell = inside.argmax(axis=0)
    return np.einsum("pv,pv->p", lam[cell, :, np.arange(len(points))], coeffs[mesh.cells[cell]])


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=9, max_size=9))
def test_nestedness_by_pointwise_evaluation(vals):
    # The fine function with coefficients P @ c equals the coarse function
    # at every fine vertex: on a boundary-free copy, where every vertex is a
    # dof, and for zero-boundary functions through the interior map, whose
    # fine boundary values are zero too
    m = build_initial_mesh(2, 2)
    f = refine(m)
    P = interior_prolongation(_boundary_free(m), _boundary_free(f))
    c = np.array(vals)
    direct = _locate_and_eval(m, c, f.vertices)
    assert np.allclose(P @ c, direct, atol=1e-12)
    for dim, n in ((2, 4), (3, 3)):
        m = build_initial_mesh(dim, n)
        f = refine(m)
        c = np.zeros(m.n_vertices)
        c[m.interior_indices] = vals[:m.n_interior]
        direct = _locate_and_eval(m, c, f.vertices)
        fine = interior_prolongation(m, f) @ c[m.interior_indices]
        assert np.allclose(fine, direct[f.interior_indices], atol=1e-12)
        assert np.allclose(direct[f.boundary_vertex], 0.0, atol=1e-12)


def test_interior_prolongation_shape():
    h = build_hierarchy(2, 4, 2)
    Pint = interior_prolongation(h.levels[0], h.levels[1])
    assert Pint.shape == (h.levels[1].n_interior, h.levels[0].n_interior)
    # zero-boundary coarse function stays the same function on the fine level
    c_full = np.zeros(h.levels[0].n_vertices)
    c_full[h.levels[0].interior_indices] = np.arange(1, 10)
    fine_full = _vertex_prolongation(*h.levels) @ c_full
    fine_int = Pint @ c_full[h.levels[0].interior_indices]
    assert np.allclose(fine_full[h.levels[1].interior_indices], fine_int)
    # boundary rows of the full prolongated vector vanish
    assert np.allclose(fine_full[h.levels[1].boundary_vertex], 0.0)


@pytest.mark.parametrize("box", [None, "anisotropic"])
@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("divisions", [1, 2, 3])
@pytest.mark.parametrize("dim", [2, 3])
def test_interior_prolongation_matches_the_sliced_vertex_prolongation(dim, divisions,
                                                                     offset, box):
    # built from the refinement, the interior map holds exactly the arrays
    # of the full-vertex map restricted to interior rows and columns; it
    # reads no coordinates, so an anisotropic image of the meshes gives the
    # same map
    if box is not None:
        box = ((0, 2), (-1, 0.5), (0, 0.25))[:dim]
    h = _box_image(build_hierarchy(dim, divisions, 2, coarse_offset=offset), box)
    for k in range(-offset, h.n_levels - 1):
        coarse, fine = h.meshes[offset + k], h.meshes[offset + k + 1]
        ref = _vertex_prolongation(coarse, fine)
        ref = ref[fine.interior_indices][:, coarse.interior_indices].tocsr()
        P = h.interior_prolongation(k)
        for got, want in ((P.indptr, ref.indptr), (P.indices, ref.indices), (P.data, ref.data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("offset", [0, 1, 2])
def test_coarse_offset_hierarchy(offset):
    h = build_hierarchy(2, 4, 3, coarse_offset=offset)
    assert h.coarse is h.meshes[0] and h.coarse.n_cells == 32
    assert h.levels[0] is h.meshes[offset] and h.levels[0].n_cells == 32 * 4 ** offset
    assert h.n_levels == len(h.levels) == 3 and len(h.meshes) == offset + 3
    for k in range(h.n_levels):
        # the chained interior map against the vertex-space chain, restricted
        # to interior dofs: dyadic entries, so exactly equal
        fine = h.meshes[offset + k]
        P_full = sp.identity(h.coarse.n_vertices, format="csr")
        for j in range(offset + k):
            P_full = _vertex_prolongation(h.meshes[j], h.meshes[j + 1]) @ P_full
        ref = P_full.tocsr()[fine.interior_indices][:, h.coarse.interior_indices]
        B = h.coarse_to_level_interior(k)
        assert B.shape == (fine.n_interior, h.coarse.n_interior)
        assert np.array_equal(B.toarray(), ref.toarray())
    short = h.truncated(2)
    assert short.coarse is h.coarse and short.n_levels == 2
    assert all(a is b for a, b in zip(short.levels, h.levels[:2]))
    assert np.array_equal(short.coarse_to_level_interior(1).toarray(),
                          h.coarse_to_level_interior(1).toarray())
