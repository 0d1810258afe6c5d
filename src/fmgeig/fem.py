"""P1 finite element assembly on one mesh level.

Stiffness of the Laplacian, mass, weighted mass for the potential and the
frozen nonlinearity, the nonlinear residual, and the energy / L2 norms.
All systems are reduced to interior degrees of freedom.  Two kernels stand
in for matrices a correction level never assembles: the load vector
(W u + zeta u^3, v), one streamed pass, and the potential's products with
a fine function t, contracted from t's moments over the coarse cells.

Meshes come from :func:`mesh.build_initial_mesh` and :func:`mesh.refine`
alone: every cell is a shape of :data:`mesh.SHAPES` scaled by the spacing
h, so its measure is h^d / d! and its local stiffness its shape's table
times h^(d-2).  Only the potential reads vertex positions.

Every kernel builds only the (d+1)(d+2)/2 upper local entries of each cell,
6 in 2D and 10 in 3D, in ``np.triu_indices(d+1)`` order, and streams them
block by block of ``_BLOCK`` cells, the one block constant of the module
(the span moments use it too): no array of all cells' entries or
quadrature values is ever built.  Each mesh builds its CSR pattern once,
on first use, and keeps it on the MeshLevel instance.  The pattern carries
two maps: a compact index for every upper local entry (the mesh edges, then
the diagonal, then one dump slot for entries that couple to a boundary
vertex), and a gather from that compact index to CSR order.  Every assembly
adds each block's entries into the compact index, in cell order, and
gathers once; (i, j) and (j, i) read the same sum, so every matrix is
exactly symmetric.  A mesh made by ``refine`` numbers its edges from its
parent's cells, which it reads back from its own children
(:func:`mesh.refined_edges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import SHAPES, MeshLevel, descendant_barycentrics, index_dtype, refined_edges

__all__ = [
    "ProblemSpec",
    "FeFunction",
    "harmonic_potential",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "SpanMoments",
    "span_moments",
    "span_potential",
    "nonlinear_load",
    "apply_nonlinear_residual",
    "a_norm",
    "l2_norm",
]

# fine cells per block of every assembly and of the span moments: a 3D
# block's quadrature values, upper entries and, for the span moments, point
# arrays stay near 1.4 MB; whole parents on a refined mesh, whose edges
# come from its parents' cells
_BLOCK = 1 << 14


def harmonic_potential(points):
    """W(x) = |x|^2, the trapping potential and the only potential besides
    W = 0.  Summed one coordinate at a time, so the component-major point
    arrays of the assembly (a transposed view) are read without a copy."""
    w = points[..., 0] ** 2
    for k in range(1, points.shape[-1]):
        w += points[..., k] ** 2
    return w


@dataclass(frozen=True)
class ProblemSpec:
    """PDE data: -Laplace u + W u + zeta |u|^2 u = lambda u on the unit box
    (0,1)^d with zero boundary values and the L2 normalization b(u,u)=1."""

    dim: int
    potential: object = harmonic_potential  # harmonic_potential, or None for W=0
    zeta: float = 1.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.potential is not None and self.potential is not harmonic_potential:
            raise ValueError("potential must be harmonic_potential or None")
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")


@dataclass
class FeFunction:
    """Coefficients over the interior vertices of one mesh level."""

    level_index: int
    coefficients: np.ndarray

    def __len__(self):
        return len(self.coefficients)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray    # (nq, d+1) barycentric coordinates
    weights: np.ndarray   # (nq,), sums to 1
    degree: int


def _triangle_rule_deg4():
    a1, b1, w1 = 0.108103018168070, 0.445948490915965, 0.223381589678011
    a2, b2, w2 = 0.816847572980459, 0.091576213509771, 0.109951743655322
    pts, wts = [], []
    for (a, b, w) in ((a1, b1, w1), (a2, b2, w2)):
        pts += [(a, b, b), (b, a, b), (b, b, a)]
        wts += [w, w, w]
    return QuadratureRule(np.array(pts), np.array(wts), degree=4)


def _tetrahedron_rule_deg4():
    # 11-point rule: centroid, 4 points of type (11/14, 1/14, 1/14, 1/14),
    # 6 points of type (a, a, b, b) with a+b = 1/2.
    a = (1.0 + sqrt(5.0 / 14.0)) / 4.0
    b = (1.0 - sqrt(5.0 / 14.0)) / 4.0
    pts = [(0.25, 0.25, 0.25, 0.25)]
    wts = [-74.0 / 5625.0 * 6.0]
    g = 1.0 / 14.0
    d = 11.0 / 14.0
    w2 = 343.0 / 45000.0 * 6.0
    for i in range(4):
        p = [g] * 4
        p[i] = d
        pts.append(tuple(p))
        wts.append(w2)
    w3 = 56.0 / 2250.0 * 6.0
    for i in range(4):
        for j in range(i + 1, 4):
            p = [b] * 4
            p[i] = a
            p[j] = a
            pts.append(tuple(p))
            wts.append(w3)
    return QuadratureRule(np.array(pts), np.array(wts), degree=4)


# symmetric volume rules exact for polynomials up to degree 4
_RULES = {2: _triangle_rule_deg4(), 3: _tetrahedron_rule_deg4()}


def _pattern(mesh):
    """The mesh's CSR pattern, built on first use and kept in the instance
    dict of the (frozen) mesh, so it lives exactly as long as the mesh does.
    Every assembly fetches it before it builds any local entries, so the
    pattern's one-time temporaries never coexist with them."""
    cache = mesh.__dict__
    if "_fem_pattern" not in cache:
        cache["_fem_pattern"] = _build_pattern(mesh)
    return cache["_fem_pattern"]


def _measure(mesh):
    """The measure h^d / d! of every cell: |det| = 1 for every shape."""
    return mesh.spacing ** mesh.dim / factorial(mesh.dim)


class _Pattern(NamedTuple):
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray       # (cells * (d+1)(d+2)/2,) compact index of each upper entry
    gather: np.ndarray     # (nnz,) compact index of each CSR entry
    n_compact: int         # edges + diagonal + the dump slot


def _cell_blocks(mesh):
    """(start, stop) of the blocks of _BLOCK cells that every assembly
    streams, in cell order; on a refined mesh rounded down to whole parents
    (at least one), so a block's children read their parents' edges."""
    group = 2 ** mesh.dim if mesh.n_parent_vertices else 1
    step = max(_BLOCK // group, 1) * group
    return [(start, min(start + step, mesh.n_cells)) for start in range(0, mesh.n_cells, step)]


def _build_pattern(mesh):
    """CSR pattern (indptr, indices) over the interior vertices, the
    compact index of every upper local entry (cell, k), k in
    ``np.triu_indices(d+1)`` order and flattened in that order, and the gather
    from compact index to CSR order.  The compact index numbers the mesh
    edges, then the diagonal, then one dump slot for every entry that couples
    to a boundary vertex; the two CSR entries of an edge gather its one sum.
    A refined mesh numbers its edges from its parent's, any other mesh by
    one sort-unique of all its cells' vertex pairs.  Vertex, edge and
    compact ids are :func:`mesh.index_dtype` integers, and the slot map is
    filled block by block of cells."""
    n, d = mesh.n_interior, mesh.dim
    ids = index_dtype(mesh)
    dof = np.full(mesh.n_vertices, -1, dtype=ids)
    dof[mesh.interior_indices] = np.arange(n, dtype=ids)
    iu, ju = np.triu_indices(d + 1)
    off = iu != ju
    if mesh.n_parent_vertices:
        e_lo, e_hi, cell_edges_of = _edges_from_parent(mesh, dof, n)
    else:
        e_lo, e_hi, cell_edges_of = _edges_by_unique(mesh, dof, iu[off], ju[off], n)
    n_e = e_lo.size
    indptr, indices, gather = _csr_order(e_lo, e_hi, n, ids)
    del e_lo, e_hi
    dump = n_e + n
    slot = np.empty((mesh.n_cells, iu.size), dtype=ids)
    for start, stop in _cell_blocks(mesh):
        cell_dofs = dof[mesh.cells[start:stop]]
        slot[start:stop, ~off] = np.where(cell_dofs >= 0, n_e + cell_dofs, dump)
        slot[start:stop, off] = cell_edges_of(start, stop)
    return _Pattern(indptr, indices, slot.ravel(), gather, dump + 1)


def _csr_order(e_lo, e_hi, n, ids):
    """indptr, indices and the gather of the CSR pattern of n dofs with the
    edges (e_lo, e_hi) and the diagonal: the gather reads edge k at compact
    index k and diagonal i at n_e + i.  One argsort of the row-major keys of
    both orientations of every edge and of the diagonal."""
    n_e = e_lo.size
    lo, hi = e_lo.astype(np.int64), e_hi.astype(np.int64)
    keys = np.concatenate([lo * n + hi, hi * n + lo, np.arange(n, dtype=np.int64) * (n + 1)])
    del lo, hi
    order = np.argsort(keys)
    keys = keys[order]
    np.remainder(keys, n, out=keys)
    indices = keys.astype(ids)
    del keys
    edge_ids = np.arange(n_e, dtype=ids)
    gather = np.concatenate([edge_ids, edge_ids, np.arange(n_e, n_e + n, dtype=ids)])[order]
    del order
    indptr = np.zeros(n + 1, dtype=ids)
    np.cumsum(np.bincount(e_lo, minlength=n) + np.bincount(e_hi, minlength=n) + 1,
              out=indptr[1:])
    return indptr, indices, gather


def _edges_by_unique(mesh, dof, iu, ju, n):
    """Edges (e_lo, e_hi) between the dofs of every cell's off-diagonal upper
    entries (iu, ju), and the compact index of each entry, as a function of
    a block of cells: its edge, or the dump slot n_e + n where one end is
    not a dof.  One sort-unique of the keys lo * n + hi over all cells,
    built in place; each large temporary is dropped once the next step has
    read it."""
    cell_dofs = dof[mesh.cells]
    a, b = cell_dofs[:, iu], cell_dofs[:, ju]
    del cell_dofs
    keys = np.minimum(a, b).astype(np.int64)
    np.maximum(a, b, out=b)
    del a
    inner = keys >= 0
    keys *= n
    keys += b
    del b
    edges, edge_of = np.unique(keys[inner], return_inverse=True)
    del keys
    edge = np.full(inner.shape, edges.size + n, dtype=dof.dtype)
    edge[inner] = edge_of
    e_lo, e_hi = np.divmod(edges, n)
    return e_lo.astype(dof.dtype), e_hi.astype(dof.dtype), lambda start, stop: edge[start:stop]


def _edges_from_parent(mesh, dof, n):
    """As :func:`_edges_by_unique`, for a mesh made by refine: the edges come
    from :func:`mesh.refined_edges`, and those with two dof ends keep their
    order there.  A block of whole parents expands its parents' edges to
    its children's."""
    ends, parent_edges, columns = refined_edges(mesh)
    lo, hi = dof[ends]
    inner = (lo >= 0) & (hi >= 0)
    compact = np.cumsum(inner, dtype=dof.dtype)
    compact -= 1
    e_lo, e_hi = lo[inner], hi[inner]
    compact[~inner] = e_lo.size + n
    children = 2 ** mesh.dim

    def cell_edges_of(start, stop):
        parents = parent_edges[start // children:stop // children]
        return compact[parents[:, columns]].reshape(stop - start, -1)

    return e_lo, e_hi, cell_edges_of


def _assemble(mesh, pattern, entries, work=None):
    """CSR matrix from the upper local entries that ``entries(start, stop)``
    returns for cells start .. stop-1, as (stop - start, (d+1)(d+2)/2) in
    ``np.triu_indices(d+1)`` order, on a cached pattern.  Block by block
    (:func:`_cell_blocks`), in cell order, ``np.add.at`` adds the entries
    into the compact index; it adds in index order, so every sum is the
    one a single bincount over all cells gives, bit for bit.  A gather then
    puts the sums in CSR order.  (i, j) and (j, i) gather the same sum, so
    the result is exactly symmetric."""
    indptr, indices, slot, gather, n_compact = pattern
    width = (mesh.dim + 1) * (mesh.dim + 2) // 2
    sums = np.zeros(n_compact)
    for start, stop in _cell_blocks(mesh):
        np.add.at(sums, slot[start * width:stop * width], entries(start, stop).ravel())
    n = indptr.size - 1
    # the caller owns the matrix, so the cached index arrays are copied;
    # zero sums (couplings the stiffness cancels) are dropped at the compact
    # index first, so only kept entries are gathered.  The dump slot, last,
    # is never gathered, and every pattern row holds its diagonal, so no
    # reduceat segment is empty.  np.take gathers faster with int32 indices
    # but copies them to int64 whole: the per-block cell gathers take, these
    # whole-pattern gathers index
    nonzero = sums != 0.0
    if nonzero[:-1].all():
        A = sp.csr_matrix((sums[gather], indices.copy(), indptr.copy()), shape=(n, n))
    else:
        keep = nonzero[gather]
        kept = np.zeros_like(indptr)
        np.cumsum(np.add.reduceat(keep, indptr[:-1], dtype=indptr.dtype), out=kept[1:])
        A = sp.csr_matrix((sums[gather[keep]], indices[keep], kept), shape=(n, n))
    if work is not None:
        work.count_assembly(slot.size)
    return A


def _shape_stiffness(d):
    """Upper local stiffness entries |K| grad_i . grad_j of every shape of
    :data:`mesh.SHAPES` at spacing 1, (n_shapes, (d+1)(d+2)/2).  For edge
    rows E, the barycentric gradients 1..d are the columns of E^-1, an
    integer matrix since |det E| = 1, and |K| = 1/d!."""
    inv = np.rint(np.linalg.inv(SHAPES[d]))
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    iu, ju = np.triu_indices(d + 1)
    return np.einsum("ski,skj->sij", grads, grads)[:, iu, ju] / factorial(d)


# built at import: the inverse runs once, not in any assembly
_STIFFNESS = {d: _shape_stiffness(d) for d in SHAPES}


def assemble_stiffness(mesh: MeshLevel, work=None):
    """Matrix of (grad w, grad v), the Laplacian; exact for P1 since
    gradients are cellwise constant.  Each cell's entries are its shape's
    table times h^(d-2), one gather per block.  Every entry is an integer
    multiple of one float, so couplings that cancel sum to exact zeros."""
    pattern = _pattern(mesh)
    local = _STIFFNESS[mesh.dim] * mesh.spacing ** (mesh.dim - 2)
    return _assemble(mesh, pattern, lambda start, stop: local[mesh.shapes[start:stop]], work)


def assemble_mass(mesh: MeshLevel, work=None):
    """Matrix of (w, v); exact closed form for P1: |K| (1 + delta_ij) / ((d+1)(d+2))."""
    d = mesh.dim
    iu, ju = np.triu_indices(d + 1)
    base = (1.0 + (iu == ju)) / ((d + 1) * (d + 2))
    pattern = _pattern(mesh)
    local = _measure(mesh) * base
    return _assemble(mesh, pattern,
                     lambda start, stop: np.broadcast_to(local, (stop - start, local.size)), work)


def _weight_at_qpoints(mesh, weight, rule):
    """|x|^2 (weight=harmonic_potential) or u^2 (an FeFunction u on the mesh's
    level) at the quadrature points of a block of cells: a function of
    (start, stop) that returns a new (stop - start, nq) array.  The points
    x come from one matrix product, (block * d, d+1) @ (d+1, nq), and reach
    |x|^2 component-major as a transposed (points, d) view."""
    d, nq = mesh.dim, len(rule.points)
    if weight is harmonic_potential:
        bary = rule.points.T

        def values(start, stop):
            coords = np.take(mesh.vertices.T, mesh.cells[start:stop], axis=1)   # (d, block, d+1)
            phys = coords.reshape(-1, d + 1) @ bary                           # (d * block, nq)
            return harmonic_potential(phys.reshape(d, -1).T).reshape(stop - start, nq)

        return values
    if not isinstance(weight, FeFunction):
        raise TypeError(
            f"weight must be harmonic_potential or an FeFunction, got {type(weight).__name__}")
    if weight.level_index != mesh.level_index:
        raise ValueError(
            f"weight lives on level {weight.level_index}, mesh is level {mesh.level_index}")
    full = _full_values(mesh, weight.coefficients)
    return lambda start, stop: np.square(np.take(full, mesh.cells[start:stop]) @ rule.points.T)


def assemble_weighted_mass(mesh: MeshLevel, weight, work=None):
    """Matrix of (W w, v) for W = |x|^2 (weight=harmonic_potential), or of
    the frozen nonlinearity (u^2 w, v) for an FeFunction u.  Both integrands
    are degree-4 polynomials on each cell, which the degree-4 rules
    integrate exactly."""
    rule = _RULES[mesh.dim]
    values = _weight_at_qpoints(mesh, weight, rule)
    pattern = _pattern(mesh)
    measure = _measure(mesh)
    # (nq, upper entries) table of w_q phi_i(q) phi_j(q); one matrix product per block
    iu, ju = np.triu_indices(mesh.dim + 1)
    table = rule.weights[:, None] * rule.points[:, iu] * rule.points[:, ju]

    def entries(start, stop):
        vals = values(start, stop)
        vals *= measure
        return vals @ table

    return _assemble(mesh, pattern, entries, work)


def nonlinear_load(mesh: MeshLevel, spec: ProblemSpec, u, work=None):
    """Dual vector of v -> (W u + zeta u^3, v) over the interior basis
    functions, for interior coefficients u: W_h u + zeta Mnl(u) u up to
    rounding, with neither matrix built.  Both integrands are degree-4
    polynomials on each cell, which the degree-4 rule integrates exactly.
    One pass over the blocks of cells; each block's (cells, d+1) local
    vectors go into the vertices by one bincount.  Counts one work unit per
    local entry, d+1 per cell; with W = 0 and zeta = 0 it is zero and
    counts nothing."""
    if spec.potential is None and spec.zeta == 0.0:
        return np.zeros(mesh.n_interior)
    rule = _RULES[mesh.dim]
    full = _full_values(mesh, _coeff_array(u))
    potential = None if spec.potential is None else _weight_at_qpoints(mesh, spec.potential, rule)
    measure = _measure(mesh)
    table = rule.weights[:, None] * rule.points           # (nq, d+1): w_q phi_i(q)
    out = np.zeros(mesh.n_vertices)
    for start, stop in _cell_blocks(mesh):
        cells = mesh.cells[start:stop]
        uq = np.take(full, cells) @ rule.points.T          # (block, nq)
        # (W + zeta u^2) u at the points, times the cell measure
        f = np.zeros_like(uq) if potential is None else potential(start, stop)
        if spec.zeta != 0.0:
            f += spec.zeta * np.square(uq)
        f *= uq
        f *= measure
        out += np.bincount(cells.ravel(), (f @ table).ravel(), minlength=mesh.n_vertices)
    if work is not None:
        work.add(mesh.n_cells * (mesh.dim + 1))
    return out[mesh.interior_indices]


class SpanMoments(NamedTuple):
    """Moments of a fine P1 function t against the barycentrics l of each
    coarse cell K, exactly symmetric in their vertex indices a, b, k."""

    s3: np.ndarray     # (cells, d+1, d+1, d+1): integral over K of t l_a l_b l_k
    s2: np.ndarray     # (cells, d+1, d+1): integral of t^2 l_a l_b
    s1: np.ndarray     # (cells, d+1): integral of t^3 l_a
    s0: np.ndarray     # (cells,): integral of t^4


def _symmetric_index(d, order):
    """Index triples (or pairs) a <= b <= ... as (order, n_unique), and the
    unique index of every full index tuple as a (d+1,) * order array."""
    combos = list(combinations_with_replacement(range(d + 1), order))
    pos = {c: n for n, c in enumerate(combos)}
    full = [pos[tuple(sorted(i))] for i in product(range(d + 1), repeat=order)]
    return np.array(combos).T, np.array(full).reshape((d + 1,) * order)


def span_moments(coarse: MeshLevel, fine: MeshLevel, span, work=None):
    """SpanMoments of the fine interior coefficients `span` over the cells
    of `coarse`, of which `fine` is a uniform refinement.

    Fine cell i descends from coarse cell i // n as descendant type i % n
    (see :func:`mesh.descendant_barycentrics`), so the fine cells of a coarse
    cell are one contiguous run and the coarse barycentrics at their
    quadrature points are one fixed (points, d+1) table.  Every moment is a
    degree-4 polynomial on each fine cell, so the fine cells' degree-4 rule
    integrates it exactly, and each moment is one matrix product of the
    weighted powers of t with a fixed monomial table, over blocks of coarse
    cells.  Counts one work unit per unique moment entry of every fine cell.
    """
    d = coarse.dim
    types = descendant_barycentrics(d, fine.level_index - coarse.level_index)
    rule = _RULES[d]
    bary = (rule.points @ types).reshape(-1, d + 1)           # (types * nq, d+1)
    i3, full3 = _symmetric_index(d, 3)
    i2, full2 = _symmetric_index(d, 2)
    mono3 = bary[:, i3[0]] * bary[:, i3[1]] * bary[:, i3[2]]
    mono2 = bary[:, i2[0]] * bary[:, i2[1]]
    weights = _measure(fine) * rule.weights
    t = _full_values(fine, span)
    n = coarse.n_cells
    s3, s2 = np.empty((n, i3.shape[1])), np.empty((n, i2.shape[1]))
    s1, s0 = np.empty((n, d + 1)), np.empty(n)
    step = max(_BLOCK // len(types), 1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        rows = slice(start * len(types), stop * len(types))
        tq = np.take(t, fine.cells[rows]) @ rule.points.T      # (block * types, nq)
        wt = (weights * tq).reshape(stop - start, -1)
        tq = tq.reshape(stop - start, -1)
        s3[start:stop] = wt @ mono3
        wt *= tq
        s2[start:stop] = wt @ mono2
        wt *= tq
        s1[start:stop] = wt @ bary
        wt *= tq
        s0[start:stop] = wt.sum(axis=1)
    if work is not None:
        work.add(fine.n_cells * (i3.shape[1] + i2.shape[1] + d + 2))
    return SpanMoments(s3[:, full3], s2[:, full2], s1, s0)


def span_potential(coarse: MeshLevel, moments: SpanMoments, work=None):
    """((W t, phi_k) for every interior vertex k of `coarse`, (W t, t)) for
    W = |x|^2 and the fine function t whose SpanMoments over the cells of
    `coarse` are `moments`.  On a cell with vertices X_a, x = sum_a l_a X_a,
    so |x|^2 = sum_ab l_a l_b G_ab exactly, with G_ab = X_a . X_b the cell's
    vertex Gram matrix: the first is sum_ab G_ab s3[a, b, k] added into
    vertex k, the second sum_ab G_ab s2[a, b], over the cells.  No fine
    product is formed.  Counts one work unit per moment entry read."""
    X = coarse.vertices[coarse.cells]                      # (cells, d+1, d)
    G = X @ X.transpose(0, 2, 1)
    local = np.einsum("cab,cabk->ck", G, moments.s3)
    n = coarse.n_interior
    # interior dof of every cell vertex, n for a boundary vertex
    dof = np.full(coarse.n_vertices, n)
    dof[coarse.interior_indices] = np.arange(n)
    border = np.bincount(dof[coarse.cells].ravel(), local.ravel(), minlength=n + 1)[:n]
    if work is not None:
        work.add(moments.s3.size + moments.s2.size)
    return border, float(np.vdot(G, moments.s2))


def _full_values(mesh: MeshLevel, interior_coeffs):
    """Zero-extend interior coefficients to all vertices."""
    interior_coeffs = np.asarray(interior_coeffs, dtype=float)
    if interior_coeffs.shape != (mesh.n_interior,):
        raise ValueError("coefficient vector does not match the interior dof count")
    out = np.zeros(mesh.n_vertices)
    out[mesh.interior_indices] = interior_coeffs
    return out


def _coeff_array(u):
    return u.coefficients if isinstance(u, FeFunction) else np.asarray(u, dtype=float)


def apply_nonlinear_residual(mesh: MeshLevel, spec: ProblemSpec, u, lam):
    """Dual vector of v -> a(u, v) - lam b(u, v) over interior basis functions,
    with a(u, v) = (grad u, grad v) + (W u + zeta u^3, v)."""
    c = _coeff_array(u)
    A = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    if spec.potential is not None:
        A = A + assemble_weighted_mass(mesh, spec.potential)
    if spec.zeta != 0.0:
        A = A + spec.zeta * assemble_weighted_mass(mesh, FeFunction(mesh.level_index, c))
    return A @ c - lam * (M @ c)


def a_norm(u, stiffness):
    """Energy norm sqrt(u' A u)."""
    c = _coeff_array(u)
    if stiffness.shape[1] != c.shape[0]:
        raise ValueError("dimension mismatch between vector and matrix")
    return float(np.sqrt(max(c @ (stiffness @ c), 0.0)))


def l2_norm(u, mass):
    """L2 norm sqrt(u' M u)."""
    c = _coeff_array(u)
    if mass.shape[1] != c.shape[0]:
        raise ValueError("dimension mismatch between vector and matrix")
    return float(np.sqrt(max(c @ (mass @ c), 0.0)))
