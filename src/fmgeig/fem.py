"""P1 finite element assembly on one mesh level.

Stiffness of the Laplacian, mass, weighted mass for the potential and the
frozen nonlinearity, and the energy / L2 norms.
All systems are reduced to interior degrees of freedom.  Two kernels stand
in for matrices a correction level never assembles: the load vector
(W u + zeta u^3, v), one streamed pass, and the potential's products with
a fine function t, contracted from t's moments over the coarse cells.

Meshes come from :func:`mesh.build_initial_mesh` and :func:`mesh.refine`
alone: every mesh is the Kuhn triangulation of its grid, and every cell a
shape of :data:`mesh.SHAPES` scaled by the spacing h, so its measure is
h^d / d!.  Only the potential reads positions: grid coordinates times h.

Each mesh builds its CSR pattern once, on first use, from its integer grid
(``MeshLevel.grid``), and keeps it on the MeshLevel instance: every cell
edge runs from a vertex v to the grid point v + delta h, delta one of the
2^d - 1 nonzero 0/1 vectors, so the pattern is a fixed stencil, found
through :func:`mesh.grid_neighbours` without visiting a cell and sorted
only inside each row.  It carries a gather from a compact index (the edge
leaving v in direction k, then the diagonal) to CSR order, and each
entry's index into the stencil tables.

The stiffness and the mass visit no cell.  Every entry of a row is a sum
over the cells around its vertex, so it is read from a small integer table
at the entry's signed direction and at which of the vertex's 2^d grid
cubes lie in the box; the tables are built at import from the cells of one
seed star.  A K entry is its cells' integer numerators times h^(d-2) / d!,
an M entry n copies of one cell's value added one at a time.

The other kernels stream the cells block by block of ``_BLOCK`` cells, the
one block constant of the module (the span moments use it too), and build
only the (d+1)(d+2)/2 upper local entries of each cell, 6 in 2D and 10 in
3D, in ``np.triu_indices(d+1)`` order: no array of all cells' entries or
quadrature values is ever built.  The weighted mass adds each block's
entries, in cell order, into the compact index through a per-cell slot
map, which the first W or Mnl assembly on a mesh builds and keeps, and
gathers once.  (i, j) and (j, i) read the same sum or the same table
value, so every matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import (SHAPE_EDGES, SHAPES, MeshLevel, build_initial_mesh, descendant_barycentrics,
                   grid_neighbours, index_dtype)

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
    "a_norm",
    "l2_norm",
]

# fine cells per block of every cell-streamed kernel, of the slot map build
# and of the span moments: a 3D block's quadrature values, upper entries
# and, for the span moments, point arrays stay near 1.4 MB
_BLOCK = 1 << 14


def harmonic_potential(points):
    """W(x) = |x|^2 at points (..., d), the trapping potential and the
    only potential besides W = 0.  The assembly evaluates it one axis at a
    time, from the grid (:func:`_weight_at_qpoints`)."""
    return np.square(points).sum(axis=-1)


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


def _cached(mesh, key, build):
    """build(mesh), built on first use and kept in the instance dict of the
    (frozen) mesh, so it lives exactly as long as the mesh does."""
    cache = mesh.__dict__
    if key not in cache:
        cache[key] = build(mesh)
    return cache[key]


def _pattern(mesh):
    """The mesh's CSR pattern.  Every assembly fetches it before it builds
    any entries, so the pattern's one-time temporaries never coexist with
    them."""
    return _cached(mesh, "_fem_pattern", _build_pattern)


def _slots(mesh):
    """The compact index of every upper local entry of every cell, which
    only the cell-streamed assemblies (:func:`_assemble`) read."""
    return _cached(mesh, "_fem_slots", _build_slots)


def _measure(mesh):
    """The measure h^d / d! of every cell: |det| = 1 for every shape."""
    return mesh.spacing ** mesh.dim / factorial(mesh.dim)


class _Pattern(NamedTuple):
    indptr: np.ndarray
    indices: np.ndarray
    gather: np.ndarray     # (nnz,) compact index of each CSR entry
    n_compact: int         # n_vertices * 2^d: 2^d - 1 edge directions per vertex, diagonal
    stencil: np.ndarray    # (nnz,) int16 signed direction * 4^d + row column: the raveled stencil tables' index


def _shape_stiffness(d):
    """Integer numerators d! |K| grad_i . grad_j of the upper local
    stiffness entries of every shape of :data:`mesh.SHAPES` at spacing 1,
    (n_shapes, (d+1)(d+2)/2).  For edge rows E, the barycentric gradients
    1..d are the columns of E^-1, an integer matrix since |det E| = 1, and
    d! |K| = 1."""
    inv = np.rint(np.linalg.inv(SHAPES[d])).astype(np.int64)
    grads = np.concatenate([-inv.sum(axis=2, keepdims=True), inv], axis=2)
    iu, ju = np.triu_indices(d + 1)
    return np.einsum("ski,skj->sij", grads, grads)[:, iu, ju]


# built at import: the inverse runs once, not in any assembly
_STIFFNESS = {d: _shape_stiffness(d) for d in SHAPES}


def _stencil_tables(d):
    """The stiffness numerators and the cell counts of every entry of a
    row, as two integer (2^(d+1) - 1, 4^d) tables, summed over the cells of
    one seed star: the vertex (1, .., 1) of ``build_initial_mesh(d, 2)``.
    Row j is the entry's signed direction: j < 2^d - 1 the neighbour
    v + delta h of direction j, the next 2^d - 1 the neighbours v - delta h,
    the last the diagonal.  Column c says which of the row vertex's 2^d
    grid cubes lie in the box: bit i marks the vertex on the face x_i = 0,
    bit d + i on the face x_i = 1, and the cells of a cube beyond a marked
    face are left out.  Column 0, every cube inside, is every interior
    vertex's."""
    n_dir = 2 ** d - 1
    seed = build_initial_mesh(d, 2)
    centre = np.flatnonzero((seed.grid == 1).all(axis=1))[0]
    bit = 1 << np.arange(d)
    iu, ju = np.triu_indices(d + 1)
    upper = {(i, j): e for e, (i, j) in enumerate(zip(iu, ju))}
    numerators = np.zeros((2 * n_dir + 1, 4 ** d), dtype=np.int64)
    counts = np.zeros_like(numerators)
    column = np.arange(4 ** d)
    for cell, shape in zip(seed.cells, seed.shapes):
        if centre not in cell:
            continue
        a = list(cell).index(centre)
        # the cube's side of the centre per axis: bit i set for the side above
        above = (seed.grid[cell].min(axis=0) == 1) @ bit
        inside = ((column & ~above) | ((column >> d) & above)) & (2 ** d - 1) == 0
        for b, w in enumerate(cell):
            delta = seed.grid[w] - seed.grid[centre]
            if b == a:
                j = 2 * n_dir
            elif (delta >= 0).all():
                j = delta @ bit - 1
            else:
                j = n_dir - delta @ bit - 1
            numerators[j, inside] += _STIFFNESS[d][shape, upper[min(a, b), max(a, b)]]
            counts[j, inside] += 1
    return numerators, counts


_STENCIL = {d: _stencil_tables(d) for d in SHAPES}


def _cell_blocks(mesh):
    """(start, stop) of the blocks of _BLOCK cells that every cell-streamed
    kernel visits, in cell order."""
    return [(start, min(start + _BLOCK, mesh.n_cells)) for start in range(0, mesh.n_cells, _BLOCK)]


def _build_pattern(mesh):
    """CSR pattern (indptr, indices) over the interior vertices, the
    gather from compact index to CSR order, and each entry's index into the
    stencil tables, found on the grid without visiting a cell.
    :func:`mesh.grid_neighbours` gives each row vertex v its neighbours
    v +- delta_k h in the 2^d - 1 grid directions k; a point outside the
    box reads -1, so that neighbour is absent, and the absent neighbours
    along the axes say which faces v is on.  The edge from v to
    v + delta_k h has compact index v (2^d - 1) + k, and v's diagonal
    n_vertices (2^d - 1) + v; entries that touch a boundary vertex are
    never gathered.  Each row's at most
    2^(d+1) - 1 columns are sorted inside the row, as packed (column,
    signed direction, compact index) keys, so no sort spans the mesh.
    Vertex and compact ids are :func:`mesh.index_dtype` integers, and
    :data:`mesh.MAX_VERTICES` keeps the compact index below 2^32 and the
    columns below 2^27."""
    n_v, d = mesh.n_vertices, mesh.dim
    ids = index_dtype(mesh)
    n_dir = 2 ** d - 1
    inner = mesh.interior_indices
    n = inner.size
    k = np.arange(n_dir)
    near = grid_neighbours(mesh, inner)
    # the stencil column of each row: the faces it lies on, from its absent
    # neighbours along the axes, directions 2^i - 1
    column = np.zeros(n, dtype=np.int16)
    for i in range(d):
        column |= (near[1][:, 2 ** i - 1] < 0) << i
        column |= (near[0][:, 2 ** i - 1] < 0) << d + i
    # the dof of every vertex, -1 for a boundary vertex; the extra last
    # entry is what the -1 of a missing neighbour reads
    dof = np.full(n_v + 1, -1, dtype=np.int64)
    dof[inner] = np.arange(n)
    # each row's keys, column << 36 | signed direction << 32 | compact index:
    # the edges that leave its vertex, the edges that reach it, then its
    # diagonal; a key without a column is the int64 maximum, so sorting a
    # row puts those last
    width = 2 * n_dir + 1
    keys = np.empty((n, width), dtype=np.int64)
    keys[:, :n_dir] = np.take(dof, near[0])
    keys[:, n_dir:-1] = np.take(dof, near[1])
    keys[:, -1] = np.arange(n)
    absent = keys < 0
    keys <<= 36
    keys |= np.arange(width) << 32
    keys[:, :n_dir] |= inner[:, None] * n_dir + k
    keys[:, n_dir:-1] |= near[1] * n_dir + k
    keys[:, -1] |= inner + n_dir * n_v
    keys[absent] = np.iinfo(np.int64).max
    keys.sort(axis=1)
    counts = width - absent.sum(axis=1)
    indptr = np.zeros(n + 1, dtype=ids)
    np.cumsum(counts, out=indptr[1:])
    keys = keys[keys != np.iinfo(np.int64).max]
    gather = (keys & 0xFFFFFFFF).astype(ids)
    keys >>= 32
    stencil = (keys & 15).astype(np.int16)
    stencil *= 4 ** d
    if column.any():
        stencil += np.repeat(column, counts)
    keys >>= 4
    return _Pattern(indptr, keys.astype(ids), gather, (n_dir + 1) * n_v, stencil)


def _build_slots(mesh):
    """The compact index (:func:`_build_pattern`) of every upper local
    entry (cell, k), k in ``np.triu_indices(d+1)`` order, flattened in that
    order: every cell edge leaves its lower end v in one of the 2^d - 1
    grid directions k (:data:`mesh.SHAPE_EDGES`), so its index is
    v (2^d - 1) + k, and a cell vertex v's diagonal is
    n_vertices (2^d - 1) + v.  One pass over the blocks of cells."""
    n_v, d = mesh.n_vertices, mesh.dim
    n_dir = 2 ** d - 1
    lower_of, dir_of = SHAPE_EDGES[d]
    iu, ju = np.triu_indices(d + 1)
    off = iu != ju
    slot = np.empty((mesh.n_cells, iu.size), dtype=index_dtype(mesh))
    for start, stop in _cell_blocks(mesh):
        cells, shapes = mesh.cells[start:stop], mesh.shapes[start:stop]
        # np.take: fancy indexing by the int8 shapes is about 3x slower
        local = np.take(lower_of, shapes, axis=0)
        local += (d + 1) * np.arange(stop - start)[:, None]
        slot[start:stop, off] = np.take(cells, local) * n_dir + np.take(dir_of, shapes, axis=0)
        slot[start:stop, ~off] = cells + n_dir * n_v
    return slot.ravel()


def _csr(pattern, data):
    """The interior matrix of the pattern with the given entries in CSR
    order; zero entries (couplings the stiffness cancels) are dropped.  The
    caller owns the matrix, so the cached index arrays are copied.  Every
    pattern row holds its diagonal, so no reduceat segment is empty."""
    indptr, indices = pattern.indptr, pattern.indices
    n = indptr.size - 1
    keep = data != 0.0
    if keep.all():
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
    kept = np.zeros_like(indptr)
    np.cumsum(np.add.reduceat(keep, indptr[:-1], dtype=indptr.dtype), out=kept[1:])
    return sp.csr_matrix((data[keep], indices[keep], kept), shape=(n, n))


def _assemble(mesh, entries, work=None):
    """CSR matrix from the upper local entries that ``entries(start, stop)``
    returns for cells start .. stop-1, as (stop - start, (d+1)(d+2)/2) in
    ``np.triu_indices(d+1)`` order, on the cached pattern and slot map.
    Block by block (:func:`_cell_blocks`), in cell order, ``np.add.at``
    adds the entries into the compact index; it adds in index order, so
    every sum is the one a single bincount over all cells gives, bit for
    bit.  A gather then puts the sums in CSR order.  (i, j) and (j, i)
    gather the same sum, so the result is exactly symmetric.  Counts one
    work unit per local entry."""
    pattern = _pattern(mesh)
    slot = _slots(mesh)
    width = (mesh.dim + 1) * (mesh.dim + 2) // 2
    sums = np.zeros(pattern.n_compact)
    for start, stop in _cell_blocks(mesh):
        np.add.at(sums, slot[start * width:stop * width], entries(start, stop).ravel())
    # np.take gathers faster with int32 indices but copies them to int64
    # whole: the per-block cell gathers take, this whole-pattern gather
    # indexes
    A = _csr(pattern, sums[pattern.gather])
    if work is not None:
        work.count_assembly(slot.size)
    return A


def _assemble_stencil(mesh, table, work=None):
    """CSR matrix whose every entry is read from the (2^(d+1) - 1, 4^d)
    table at its signed direction and its row's column
    (:func:`_stencil_tables`): no cell is visited.  Counts one work unit
    per stored entry."""
    pattern = _pattern(mesh)
    A = _csr(pattern, np.take(table, pattern.stencil))
    if work is not None:
        work.count_assembly(A.nnz)
    return A


def assemble_stiffness(mesh: MeshLevel, work=None):
    """Matrix of (grad w, grad v), the Laplacian; exact for P1 since
    gradients are cellwise constant.  Each entry is the sum of its cells'
    integer numerators (:data:`_STIFFNESS`, :func:`_stencil_tables`) times
    h^(d-2) / d!, rounded once for a binary h; couplings that cancel are
    exact zeros."""
    d = mesh.dim
    return _assemble_stencil(mesh, _STENCIL[d][0] * mesh.spacing ** (d - 2) / factorial(d), work)


def assemble_mass(mesh: MeshLevel, work=None):
    """Matrix of (w, v); exact closed form for P1: each cell adds
    |K| (1 + delta_ij) / ((d+1)(d+2)).  An entry of n cells is n copies of
    that cell value added one at a time, as a cell-order sum adds them."""
    d = mesh.dim
    counts = _STENCIL[d][1]
    q = (d + 1) * (d + 2)
    # sums[0, n], sums[1, n]: n copies of one cell's off-diagonal and
    # diagonal value, added one at a time
    sums = np.zeros((2, counts.max() + 1))
    cell = _measure(mesh) * np.array([[1.0 / q], [2.0 / q]])
    np.cumsum(np.repeat(cell, counts.max(), axis=1), axis=1, out=sums[:, 1:])
    table = sums[0][counts]
    table[-1] = sums[1][counts[-1]]                 # the diagonal row
    return _assemble_stencil(mesh, table, work)


def _weight_at_qpoints(mesh, weight, rule):
    """|x|^2 (weight=harmonic_potential) or u^2 (an FeFunction u on the mesh's
    level) at the quadrature points of a block of cells: a function of
    (start, stop) that returns a new (stop - start, nq) array.  |x|^2 is
    summed one axis at a time, each coordinate x_a = grid_a h at the points
    one (block, d+1) @ (d+1, nq) product, so no point array is built."""
    nq = len(rule.points)
    if weight is harmonic_potential:
        bary = rule.points.T

        def values(start, stop):
            cells = mesh.cells[start:stop]
            w = np.zeros((stop - start, nq))
            for x in mesh.grid.T:
                xq = (np.take(x, cells) * mesh.spacing) @ bary
                w += np.square(xq, out=xq)
            return w

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
    measure = _measure(mesh)
    # (nq, upper entries) table of w_q phi_i(q) phi_j(q); one matrix product per block
    iu, ju = np.triu_indices(mesh.dim + 1)
    table = rule.weights[:, None] * rule.points[:, iu] * rule.points[:, ju]

    def entries(start, stop):
        vals = values(start, stop)
        vals *= measure
        return vals @ table

    return _assemble(mesh, entries, work)


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
    X = (coarse.grid * coarse.spacing)[coarse.cells]       # (cells, d+1, d)
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
