"""P1 finite element assembly on one mesh level.

Stiffness of the Laplacian, mass, weighted mass for the potential and the
frozen nonlinearity, and the energy / L2 norms.
All systems are reduced to interior degrees of freedom.  Two kernels stand
in for matrices a correction level never assembles: the load vector
(W u + zeta u^3, v), W u with a transient W from the stencil tables and
zeta u^3 in one streamed pass without Mnl, and the potential's products
with a fine function t, contracted from t's moments over the coarse cells.

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

The stiffness, the mass and the potential W = |x|^2 visit no cell (Bey,
Computing 55, 1995).  Every entry of a row is a sum over the cells around
its vertex, so it is read from small tables at the entry's signed
direction and at which of the vertex's 2^d grid cubes lie in the box; the
tables are built at import, exactly, from the cells of one seed star.  A
K entry is its cells' integer numerators times h^(d-2) / d!, an M entry n
copies of one cell's value added one at a time, and a W entry
|m|^2 M_ij plus the moments of |x - m|^2 and x - m about its edge
midpoint m, times h^(d+2) (the first moments vanish off the box faces,
where the grid is centrally symmetric about m).  The load pass forms W u
as a product with a transient W read from the same tables.

The kernels that integrate a finite element function (the nonlinear
matrix Mnl, the load's zeta u^3, the span moments) stream the cells block
by block of ``_BLOCK`` cells, the one block constant of the module, and
build only the (d+1)(d+2)/2 upper local entries of each cell, 6 in 2D and
10 in 3D, in ``np.triu_indices(d+1)`` order: no array of all cells'
entries or quadrature values is ever built.  Mnl adds each block's
entries, in cell order, into the compact index through a per-cell slot
map, which the first Mnl assembly on a mesh builds and keeps, and gathers
once.  (i, j) and (j, i) read the same sum or the same table values, so
every matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import (SHAPES, MeshLevel, build_initial_mesh, cell_edges, descendant_barycentrics,
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
# and, for the span moments, point arrays stay near 1.4 MB; the potential's
# entries take _BLOCK / 2^d pattern rows per block
_BLOCK = 1 << 14


def harmonic_potential(points):
    """W(x) = |x|^2 at points (..., d), the trapping potential and the
    only potential besides W = 0.  The assembly never evaluates it: W is
    read from the grid's stencil tables (:func:`_potential_entries`)."""
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
    only the cell-streamed assembly of Mnl (:func:`_assemble`) reads."""
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
    """The tables of every entry of a row, each (2^(d+1) - 1, 4^d) and
    summed over the cells of one seed star: the vertex (1, .., 1) of
    ``build_initial_mesh(d, 2)``, at spacing 1.  They are the stiffness
    numerators, the cell counts and, about the entry's edge midpoint m
    (the vertex itself on the diagonal), the moments of the potential:
    the first moments int (x - m) phi_i phi_j, one table per axis, and
    the second moment int |x - m|^2 phi_i phi_j.  The moments are summed
    as integers, 2 (d+3)! and 4 (d+4)! times their values by
    int_K l^alpha = alpha! / (|alpha| + d)! on a cell of measure 1 / d!,
    and divided once, so every float is its exact value rounded.
    Row j is the entry's signed direction: j < 2^d - 1 the neighbour
    v + delta h of direction j, the next 2^d - 1 the neighbours v - delta h,
    the last the diagonal.  Column c says which of the row vertex's 2^d
    grid cubes lie in the box: bit i marks the vertex on the face x_i = 0,
    bit d + i on the face x_i = 1, and the cells of a cube beyond a marked
    face are left out.  Column 0, every cube inside, is every interior
    vertex's; the grid is centrally symmetric about every edge midpoint, so
    its first moments are 0."""
    n_dir = 2 ** d - 1
    seed = build_initial_mesh(d, 2)
    centre = np.flatnonzero((seed.grid == 1).all(axis=1))[0]
    bit = 1 << np.arange(d)
    iu, ju = np.triu_indices(d + 1)
    upper = {(i, j): e for e, (i, j) in enumerate(zip(iu, ju))}
    numerators = np.zeros((2 * n_dir + 1, 4 ** d), dtype=np.int64)
    counts = np.zeros_like(numerators)
    first = np.zeros((d,) + numerators.shape, dtype=np.int64)
    second = np.zeros_like(numerators)
    column = np.arange(4 ** d)
    for cell, shape in zip(seed.cells, seed.shapes):
        if centre not in cell:
            continue
        a = list(cell).index(centre)
        corners = seed.grid[cell].astype(np.int64)
        # the cube's side of the centre per axis: bit i set for the side above
        above = (corners.min(axis=0) == 1) @ bit
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
            # 2 (x_k - m) for the cell's vertices x_k, and alpha! of the
            # monomials l_k l_a l_b and l_k l_l l_a l_b
            y = 2 * corners - corners[a] - corners[b]
            n = np.bincount([a, b], minlength=d + 1)
            f3 = int(np.prod([factorial(c) for c in n])) * (n + 1)
            f4 = f3[:, None] * (n + 1 + np.eye(d + 1, dtype=np.int64))
            first[:, j, inside] += (f3 @ y)[:, None]
            second[j, inside] += (f4 * (y @ y.T)).sum()
    return numerators, counts, first / (2 * factorial(d + 3)), second / (4 * factorial(d + 4))


_STENCIL = {d: _stencil_tables(d) for d in SHAPES}


def _squared_length(d):
    """|delta|^2 for the signed direction delta of each row of the stencil
    tables (:func:`_stencil_tables`): the 2^d - 1 directions delta_k, then
    -delta_k, then 0 for the diagonal."""
    ones = [bin(k).count("1") for k in range(1, 2 ** d)]
    return np.array(ones + ones + [0], dtype=float)


_SQUARED_LENGTH = {d: _squared_length(d) for d in SHAPES}


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
    order: an edge's is :func:`mesh.cell_edges`, v (2^d - 1) + k for its
    lower end v and direction k, and a cell vertex v's diagonal is
    n_vertices (2^d - 1) + v.  One pass over the blocks of cells."""
    n_v, d = mesh.n_vertices, mesh.dim
    iu, ju = np.triu_indices(d + 1)
    off = iu != ju
    slot = np.empty((mesh.n_cells, iu.size), dtype=index_dtype(mesh))
    for start, stop in _cell_blocks(mesh):
        cells = mesh.cells[start:stop]
        slot[start:stop, off] = cell_edges(cells, mesh.shapes[start:stop])
        slot[start:stop, ~off] = cells + (2 ** d - 1) * n_v
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


def _mass_table(mesh):
    """The mass's stencil table (:func:`_stencil_tables`): each cell adds
    |K| (1 + delta_ij) / ((d+1)(d+2)), and an entry of n cells is n copies
    of that cell value added one at a time, as a cell-order sum adds them."""
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
    return table


def assemble_mass(mesh: MeshLevel, work=None):
    """Matrix of (w, v); exact closed form for P1 (:func:`_mass_table`)."""
    return _assemble_stencil(mesh, _mass_table(mesh), work)


def _potential_entries(mesh, pattern):
    """The entries of W = |x|^2 in the pattern's CSR order.  About the
    midpoint m = g h / 2 of an entry's edge, g = g_i + g_j the sum of its
    two vertices' grid points, |x|^2 = |m|^2 + 2 m . (x - m) + |x - m|^2,
    so W_ij = |m|^2 M_ij + h^(d+2) (S + g . F) with S and F the second and
    first moment tables at the entry's stencil index
    (:func:`_stencil_tables`).  |g|^2 = 2 |g_i|^2 + 2 |g_j|^2 - |g_j - g_i|^2
    is an exact integer, the last term the squared length of the entry's
    signed direction (:data:`_SQUARED_LENGTH`), and g . F is formed only
    on the rows at the box faces: F is 0 on every other row.  (i, j) and
    (j, i) share g and read equal table values, so W is exactly symmetric.
    Block by block of _BLOCK / 2^d rows, so no temporary spans all
    entries."""
    d, h = mesh.dim, mesh.spacing
    _, _, first, second = _STENCIL[d]
    indptr = pattern.indptr
    grid = mesh.grid[mesh.interior_indices].astype(float)
    twice = 2 * np.einsum("ia,ia->i", grid, grid)
    length = _SQUARED_LENGTH[d]
    entries = np.empty(pattern.indices.size)
    mass = _mass_table(mesh)
    n, step = mesh.n_interior, max(_BLOCK >> d, 1)
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo, hi = indptr[start], indptr[stop]
        counts = np.diff(indptr[start:stop + 1])
        cols = pattern.indices[lo:hi]
        # the stencil index is the signed direction times 4^d plus the column
        st = pattern.stencil[lo:hi].astype(np.intp)
        m2 = np.repeat(twice[start:stop], counts)
        m2 += np.take(twice, cols)
        m2 -= np.take(length, st >> 2 * d)
        m2 *= h * h / 4
        block = entries[lo:hi]
        # mode="clip" (every index is in range) writes to out unbuffered
        np.take(mass, st, out=block, mode="clip")
        block *= m2
        moment = np.take(second, st)
        face = np.flatnonzero(st & (4 ** d - 1))
        if face.size:
            rows = np.repeat(np.arange(start, stop), counts)[face]
            g = grid[rows] + grid[cols[face]]
            mf = moment[face]
            for a, f in enumerate(first):
                mf += g[:, a] * np.take(f, st[face])
            moment[face] = mf
        moment *= h ** (d + 2)
        block += moment
    return entries


def _square_at_qpoints(mesh, weight, rule):
    """u^2 for an FeFunction u on the mesh's level at the quadrature points
    of a block of cells: a function of (start, stop) that returns a new
    (stop - start, nq) array."""
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
    the frozen nonlinearity (u^2 w, v) for an FeFunction u.  W is read from
    the stencil tables (:func:`_potential_entries`), visits no cell and
    counts one work unit per stored entry, like K and M.  The nonlinearity
    streams the cells: u^2 w v is a degree-4 polynomial on each cell, which
    the degree-4 rule integrates exactly."""
    if weight is harmonic_potential:
        pattern = _pattern(mesh)
        W = _csr(pattern, _potential_entries(mesh, pattern))
        if work is not None:
            work.count_assembly(W.nnz)
        return W
    rule = _RULES[mesh.dim]
    values = _square_at_qpoints(mesh, weight, rule)
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
    rounding.  W u is a product with a transient W from the stencil tables
    (:func:`_potential_entries`) and counts two work units per stored entry,
    one for W's assembly and one for the product.  Mnl is never built.
    zeta u^3 is a degree-4 polynomial on each cell, which the degree-4
    rule integrates exactly: one pass over the blocks of cells, each
    block's (cells, d+1) local vectors added into the vertices by one
    bincount, counting one work unit per local entry, d+1 per cell.  With
    W = 0 and zeta = 0 it is zero and counts nothing."""
    c = _coeff_array(u)
    if spec.potential is None:
        load = np.zeros(mesh.n_interior)
    else:
        pattern = _pattern(mesh)
        load = _csr(pattern, _potential_entries(mesh, pattern)) @ c
        if work is not None:
            work.add(2 * pattern.indices.size)
    if spec.zeta == 0.0:
        return load
    full = _full_values(mesh, c)
    rule = _RULES[mesh.dim]
    table = rule.weights[:, None] * rule.points           # (nq, d+1): w_q phi_i(q)
    scale = spec.zeta * _measure(mesh)
    out = np.zeros(mesh.n_vertices)
    for start, stop in _cell_blocks(mesh):
        cells = mesh.cells[start:stop]
        uq = np.take(full, cells) @ rule.points.T          # (block, nq)
        f = np.square(uq)
        f *= uq
        f *= scale
        out += np.bincount(cells.ravel(), (f @ table).ravel(), minlength=mesh.n_vertices)
    if work is not None:
        work.add(mesh.n_cells * (mesh.dim + 1))
    load += out[mesh.interior_indices]
    return load


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
