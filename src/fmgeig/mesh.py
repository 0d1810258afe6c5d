"""Nested simplicial meshes of the unit box (0,1)^d.

Builds the initial triangulation of the box (2 triangles per square in 2D,
6 tetrahedra per cube in 3D), refines it regularly so that every level's
vertex set is a prefix of the next level's, and assembles the sparse
coarse-to-fine interpolation operators that realize the nesting of the
P1 spaces with zero boundary values, over interior dofs.

Every mesh is the Kuhn/Freudenthal triangulation of its integer grid, its
only geometry (Bey, Computing 55, 1995): every cell is one of six shapes
(:data:`SHAPES`) scaled by the grid spacing, and every cell edge joins
grid neighbours v and v + delta h, delta a nonzero 0/1 vector.  One
sort-free lookup of those neighbours (:func:`grid_neighbours`) numbers a
refinement's midpoints and their parents and gives ``fem`` its pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .errors import MeshBudgetError

__all__ = [
    "MeshLevel",
    "MeshHierarchy",
    "build_initial_mesh",
    "refine",
    "build_hierarchy",
    "interior_prolongation",
    "SHAPES",
    "SHAPE_CHILDREN",
    "SHAPE_EDGES",
    "cell_edges",
    "descendant_barycentrics",
    "grid_neighbours",
    "index_dtype",
]

# the largest vertex count build_hierarchy refines to; it keeps fem's
# compact index, below n_vertices * 2^d, under 2^32
MAX_VERTICES = 30_000_000

# Children of a refined triangle in terms of the local indices
# (v0, v1, v2, m01, m02, m12); all four keep the parent's orientation.
_TRI_CHILDREN = np.array([
    [0, 3, 4],
    [3, 1, 5],
    [4, 5, 2],
    [3, 5, 4],
])

# Children of a refined tetrahedron, local indices
# (v0, v1, v2, v3, m01, m02, m03, m12, m13, m23).  The interior octahedron
# is always cut along the m02-m13 diagonal; with the path-ordered initial
# tetrahedra below this reproduces the same triangulation pattern on the
# half-size grid, so shape quality does not degrade under repeated
# refinement.
_TET_CHILDREN = np.array([
    [0, 4, 5, 6],
    [4, 1, 7, 8],
    [5, 7, 2, 9],
    [6, 8, 9, 3],
    [4, 5, 6, 8],
    [4, 5, 7, 8],
    [5, 6, 8, 9],
    [5, 7, 8, 9],
])

_CHILD_TABLE = {2: _TRI_CHILDREN, 3: _TET_CHILDREN}


def descendant_barycentrics(dim, depth):
    """Barycentric coordinates of the vertices of every descendant type,
    ``depth`` refinements below its ancestor, as (n_types, d+1, d+1) with
    n_types = (2^d)^depth: row v of entry k holds vertex v of type k in the
    ancestor's barycentrics.  :func:`refine` numbers the children of cell i
    ``i * 2^d + k`` for k in :data:`_CHILD_TABLE` order, so cell i of a level
    ``depth`` refinements down descends from cell ``i // n_types`` of the
    ancestor level as type ``i % n_types``; the first refinement's child
    index is the most significant digit.  All entries are dyadic, so exact.
    The shape closure (:data:`SHAPE_CHILDREN`) and ``fem``'s span moments
    read this child order.
    """
    d = dim
    pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    eye = np.eye(d + 1)
    local = np.vstack([eye] + [0.5 * (eye[i] + eye[j]) for i, j in pairs])
    child = local[_CHILD_TABLE[d]]                      # (2^d, d+1, d+1)
    table = eye[None]
    for _ in range(depth):
        # the vertices of child k2 of type k1, in the ancestor's coordinates
        table = np.matmul(child[None], table[:, None]).reshape(-1, d + 1, d + 1)
    return table


def index_dtype(mesh):
    """int32 when every vertex, edge and CSR entry index of the mesh fits in
    it, else int64: a cell has d(d+1)/2 edges and d+1 vertices, so
    (d+1)^2 per cell bounds the nonzeros of any P1 pattern (two per edge and
    one per vertex), and on a Kuhn grid also ``fem``'s compact index,
    below n_vertices * 2^d.  :func:`build_initial_mesh` and :func:`refine` store
    cells in it."""
    return _index_dtype(mesh.n_vertices, mesh.n_cells, mesh.dim)


def _index_dtype(n_vertices, n_cells, dim):
    bound = max(n_vertices, n_cells * (dim + 1) ** 2)
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class MeshLevel:
    """One simplicial mesh in a refinement chain.

    ``level_index`` counts refinements from the initial mesh.  Vertex v
    sits at ``grid[v] * spacing``, integer coordinates from 0 to
    :attr:`divisions`, and is on the boundary exactly when one of them is
    0 or ``divisions``.  For meshes produced by :func:`refine`, the
    parent's vertices come first, ``n_parent_vertices`` of them, then the
    edge midpoints, and the cells keep refine's child order
    (:func:`descendant_barycentrics`).  The edge vectors x_i - x_0 of cell
    c are ``SHAPES[dim][shapes[c]] * spacing``.
    """

    dim: int
    cells: np.ndarray             # (n_cells, dim+1) index_dtype, refinement-canonical order
    boundary_vertex: np.ndarray   # (n_vertices,) bool
    level_index: int
    spacing: float                # grid spacing h: 1/n on level 0, halved by refine
    shapes: np.ndarray            # (n_cells,) int8 index into SHAPES[dim]
    grid: np.ndarray              # (n_vertices, dim) int32: positions / spacing
    n_parent_vertices: int = 0

    @property
    def n_vertices(self):
        return self.grid.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def divisions(self):
        """Grid intervals per axis: 1 / spacing."""
        return round(1.0 / self.spacing)

    @property
    def interior_indices(self):
        return np.flatnonzero(~self.boundary_vertex)

    @property
    def n_interior(self):
        return int(np.count_nonzero(~self.boundary_vertex))


def _on_faces(grid, divisions):
    """The vertices on a face of the unit box, from their grid coordinates,
    one axis at a time."""
    flags = np.zeros(grid.shape[0], dtype=bool)
    for x in grid.T:
        flags |= x == 0
        flags |= x == divisions
    return flags


def build_initial_mesh(dim, divisions_per_axis):
    """Uniform simplicial mesh of the unit box.

    Each of the ``divisions_per_axis**dim`` sub-boxes is split into 2
    triangles (2D) or into the 6 path tetrahedra along the main diagonal
    (3D), so the cell count is ``2 n^2`` or ``6 n^3``.  The cells come in
    one block per triangle or tetrahedron of the sub-box, and block k is
    shape k of :data:`SHAPES`.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = int(divisions_per_axis)
    if n < 1:
        raise ValueError("divisions_per_axis must be >= 1")

    # vertex (iz (n+1) + iy) (n+1) + ix sits at grid point (ix, iy[, iz])
    axes = np.meshgrid(*[np.arange(n + 1, dtype=np.int32)] * dim, indexing="ij")
    grid = np.column_stack([a.ravel() for a in axes[::-1]])
    # every cell is a path of grid steps from the lower corner of its
    # sub-box: the two triangles, or one tetrahedron per order of the axes
    if dim == 2:
        corners = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        paths = [[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]]
    else:
        corners = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
        paths = [np.cumsum([(0, 0, 0), *np.eye(3, dtype=int)[list(perm)]], axis=0)
                 for perm in permutations(range(3))]
    corner = np.stack(corners, axis=-1).reshape(-1, 1, dim)
    cells = np.concatenate([(corner + path) @ (n + 1) ** np.arange(dim) for path in paths])

    return MeshLevel(
        dim=dim,
        cells=np.ascontiguousarray(cells, dtype=_index_dtype(len(grid), len(cells), dim)),
        boundary_vertex=_on_faces(grid, n),
        level_index=0,
        spacing=1.0 / n,
        shapes=np.repeat(np.arange(len(cells) // n ** dim, dtype=np.int8), n ** dim),
        grid=grid,
    )


def grid_neighbours(mesh, rows=None):
    """The vertices at the grid points g + delta_k h and g - delta_k h of
    every vertex in ``rows`` (default all), for the 2^d - 1 nonzero 0/1
    vectors delta_k, k = sum_i delta_i 2^i - 1, as two (rows, 2^d - 1)
    :func:`index_dtype` arrays; -1 marks a point outside the box.  Every
    cell edge joins such a pair (:data:`SHAPE_EDGES`).  One dense map from
    the grid points, padded by one point on every side, to the vertices:
    no sort."""
    d = mesh.dim
    side = mesh.divisions + 3
    stride = side ** np.arange(d)
    at = (mesh.grid + 1) @ stride
    vertex_at = np.full(side ** d, -1, dtype=index_dtype(mesh))
    vertex_at[at] = np.arange(mesh.n_vertices)
    step = ((np.arange(1, 2 ** d)[:, None] >> np.arange(d)) & 1) @ stride
    here = (at if rows is None else np.take(at, rows))[:, None]
    return np.take(vertex_at, here + step), np.take(vertex_at, here - step)


def _edges(mesh):
    """Every edge of the mesh as its two ends, lower index first, and its
    compact index: its end lower on the grid times 2^d - 1, plus its
    direction k (:func:`grid_neighbours`).  The edges come in (lower,
    higher) index order: each vertex in index order, then its grid
    neighbours of larger index, sorted inside the row, so no sort spans the
    mesh.  :func:`refine` numbers the midpoints in this order."""
    n_dir = 2 ** mesh.dim - 1
    up, down = grid_neighbours(mesh)
    v = np.arange(mesh.n_vertices)[:, None]
    # each row's keys, neighbour << 32 | compact index; a neighbour of
    # smaller index, or none, is the int64 maximum, which the sort puts last
    keys = np.hstack([up, down]).astype(np.int64)
    later = keys > v
    keys <<= 32
    keys[:, :n_dir] |= np.arange(v.size * n_dir).reshape(-1, n_dir)
    keys[:, n_dir:] |= down * n_dir + np.arange(n_dir)
    keys[~later] = np.iinfo(np.int64).max
    keys.sort(axis=1)
    later = keys != np.iinfo(np.int64).max
    keys = keys[later]
    return np.broadcast_to(v, later.shape)[later], keys >> 32, keys & 0xFFFFFFFF


def refine(coarse: MeshLevel) -> MeshLevel:
    """One regular refinement step: every edge midpoint becomes a vertex,
    every triangle splits into 4 children, every tetrahedron into 8.  Parent
    vertices keep their indices as a prefix of the child mesh, and the
    midpoints follow in :func:`_edges` order."""
    d, nv = coarse.dim, coarse.n_vertices
    n_dir = 2 ** d - 1
    edge_lo, edge_hi, compact = _edges(coarse)
    grid = np.concatenate([2 * coarse.grid, np.take(coarse.grid, edge_lo, axis=0)
                           + np.take(coarse.grid, edge_hi, axis=0)])

    # the midpoint of every compact index, read at each cell edge's lower
    # end and direction
    ids = _index_dtype(len(grid), coarse.n_cells * 2 ** d, d)
    midpoint = np.empty(nv * n_dir, dtype=ids)
    midpoint[compact] = np.arange(nv, len(grid), dtype=ids)
    mid = np.take(midpoint, cell_edges(coarse.cells, coarse.shapes))
    local = np.hstack([coarse.cells.astype(ids, copy=False), mid])
    children = local[:, _CHILD_TABLE[d].ravel()].reshape(-1, d + 1)

    return MeshLevel(
        dim=d,
        cells=children,
        boundary_vertex=_on_faces(grid, 2 * coarse.divisions),
        level_index=coarse.level_index + 1,
        spacing=coarse.spacing / 2,
        shapes=np.take(SHAPE_CHILDREN[d], coarse.shapes, axis=0).ravel(),
        grid=grid,
        n_parent_vertices=nv,
    )


def _shape_closure(d):
    """The cells of ``build_initial_mesh(d, 1)``, as integer edge vectors
    x_i - x_0 in units of the spacing (n_shapes, d, d), closed under
    refinement, and the (n_shapes, 2^d) shape of child k of each shape.
    Child k's vertices are the parent's barycentric combinations
    (:func:`descendant_barycentrics`), integers in units of half the
    spacing.  The loop also visits the shapes it appends."""
    seed = build_initial_mesh(d, 1)
    x = seed.grid[seed.cells].astype(int)
    shapes = [tuple(map(tuple, e)) for e in x[:, 1:] - x[:, :1]]
    children = []
    for shape in shapes:
        corners = np.vstack([np.zeros(d, dtype=int), shape])
        row = []
        for child in descendant_barycentrics(d, 1):
            points = np.rint(2 * child @ corners).astype(int)
            edges = tuple(map(tuple, points[1:] - points[0]))
            if edges not in shapes:
                shapes.append(edges)
            row.append(shapes.index(edges))
        children.append(row)
    return np.array(shapes), np.array(children, dtype=np.int8)


def _shape_edges(d):
    """The lower end (a local vertex position) and the direction k of
    every edge of every shape, edges in ``np.triu_indices(d+1, k=1)``
    order, as two (n_shapes, d(d+1)/2) arrays: every edge of a Kuhn simplex
    runs from a grid point x to x + delta_k h (:func:`grid_neighbours`)."""
    corners = np.concatenate([np.zeros_like(SHAPES[d][:, :1]), SHAPES[d]], axis=1)
    i, j = np.triu_indices(d + 1, k=1)
    step = corners[:, j] - corners[:, i]                   # (n_shapes, edges, d)
    return np.where((step >= 0).all(axis=2), i, j), np.abs(step) @ (1 << np.arange(d)) - 1


# SHAPES[d]: integer edge vectors of unit |det|, 6 shapes in 2D and 6 in 3D;
# SHAPE_CHILDREN[d][s, k]: the shape of child k of a cell of shape s;
# SHAPE_EDGES[d]: the lower end and direction of every edge of every shape
SHAPES, SHAPE_CHILDREN, SHAPE_EDGES = {}, {}, {}
for _d in _CHILD_TABLE:
    SHAPES[_d], SHAPE_CHILDREN[_d] = _shape_closure(_d)
    SHAPE_EDGES[_d] = _shape_edges(_d)


def cell_edges(cells, shapes):
    """The compact index of every edge of the given cells, (cells,
    d(d+1)/2) in ``np.triu_indices(d+1, k=1)`` order: the edge's lower end
    on the grid times 2^d - 1, plus its direction k (:data:`SHAPE_EDGES`,
    :func:`grid_neighbours`).  :func:`refine` reads its midpoints at it,
    and ``fem`` its per-cell slot map."""
    d = cells.shape[1] - 1
    lower_end, direction = SHAPE_EDGES[d]
    # np.take: fancy indexing by the int8 shapes is about 3x slower
    lower = np.take(lower_end, shapes, axis=0)
    lower += (d + 1) * np.arange(len(cells))[:, None]
    return np.take(cells, lower) * (2 ** d - 1) + np.take(direction, shapes, axis=0)


def interior_prolongation(coarse: MeshLevel, fine: MeshLevel):
    """Sparse interpolation matrix P with P @ c_coarse = c_fine for the same
    P1 function with zero boundary values, over interior dofs: an inherited
    interior vertex gets a single 1, an edge midpoint 1/2 for each interior
    parent (none for a midpoint of two boundary vertices), its parents
    read from :func:`_edges` of the coarse mesh."""
    if fine.n_parent_vertices != coarse.n_vertices or fine.level_index != coarse.level_index + 1:
        raise ValueError("fine mesh is not the refinement of the given coarse mesh")
    nv_c = coarse.n_vertices
    if not np.array_equal(fine.grid[:nv_c], 2 * coarse.grid):
        raise ValueError("vertex prefix mismatch between levels")
    dof = np.full(nv_c, -1, dtype=np.int64)
    dof[coarse.interior_indices] = np.arange(coarse.n_interior)
    # the parents of every fine vertex as coarse dofs, -1 for none or a
    # boundary vertex: an inherited vertex is its own first parent, and a
    # midpoint's lower parent comes first, so every row lists its columns
    # in order
    parents = np.hstack([[dof, np.full(nv_c, -1)], np.take(dof, _edges(coarse)[:2])])
    rows = fine.interior_indices
    cols = np.take(parents, rows, axis=1)
    keep = cols >= 0
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.add(keep[0], keep[1], dtype=np.int64), out=indptr[1:])
    # the inherited rows come first
    data = np.full(indptr[-1], 0.5)
    data[:indptr[np.searchsorted(rows, nv_c)]] = 1.0
    return sp.csr_matrix((data, cols.T[keep.T], indptr),
                         shape=(fine.n_interior, coarse.n_interior))


@dataclass
class MeshHierarchy:
    """One chain of refinements, coarsest mesh first.

    ``meshes[0]`` carries the correction space V_H and ``meshes[first]``
    hosts the first nonlinear solve; ``levels`` is the chain from ``first``
    on, and ``coarse`` is ``meshes[0]``, which is ``levels[0]`` when
    ``first`` is 0.  The interior-dof prolongations between the meshes, and
    their chains from the correction space, are built on first use and
    kept.
    """

    meshes: list
    first: int = 0
    _interior: dict = field(default_factory=dict, repr=False)
    _chained: dict = field(default_factory=dict, repr=False)

    @property
    def levels(self):
        return self.meshes[self.first:]

    @property
    def coarse(self):
        return self.meshes[0]

    @property
    def n_levels(self):
        return len(self.meshes) - self.first

    def interior_prolongation(self, k):
        """Interior-dof prolongation from level k to level k+1; levels
        -first .. -1 are the meshes below the first solve level."""
        j = self.first + k
        if j not in self._interior:
            self._interior[j] = interior_prolongation(self.meshes[j], self.meshes[j + 1])
        return self._interior[j]

    def coarse_to_level_interior(self, k):
        """Chained interior prolongation from the correction space to level k."""
        if k not in self._chained:
            B = sp.identity(self.coarse.n_interior, format="csr")
            for j in range(-self.first, k):
                B = (self.interior_prolongation(j) @ B).tocsr()
            self._chained[k] = B
        return self._chained[k]

    def truncated(self, n: int) -> "MeshHierarchy":
        """View of the first n levels and the correction space (shares
        arrays with self)."""
        return MeshHierarchy(meshes=self.meshes[: self.first + n], first=self.first)


def build_hierarchy(dim, divisions_per_axis, n_levels, coarse_offset=0) -> MeshHierarchy:
    """Build the nested mesh chain on the unit box.

    ``coarse_offset`` refinements separate the correction space from the
    first solve level; 0 (the default) identifies the two.  Raises
    :class:`MeshBudgetError` if a level would exceed :data:`MAX_VERTICES`.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if coarse_offset < 0:
        raise ValueError("coarse_offset must be >= 0")

    chain = [build_initial_mesh(dim, divisions_per_axis)]
    for k in range(1, coarse_offset + n_levels):
        predicted = chain[-1].n_vertices * 2 ** dim
        if predicted > MAX_VERTICES:
            raise MeshBudgetError(
                f"level {k} would need about {predicted} vertices "
                f"(budget {MAX_VERTICES})", level_index=k)
        chain.append(refine(chain[-1]))

    return MeshHierarchy(meshes=chain, first=coarse_offset)
