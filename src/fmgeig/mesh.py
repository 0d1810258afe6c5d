"""Nested simplicial meshes of the unit box (0,1)^d.

Builds the initial triangulation of the box (2 triangles per square in 2D,
6 tetrahedra per cube in 3D), refines it regularly so that every level's
vertex set is a prefix of the next level's, and assembles the sparse
coarse-to-fine interpolation operators that realize the nesting of the
P1 spaces with zero boundary values, over interior dofs.

Every cell is one of six reference shapes (:data:`SHAPES`, the
Kuhn/Freudenthal simplices; Bey, Computing 55, 1995) scaled by its mesh's
grid spacing, and each mesh records both, so ``fem`` reads no cell's
geometry from its vertices.
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
    "descendant_barycentrics",
    "parent_cells",
    "refined_edges",
    "index_dtype",
]

BOUNDARY_TOL = 1e-12
# the largest vertex count build_hierarchy refines to
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
    Readers of this child order: :func:`parent_cells`,
    :func:`refined_edges` and the shape closure (:data:`SHAPE_CHILDREN`)
    here, and ``fem``, whose refined meshes take their edges from their
    parent's cells and whose span moments integrate over each coarse
    cell's descendants.
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


def _local_sources(d):
    """(child, position) of the first occurrence of every local index
    (vertices, then edge midpoints) in the child table."""
    table = _CHILD_TABLE[d]
    flat = [int(np.flatnonzero(table.ravel() == v)[0]) for v in range(table.max() + 1)]
    return np.divmod(np.array(flat), d + 1)


def _child_edge_columns(d):
    """Where every child's off-diagonal upper pair, in
    ``np.triu_indices(d+1, k=1)`` order, finds its edge among a parent's
    edge columns: two halves per local
    edge (column 2 p at its first endpoint, 2 p + 1 at its second), then the
    midpoint pairs that children join.  Returns the (2^d, d(d+1)/2) column
    table and those midpoint pairs as local edge indices (n_mid, 2)."""
    pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    iu, ju = np.triu_indices(d + 1, k=1)
    local = _CHILD_TABLE[d][:, iu], _CHILD_TABLE[d][:, ju]
    lo, hi = np.minimum(*local), np.maximum(*local)
    mid_pairs = sorted({(p, q) for p, q in zip(lo.ravel(), hi.ravel()) if p > d})
    columns = np.empty(lo.shape, dtype=np.int64)
    for k, m in np.ndindex(lo.shape):
        p, q = lo[k, m], hi[k, m]
        if p > d:
            columns[k, m] = 2 * len(pairs) + mid_pairs.index((p, q))
        else:
            # a child edge from a vertex always runs to a midpoint of its own
            columns[k, m] = 2 * (q - d - 1) + pairs[q - d - 1].index(p)
    return columns, np.array(mid_pairs) - (d + 1)


_LOCAL_SOURCE = {d: _local_sources(d) for d in _CHILD_TABLE}
_CHILD_EDGES = {d: _child_edge_columns(d) for d in _CHILD_TABLE}


def parent_cells(mesh):
    """Every parent cell of a mesh made by :func:`refine`, read back from its
    children: (n_cells / 2^d, d+1 + d(d+1)/2) vertex ids, the parent's
    vertices and then its edge midpoints, in the local order of the child
    table ((v0, v1, v2, m01, m02, m12) in 2D).  Child k of parent c is cell
    ``c * 2^d + k`` (see :func:`descendant_barycentrics`), so every column is
    one column of one child."""
    d = mesh.dim
    child, position = _LOCAL_SOURCE[d]
    return mesh.cells.reshape(-1, 2 ** d, d + 1)[:, child, position]


def index_dtype(mesh):
    """int32 when every vertex, edge and CSR entry index of the mesh fits in
    it, else int64: a cell has d(d+1)/2 edges and d+1 vertices, so
    (d+1)^2 per cell bounds the nonzeros of any P1 pattern (two per edge and
    one per vertex).  :func:`build_initial_mesh` and :func:`refine` store
    cells and midpoint parents in it."""
    return _index_dtype(mesh.n_vertices, mesh.n_cells, mesh.dim)


def _index_dtype(n_vertices, n_cells, dim):
    bound = max(n_vertices, n_cells * (dim + 1) ** 2)
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


def refined_edges(mesh):
    """The edges of a mesh made by :func:`refine`, numbered from its parent's.

    The halves of parent edge e, whose midpoint is vertex
    ``n_parent_vertices + e``, are edge e (at endpoint
    ``midpoint_parents[e, 0]``) and edge n_e + e (at the other endpoint).
    The midpoint pairs that children join follow: in 2D the 3 midlines of
    each parent triangle, which lie inside it alone, parent by parent; in
    3D the 13 per parent (12 face midlines, each shared with the parent
    across the face, and the m02-m13 cut) go through ``np.unique``, in
    sorted order.  Returns the endpoints of every edge as (2, n_edges)
    vertex ids, the edges of every parent as (n_parents, n_local) edge ids,
    and the (2^d, d(d+1)/2) column table through which child k of parent c
    finds the edge of its off-diagonal upper pair m, pairs in
    ``np.triu_indices(d+1, k=1)`` order: ``parent_edges[c, columns[k, m]]``.
    Ids are :func:`index_dtype` integers."""
    d = mesh.dim
    ids = index_dtype(mesh)
    nv, n_v = mesh.n_parent_vertices, mesh.n_vertices
    n_e = n_v - nv
    columns, mid_pairs = _CHILD_EDGES[d]
    local = parent_cells(mesh).astype(ids)
    mids = local[:, d + 1:]
    edge = mids - nv
    n_half = edge.shape[1]
    parent_edges = np.empty((len(local), 2 * n_half + len(mid_pairs)), dtype=ids)
    # half of local edge p at its first endpoint: edge[p], or n_e + edge[p]
    # when that endpoint is the second one of the parent edge; the other
    # half is the other one
    at_first = parent_edges[:, 0:2 * n_half:2]
    at_first[:] = edge
    first = np.triu_indices(d + 1, k=1)[0]
    at_first[local[:, first] != mesh.midpoint_parents[edge, 0]] += n_e
    np.subtract(2 * edge + n_e, at_first, out=parent_edges[:, 1:2 * n_half:2])
    a, b = mids[:, mid_pairs[:, 0]], mids[:, mid_pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    if d == 2:
        parent_edges[:, 2 * n_half:] = np.arange(lo.size).reshape(lo.shape) + 2 * n_e
    else:
        keys = lo.astype(np.int64) * n_v + hi
        # the sort-unique is the largest step of a 3D pattern build
        del a, b, lo, hi
        pairs, pair_of = np.unique(keys, return_inverse=True)
        parent_edges[:, 2 * n_half:] = pair_of.reshape(len(local), -1) + 2 * n_e
        lo, hi = np.divmod(pairs, n_v)
    mid = np.arange(nv, n_v)
    ends = np.stack([np.concatenate([mesh.midpoint_parents.T.ravel(), lo.ravel()], dtype=ids),
                     np.concatenate([mid, mid, hi.ravel()], dtype=ids)])
    return ends, parent_edges, columns


@dataclass(frozen=True)
class MeshLevel:
    """One simplicial mesh in a refinement chain.

    ``level_index`` counts refinements from the initial mesh.  For meshes
    produced by :func:`refine`, the parent's vertices occupy indices
    ``0 .. n_parent_vertices-1`` and ``midpoint_parents[i]`` gives the two
    parent endpoints of new vertex ``n_parent_vertices + i``; their cells
    keep refine's child order, from which :func:`parent_cells` reads the
    parent's cells back.  The edge vectors x_i - x_0 of cell c are
    ``SHAPES[dim][shapes[c]] * spacing``.
    """

    dim: int
    vertices: np.ndarray          # (n_vertices, dim) float
    cells: np.ndarray             # (n_cells, dim+1) index_dtype, refinement-canonical order
    boundary_vertex: np.ndarray   # (n_vertices,) bool
    level_index: int
    spacing: float                # grid spacing h: 1/n on level 0, halved by refine
    shapes: np.ndarray            # (n_cells,) int8 index into SHAPES[dim]
    n_parent_vertices: int = 0
    midpoint_parents: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int32))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def interior_indices(self):
        return np.flatnonzero(~self.boundary_vertex)

    @property
    def n_interior(self):
        return int(np.count_nonzero(~self.boundary_vertex))


def _boundary_flags(vertices):
    """The vertices on a face of the unit box."""
    flags = np.zeros(vertices.shape[0], dtype=bool)
    for x in vertices.T:
        for face in (0.0, 1.0):
            flags |= np.abs(x - face) <= BOUNDARY_TOL
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

    axis = np.linspace(0.0, 1.0, n + 1)
    if dim == 2:
        X, Y = np.meshgrid(axis, axis, indexing="xy")
        vertices = np.column_stack([X.ravel(), Y.ravel()])

        def vid(ix, iy):
            return iy * (n + 1) + ix

        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        v00 = vid(ix, iy)
        v10 = vid(ix + 1, iy)
        v01 = vid(ix, iy + 1)
        v11 = vid(ix + 1, iy + 1)
        cells = np.concatenate([
            np.column_stack([v00, v10, v11]),
            np.column_stack([v00, v11, v01]),
        ])
    else:
        X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
        # vid(ix, iy, iz) = (iz*(n+1) + iy)*(n+1) + ix
        vertices = np.column_stack([
            np.transpose(X, (2, 1, 0)).ravel(),
            np.transpose(Y, (2, 1, 0)).ravel(),
            np.transpose(Z, (2, 1, 0)).ravel(),
        ])

        def vid(ix, iy, iz):
            return (iz * (n + 1) + iy) * (n + 1) + ix

        ix, iy, iz = [a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")]
        corner = np.column_stack([ix, iy, iz])
        blocks = []
        for perm in permutations(range(3)):
            steps = np.zeros((4, 3), dtype=np.int64)
            for k, axis in enumerate(perm):
                steps[k + 1] = steps[k]
                steps[k + 1, axis] += 1
            tet = [
                vid(corner[:, 0] + s[0], corner[:, 1] + s[1], corner[:, 2] + s[2])
                for s in steps
            ]
            blocks.append(np.column_stack(tet))
        cells = np.concatenate(blocks)

    return MeshLevel(
        dim=dim,
        vertices=vertices,
        cells=np.ascontiguousarray(cells, dtype=_index_dtype(len(vertices), len(cells), dim)),
        boundary_vertex=_boundary_flags(vertices),
        level_index=0,
        spacing=1.0 / n,
        shapes=np.repeat(np.arange(len(cells) // n ** dim, dtype=np.int8), n ** dim),
    )


def refine(coarse: MeshLevel) -> MeshLevel:
    """One regular refinement step: every edge midpoint becomes a vertex,
    every triangle splits into 4 children, every tetrahedron into 8.

    Parent vertices keep their indices as a prefix of the child mesh.
    """
    d = coarse.dim
    nv = coarse.n_vertices
    cells = coarse.cells

    pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    a = cells[:, [i for i, _ in pairs]]
    b = cells[:, [j for _, j in pairs]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keys = lo.astype(np.int64) * nv + hi.astype(np.int64)
    unique_keys, inverse = np.unique(keys.ravel(), return_inverse=True)
    edge_lo = unique_keys // nv
    edge_hi = unique_keys % nv

    midpoints = 0.5 * (coarse.vertices[edge_lo] + coarse.vertices[edge_hi])
    vertices = np.vstack([coarse.vertices, midpoints])

    ids = _index_dtype(len(vertices), coarse.n_cells * 2 ** d, d)
    mid = (nv + inverse.reshape(keys.shape)).astype(ids)
    local = np.hstack([cells.astype(ids, copy=False), mid])
    table = _CHILD_TABLE[d]
    children = local[:, table.ravel()].reshape(-1, d + 1)

    return MeshLevel(
        dim=d,
        vertices=vertices,
        cells=children,
        boundary_vertex=_boundary_flags(vertices),
        level_index=coarse.level_index + 1,
        spacing=coarse.spacing / 2,
        shapes=np.take(SHAPE_CHILDREN[d], coarse.shapes, axis=0).ravel(),
        n_parent_vertices=nv,
        midpoint_parents=np.column_stack([edge_lo, edge_hi]).astype(ids),
    )


def _shape_closure(d):
    """The cells of ``build_initial_mesh(d, 1)``, as integer edge vectors
    x_i - x_0 in units of the spacing (n_shapes, d, d), closed under
    refinement, and the (n_shapes, 2^d) shape of child k of each shape.
    Child k's vertices are the parent's barycentric combinations
    (:func:`descendant_barycentrics`), integers in units of half the
    spacing.  The loop also visits the shapes it appends."""
    seed = build_initial_mesh(d, 1)
    x = seed.vertices[seed.cells]
    shapes = [tuple(map(tuple, e)) for e in np.rint(x[:, 1:] - x[:, :1]).astype(int)]
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


# SHAPES[d]: integer edge vectors of unit |det|, 6 shapes in 2D and 6 in 3D;
# SHAPE_CHILDREN[d][s, k]: the shape of child k of a cell of shape s
SHAPES, SHAPE_CHILDREN = {}, {}
for _d in _CHILD_TABLE:
    SHAPES[_d], SHAPE_CHILDREN[_d] = _shape_closure(_d)


def interior_prolongation(coarse: MeshLevel, fine: MeshLevel):
    """Sparse interpolation matrix P with P @ c_coarse = c_fine for the same
    P1 function with zero boundary values, over interior dofs: an inherited
    interior vertex gets a single 1, an edge midpoint 1/2 for each interior
    parent (none for a midpoint of two boundary vertices)."""
    if fine.n_parent_vertices != coarse.n_vertices or fine.level_index != coarse.level_index + 1:
        raise ValueError("fine mesh is not the refinement of the given coarse mesh")
    if not np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices):
        raise ValueError("vertex prefix mismatch between levels")

    nv_c = coarse.n_vertices
    dof = np.full(nv_c, -1, dtype=np.int64)
    dof[coarse.interior_indices] = np.arange(coarse.n_interior)
    # the parents of every fine vertex as coarse dofs, -1 for none or a
    # boundary vertex: an inherited vertex is its own first parent, and a
    # midpoint's lower parent comes first, so every row lists its columns
    # in order
    parents = np.full((2, fine.n_vertices), -1, dtype=np.int64)
    parents[0, :nv_c] = dof
    parents[:, nv_c:] = dof[fine.midpoint_parents.T]
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
