"""Nested simplicial meshes of the unit box (0,1)^d.

Builds the initial triangulation of the box (2 triangles per square in 2D,
6 tetrahedra per cube in 3D), refines it regularly so that every level's
vertex set is a prefix of the next level's, and assembles the sparse
coarse-to-fine interpolation operators that realize the nesting of the
P1 spaces with zero boundary values, over interior dofs.

Every cell is one of six reference shapes (:data:`SHAPES`, the
Kuhn/Freudenthal simplices; Bey, Computing 55, 1995) scaled by its mesh's
grid spacing, and each mesh records both, and every vertex's integer grid
coordinates, so ``fem`` reads no cell's geometry from its vertices and the
boundary flags are exact.
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
    Readers of this child order: the shape closure
    (:data:`SHAPE_CHILDREN`) here, and ``fem``, whose span moments
    integrate over each coarse cell's descendants.
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
    cells and midpoint parents in it."""
    return _index_dtype(mesh.n_vertices, mesh.n_cells, mesh.dim)


def _index_dtype(n_vertices, n_cells, dim):
    bound = max(n_vertices, n_cells * (dim + 1) ** 2)
    return np.int32 if bound <= np.iinfo(np.int32).max else np.int64


@dataclass(frozen=True)
class MeshLevel:
    """One simplicial mesh in a refinement chain.

    ``level_index`` counts refinements from the initial mesh.  For meshes
    produced by :func:`refine`, the parent's vertices occupy indices
    ``0 .. n_parent_vertices-1`` and ``midpoint_parents[i]`` gives the two
    parent endpoints of new vertex ``n_parent_vertices + i``; their cells
    keep refine's child order (:func:`descendant_barycentrics`).  The edge
    vectors x_i - x_0 of cell c are ``SHAPES[dim][shapes[c]] * spacing``,
    so every cell edge joins two grid points that differ by the spacing
    times a nonzero 0/1 vector, up to sign.  ``grid`` holds every vertex's
    coordinates in units of the spacing, integers from 0 to
    :attr:`divisions`; a vertex is on the boundary exactly when one of them
    is 0 or ``divisions``.
    """

    dim: int
    vertices: np.ndarray          # (n_vertices, dim) float
    cells: np.ndarray             # (n_cells, dim+1) index_dtype, refinement-canonical order
    boundary_vertex: np.ndarray   # (n_vertices,) bool
    level_index: int
    spacing: float                # grid spacing h: 1/n on level 0, halved by refine
    shapes: np.ndarray            # (n_cells,) int8 index into SHAPES[dim]
    grid: np.ndarray              # (n_vertices, dim) int32: vertices / spacing
    n_parent_vertices: int = 0
    midpoint_parents: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int32))

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

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
    vertices = np.linspace(0.0, 1.0, n + 1)[grid]
    if dim == 2:
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
        boundary_vertex=_on_faces(grid, n),
        level_index=0,
        spacing=1.0 / n,
        shapes=np.repeat(np.arange(len(cells) // n ** dim, dtype=np.int8), n ** dim),
        grid=grid,
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

    # the parents, then the midpoints; np.take gathers rows faster than
    # fancy indexing
    vertices = np.empty((nv + edge_lo.size, d))
    vertices[:nv] = coarse.vertices
    np.add(np.take(coarse.vertices, edge_lo, axis=0), np.take(coarse.vertices, edge_hi, axis=0),
           out=vertices[nv:])
    vertices[nv:] *= 0.5
    grid = np.empty_like(vertices, dtype=np.int32)
    np.multiply(coarse.grid, 2, out=grid[:nv])
    np.add(np.take(coarse.grid, edge_lo, axis=0), np.take(coarse.grid, edge_hi, axis=0),
           out=grid[nv:])

    ids = _index_dtype(len(vertices), coarse.n_cells * 2 ** d, d)
    mid = (nv + inverse.reshape(keys.shape)).astype(ids)
    local = np.hstack([cells.astype(ids, copy=False), mid])
    table = _CHILD_TABLE[d]
    children = local[:, table.ravel()].reshape(-1, d + 1)

    return MeshLevel(
        dim=d,
        vertices=vertices,
        cells=children,
        boundary_vertex=_on_faces(grid, 2 * coarse.divisions),
        level_index=coarse.level_index + 1,
        spacing=coarse.spacing / 2,
        shapes=np.take(SHAPE_CHILDREN[d], coarse.shapes, axis=0).ravel(),
        grid=grid,
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
