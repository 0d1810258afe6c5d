"""Nested simplicial meshes on axis-aligned boxes.

Builds the initial triangulation of a box (2 triangles per square in 2D,
6 tetrahedra per cube in 3D), refines it regularly so that every level's
vertex set is a prefix of the next level's, and assembles the sparse
coarse-to-fine interpolation operators that realize the nesting of the
P1 spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import factorial

import numpy as np
import scipy.sparse as sp

from .errors import MeshBudgetError

__all__ = [
    "MeshLevel",
    "MeshHierarchy",
    "build_initial_mesh",
    "refine",
    "build_hierarchy",
    "prolongation",
    "interior_prolongation",
    "cell_edges",
    "cell_measures",
]

BOUNDARY_TOL = 1e-12

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


@dataclass(frozen=True)
class MeshLevel:
    """One simplicial mesh in a refinement chain.

    ``level_index`` counts refinements from the initial mesh.  For meshes
    produced by :func:`refine`, the parent's vertices occupy indices
    ``0 .. n_parent_vertices-1`` and ``midpoint_parents[i]`` gives the two
    parent endpoints of new vertex ``n_parent_vertices + i``.
    """

    dim: int
    vertices: np.ndarray          # (n_vertices, dim) float
    cells: np.ndarray             # (n_cells, dim+1) int, refinement-canonical order
    boundary_vertex: np.ndarray   # (n_vertices,) bool
    level_index: int
    mesh_size: float
    box: tuple
    n_parent_vertices: int = 0
    midpoint_parents: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

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


def _boundary_flags(vertices, box):
    flags = np.zeros(vertices.shape[0], dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        x = vertices[:, axis]
        flags |= np.abs(x - lo) <= BOUNDARY_TOL
        flags |= np.abs(x - hi) <= BOUNDARY_TOL
    return flags


def _max_diameter(vertices, cells):
    coords = vertices[cells]
    n_loc = cells.shape[1]
    dmax = 0.0
    for i in range(n_loc):
        for j in range(i + 1, n_loc):
            d = np.linalg.norm(coords[:, i, :] - coords[:, j, :], axis=1)
            dmax = max(dmax, float(d.max()))
    return dmax


def cell_edges(mesh):
    """Edge vectors x_i - x_0, i = 1..d, of every cell as (d, d, cells):
    entry [i - 1, k] is component k of x_i - x_0, one contiguous row of
    cells."""
    x = np.take(mesh.vertices.T, mesh.cells.T, axis=1)     # (d, d+1, cells)
    return (x[:, 1:] - x[:, :1]).transpose(1, 0, 2)


def cell_measures(mesh):
    """Unsigned measure (area / volume) of every cell: |det(x_1 - x_0, ...,
    x_d - x_0)| / d!, written out as the 2D cross product or the 3D triple
    product."""
    if mesh.dim == 2:
        (ax, ay), (bx, by) = cell_edges(mesh)
        det = ax * by - ay * bx
    else:
        a, b, c = cell_edges(mesh)
        det = (a[0] * (b[1] * c[2] - b[2] * c[1]) + a[1] * (b[2] * c[0] - b[0] * c[2])
               + a[2] * (b[0] * c[1] - b[1] * c[0]))
    return np.abs(det) / factorial(mesh.dim)


def build_initial_mesh(dim, divisions_per_axis, box=None):
    """Uniform simplicial mesh of a box.

    Each of the ``divisions_per_axis**dim`` sub-boxes is split into 2
    triangles (2D) or into the 6 path tetrahedra along the main diagonal
    (3D), so the cell count is ``2 n^2`` or ``6 n^3``.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    n = int(divisions_per_axis)
    if n < 1:
        raise ValueError("divisions_per_axis must be >= 1")
    if box is None:
        box = tuple(((0.0, 1.0),) * dim)
    else:
        box = tuple(tuple(map(float, b)) for b in box)
        if len(box) != dim or any(hi <= lo for lo, hi in box):
            raise ValueError(f"invalid box {box!r}")

    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    if dim == 2:
        X, Y = np.meshgrid(axes[0], axes[1], indexing="xy")
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
        X, Y, Z = np.meshgrid(axes[0], axes[1], axes[2], indexing="ij")
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

    cells = np.ascontiguousarray(cells, dtype=np.int64)
    return MeshLevel(
        dim=dim,
        vertices=vertices,
        cells=cells,
        boundary_vertex=_boundary_flags(vertices, box),
        level_index=0,
        mesh_size=_max_diameter(vertices, cells),
        box=box,
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

    midpoint_ids = nv + inverse.reshape(keys.shape)
    local = np.hstack([cells, midpoint_ids])
    table = _CHILD_TABLE[d]
    children = local[:, table.ravel()].reshape(-1, d + 1)

    return MeshLevel(
        dim=d,
        vertices=vertices,
        cells=np.ascontiguousarray(children, dtype=np.int64),
        boundary_vertex=_boundary_flags(vertices, coarse.box),
        level_index=coarse.level_index + 1,
        mesh_size=_max_diameter(vertices, children),
        box=coarse.box,
        n_parent_vertices=nv,
        midpoint_parents=np.column_stack([edge_lo, edge_hi]),
    )


def prolongation(coarse: MeshLevel, fine: MeshLevel):
    """Sparse interpolation matrix P with P @ c_coarse = c_fine for the same
    P1 function: inherited vertices get a single 1, edge midpoints two 1/2.
    """
    if fine.n_parent_vertices != coarse.n_vertices or fine.level_index != coarse.level_index + 1:
        raise ValueError("fine mesh is not the refinement of the given coarse mesh")
    if not np.array_equal(fine.vertices[: coarse.n_vertices], coarse.vertices):
        raise ValueError("vertex prefix mismatch between levels")

    nv_c = coarse.n_vertices
    n_mid = fine.n_vertices - nv_c
    rows = np.concatenate([
        np.arange(nv_c),
        np.repeat(np.arange(nv_c, fine.n_vertices), 2),
    ])
    cols = np.concatenate([np.arange(nv_c), fine.midpoint_parents.ravel()])
    data = np.concatenate([np.ones(nv_c), np.full(2 * n_mid, 0.5)])
    P = sp.csr_matrix((data, (rows, cols)), shape=(fine.n_vertices, nv_c))
    P.sort_indices()
    return P


def interior_prolongation(coarse: MeshLevel, fine: MeshLevel, P=None):
    """Restriction of the prolongation to interior (non-Dirichlet) dofs."""
    if P is None:
        P = prolongation(coarse, fine)
    return P[fine.interior_indices][:, coarse.interior_indices].tocsr()


@dataclass
class MeshHierarchy:
    """Chain of refinements, coarsest solve level first.

    ``levels[0]`` hosts the first nonlinear solve.  When the correction
    space is strictly coarser, ``coarse`` holds that mesh and
    ``coarse_chain`` the prolongations linking it to ``levels[0]``.
    """

    levels: list
    prolongations: list            # vertex-space P between consecutive levels
    coarse: MeshLevel | None = None
    coarse_chain: list = field(default_factory=list)
    coarse_intermediates: list = field(default_factory=list)
    _interior: dict = field(default_factory=dict, repr=False)
    _chained: dict = field(default_factory=dict, repr=False)

    @property
    def n_levels(self):
        return len(self.levels)

    def interior_prolongation(self, k):
        """Interior-dof prolongation from level k to level k+1."""
        if k not in self._interior:
            self._interior[k] = interior_prolongation(
                self.levels[k], self.levels[k + 1], self.prolongations[k]
            )
        return self._interior[k]

    def coarse_to_level_interior(self, k):
        """Chained interior prolongation from the correction space to level k."""
        if k in self._chained:
            return self._chained[k]
        if self.coarse is None:
            base = sp.identity(self.levels[0].n_interior, format="csr")
        else:
            chain_meshes = [self.coarse] + self.coarse_intermediates + [self.levels[0]]
            base = None
            for mesh_c, mesh_f, P in zip(chain_meshes[:-1], chain_meshes[1:], self.coarse_chain):
                Pint = interior_prolongation(mesh_c, mesh_f, P)
                base = Pint if base is None else (Pint @ base).tocsr()
        B = base
        for j in range(k):
            B = (self.interior_prolongation(j) @ B).tocsr()
        self._chained[k] = B
        return B

    def truncated(self, n: int) -> "MeshHierarchy":
        """View of the first n levels (shares arrays with self)."""
        return MeshHierarchy(
            levels=self.levels[:n],
            prolongations=self.prolongations[: n - 1],
            coarse=self.coarse,
            coarse_chain=self.coarse_chain,
            coarse_intermediates=self.coarse_intermediates,
        )


def build_hierarchy(dim, divisions_per_axis, n_levels, coarse_offset=0, box=None,
                    max_vertices=30_000_000) -> MeshHierarchy:
    """Build the nested mesh chain.

    ``coarse_offset`` refinements separate the correction space from the
    first solve level; 0 (the default) identifies the two.  Raises
    :class:`MeshBudgetError` if a level would exceed ``max_vertices``.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if coarse_offset < 0:
        raise ValueError("coarse_offset must be >= 0")

    chain = [build_initial_mesh(dim, divisions_per_axis, box=box)]
    transfers = []
    for k in range(1, coarse_offset + n_levels):
        predicted = chain[-1].n_vertices * 2 ** dim
        if predicted > max_vertices:
            raise MeshBudgetError(
                f"level {k} would need about {predicted} vertices "
                f"(budget {max_vertices})", level_index=k)
        fine = refine(chain[-1])
        transfers.append(prolongation(chain[-1], fine))
        chain.append(fine)

    return MeshHierarchy(
        levels=chain[coarse_offset:],
        prolongations=transfers[coarse_offset:],
        coarse=chain[0] if coarse_offset > 0 else None,
        coarse_chain=transfers[:coarse_offset],
        coarse_intermediates=chain[1:coarse_offset],
    )
