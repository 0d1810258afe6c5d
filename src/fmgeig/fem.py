"""P1 finite element assembly on one mesh level.

Stiffness with a constant SPD diffusion matrix, mass, weighted mass for
the potential and the frozen nonlinearity, the nonlinear residual, and
the energy / L2 norms.  All systems are reduced to interior degrees of
freedom unless a full matrix is requested explicitly.

Every kernel builds only the (d+1)(d+2)/2 upper local entries of each cell,
as a (cells, 6) array in 2D or a (cells, 10) array in 3D, in
``np.triu_indices(d+1)`` order.  Each mesh computes its checked cell
measures and its CSR pattern once, on first use, and keeps them on the
MeshLevel instance.  The pattern carries two maps: a compact index for every
upper local entry (the mesh edges, then the diagonal, then one dump slot for
entries that couple to an excluded vertex), and a gather from that compact
index to CSR order.  Every assembly is then one ``bincount`` of the upper
entries into the compact index and one gather; (i, j) and (j, i) read the
same sum, so every matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .mesh import MeshLevel, cell_edges, cell_measures

__all__ = [
    "ProblemSpec",
    "FeFunction",
    "QuadratureRule",
    "harmonic_potential",
    "quadrature_rule",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "apply_nonlinear_residual",
    "a_norm",
    "l2_norm",
]

_FIELD_BLOCK = 1 << 16


def harmonic_potential(points):
    """W(x) = |x|^2, the trapping potential of both benchmark problems.
    Summed one coordinate at a time, so the component-major point arrays
    of the assembly (a transposed view) are read without a copy."""
    w = points[..., 0] ** 2
    for k in range(1, points.shape[-1]):
        w += points[..., k] ** 2
    return w


@dataclass(frozen=True)
class ProblemSpec:
    """PDE data: -div(A grad u) + W u + zeta |u|^(2 sigma) u = lambda u on the
    unit box with zero boundary values and the L2 normalization b(u,u)=1."""

    dim: int
    diffusion: np.ndarray | None = None   # None means identity
    potential: object = harmonic_potential  # callable W(x) >= 0, or None for W=0
    zeta: float = 1.0
    sigma: int = 1

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")
        if self.sigma < 1 or int(self.sigma) != self.sigma:
            raise ValueError("sigma must be a positive integer")
        if self.diffusion is not None:
            A = np.asarray(self.diffusion, dtype=float)
            if A.shape != (self.dim, self.dim):
                raise ValueError("diffusion matrix has wrong shape")
            if not np.allclose(A, A.T, atol=1e-14):
                raise ValueError("diffusion matrix must be symmetric")
            if np.linalg.eigvalsh(A).min() <= 0:
                raise ValueError("diffusion matrix must be positive definite")
            object.__setattr__(self, "diffusion", A)

    @property
    def diffusion_matrix(self):
        if self.diffusion is None:
            return np.eye(self.dim)
        return self.diffusion


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


_RULES = {2: _triangle_rule_deg4(), 3: _tetrahedron_rule_deg4()}


def quadrature_rule(dim, degree=4) -> QuadratureRule:
    """Symmetric volume rule exact for polynomials up to `degree`."""
    rule = _RULES.get(dim)
    if rule is None or degree > rule.degree:
        raise AssemblyError(f"no quadrature rule of degree {degree} in {dim}D")
    return rule


def _cached(mesh: MeshLevel, key, build):
    """build(mesh), memoized in the instance dict of the (frozen) mesh so the
    value lives exactly as long as the mesh does."""
    cache = mesh.__dict__
    if key not in cache:
        cache[key] = build(mesh)
    return cache[key]


def _checked_measures(mesh):
    """Unsigned cell measures (nc,); a degenerate cell raises AssemblyError."""
    measures = cell_measures(mesh)
    bad = np.flatnonzero(measures < 1e-14 * mesh.mesh_size ** mesh.dim)
    if bad.size:
        raise AssemblyError(f"degenerate cell {int(bad[0])}")
    return measures


def _measures_and_pattern(mesh: MeshLevel, interior_only):
    """Cell measures and the CSR pattern of the mesh, each built once per mesh.
    The cell check runs first, so a degenerate cell is reported before any
    pattern is built; callers fetch both before computing local matrices so
    the pattern's one-time temporaries never coexist with them."""
    measures = _cached(mesh, "_fem_measures", _checked_measures)
    key = "_fem_pattern_interior" if interior_only else "_fem_pattern_full"
    return measures, _cached(mesh, key, lambda m: _build_pattern(m, interior_only))


class _Pattern(NamedTuple):
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray       # (cells * (d+1)(d+2)/2,) compact index of each upper entry
    gather: np.ndarray     # (nnz,) compact index of each CSR entry
    n_compact: int         # edges + diagonal + the dump slot


def _build_pattern(mesh, interior_only):
    """CSR pattern (indptr, indices) over the interior (or all) vertices, the
    compact index of every upper local entry (cell, k), k in
    ``np.triu_indices(d+1)`` order and flattened in that order, and the gather
    from compact index to CSR order.  The compact index numbers the mesh
    edges, then the diagonal, then one dump slot for every entry that couples
    to an excluded vertex; the two CSR entries of an edge gather its one sum."""
    if interior_only:
        n = mesh.n_interior
        dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
        dof[mesh.interior_indices] = np.arange(n)
    else:
        n = mesh.n_vertices
        dof = np.arange(n, dtype=np.int64)
    cell_dofs = dof[mesh.cells]
    iu, ju = np.triu_indices(mesh.dim + 1)
    off = iu != ju
    # edge key lo * n + hi of every off-diagonal upper entry, built in place;
    # each large temporary is dropped as soon as the next step has read it
    a, b = cell_dofs[:, iu[off]], cell_dofs[:, ju[off]]
    keys = np.minimum(a, b)
    np.maximum(a, b, out=b)
    del a
    inner = keys >= 0
    keys *= n
    keys += b
    del b
    keys = keys[inner]
    edges, edge_of = np.unique(keys, return_inverse=True)
    del keys
    n_e = edges.size
    e_lo, e_hi = np.divmod(edges, n)
    del edges
    # stored entries: both orientations of every mesh edge, then the diagonal
    keys = np.concatenate([e_lo * n + e_hi, e_hi * n + e_lo, np.arange(n) * (n + 1)])
    order = np.argsort(keys)
    nnz = keys.size
    idx = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    indices = (keys[order] % n).astype(idx)
    del keys
    edge_ids = np.arange(n_e, dtype=idx)
    gather = np.concatenate([edge_ids, edge_ids, np.arange(n_e, n_e + n, dtype=idx)])[order]
    del order
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(e_lo, minlength=n) + np.bincount(e_hi, minlength=n) + 1,
              out=indptr[1:])

    dump = n_e + n
    slot = np.empty((len(cell_dofs), iu.size), dtype=idx)
    slot[:, ~off] = np.where(cell_dofs >= 0, n_e + cell_dofs, dump)
    edge = np.full(inner.shape, dump, dtype=idx)
    edge[inner] = edge_of
    slot[:, off] = edge
    return _Pattern(indptr, indices, slot.ravel(), gather, dump + 1)


def _assemble(pattern, up, work=None):
    """CSR matrix from upper local entries (cells, (d+1)(d+2)/2) in
    ``np.triu_indices(d+1)`` order, on a cached pattern: one bincount into
    the compact index, then a gather into CSR order.  (i, j) and (j, i)
    gather the same sum, so the result is exactly symmetric."""
    indptr, indices, slot, gather, n_compact = pattern
    sums = np.bincount(slot, weights=up.ravel(), minlength=n_compact)
    n = indptr.size - 1
    # copies of the cached index arrays: the caller owns the matrix
    A = sp.csr_matrix((sums[gather], indices.copy(), indptr.copy()), shape=(n, n))
    A.eliminate_zeros()
    if work is not None:
        work.count_assembly(up.size)
    return A


def _scaled_gradients(mesh):
    """det(x_1 - x_0, ..., x_d - x_0) times the barycentric gradients,
    component-major (d+1, d, cells): rows 1..d are the cofactor rows of the
    edge matrix, written out (in 3D the cross products b x c, c x a, a x b
    of the edges a, b, c), and row 0 is minus their sum."""
    G = np.empty((mesh.dim + 1, mesh.dim, mesh.n_cells))
    if mesh.dim == 2:
        (ax, ay), (bx, by) = cell_edges(mesh)
        G[1, 0], G[1, 1] = by, -bx
        G[2, 0], G[2, 1] = -ay, ax
    else:
        a, b, c = cell_edges(mesh)
        for row, (u, v) in enumerate(((b, c), (c, a), (a, b)), start=1):
            np.subtract(u[1] * v[2], u[2] * v[1], out=G[row, 0])
            np.subtract(u[2] * v[0], u[0] * v[2], out=G[row, 1])
            np.subtract(u[0] * v[1], u[1] * v[0], out=G[row, 2])
    np.negative(G[1], out=G[0])
    for row in G[2:]:
        G[0] -= row
    return G


def assemble_stiffness(mesh: MeshLevel, spec: ProblemSpec, interior_only=True, work=None):
    """Matrix of (A grad w, grad v); exact for P1 since gradients are
    cellwise constant.  With G = det * gradients, |K| grad_i A grad_j equals
    G_i A G_j / (d!^2 |K|), so no determinant or inverse is needed here."""
    measures, pattern = _measures_and_pattern(mesh, interior_only)
    G = _scaled_gradients(mesh)
    DG = np.matmul(spec.diffusion_matrix, G)
    iu, ju = np.triu_indices(mesh.dim + 1)
    # one dot product per upper pair, entry-major so every write is
    # contiguous; gathering G[iu] and DG[ju] instead would copy both
    # (entries, d, cells) arrays
    up = np.empty((iu.size, mesh.n_cells))
    for k, (i, j) in enumerate(zip(iu, ju)):
        np.einsum("mc,mc->c", G[i], DG[j], out=up[k])
    del G, DG
    up /= factorial(mesh.dim) ** 2 * measures
    return _assemble(pattern, up.T, work)


def assemble_mass(mesh: MeshLevel, interior_only=True, work=None):
    """Matrix of (w, v); exact closed form for P1: |K| (1 + delta_ij) / ((d+1)(d+2))."""
    d = mesh.dim
    iu, ju = np.triu_indices(d + 1)
    base = (1.0 + (iu == ju)) / ((d + 1) * (d + 2))
    measures, pattern = _measures_and_pattern(mesh, interior_only)
    return _assemble(pattern, measures[:, None] * base, work)


def _field_at_qpoints(mesh, func, rule):
    """Analytic field evaluated at the quadrature points of every cell (nc, nq).
    Each block's points come from one matrix product, (block * d, d+1) @
    (d+1, nq), and reach the field component-major as a transposed
    (points, d) view.  Blocks of cells bound the point array and the
    field's own temporaries, which over a whole fine mesh would set the
    peak memory of a solve."""
    d, nq = mesh.dim, len(rule.points)
    bary = rule.points.T
    vals = np.empty((mesh.n_cells, nq))
    for start in range(0, mesh.n_cells, _FIELD_BLOCK):
        cells = mesh.cells[start:start + _FIELD_BLOCK]
        coords = np.take(mesh.vertices.T, cells, axis=1)          # (d, block, d+1)
        phys = coords.reshape(-1, d + 1) @ bary                     # (d * block, nq)
        field = func(phys.reshape(d, -1).T)
        vals[start:start + len(cells)] = np.asarray(field, dtype=float).reshape(len(cells), nq)
    return vals


def _weight_values_at_qpoints(mesh, weight, rule):
    """Weight evaluated at the quadrature points of every cell (nc, nq)."""
    if callable(weight):
        return _field_at_qpoints(mesh, weight, rule)
    if isinstance(weight, FeFunction):
        if weight.level_index != mesh.level_index:
            raise ValueError(
                f"weight lives on level {weight.level_index}, mesh is level {mesh.level_index}")
        vertex_vals = _full_values(mesh, weight.coefficients)
    else:
        vertex_vals = np.asarray(weight, dtype=float)
        if vertex_vals.shape == (mesh.n_interior,):
            vertex_vals = _full_values(mesh, vertex_vals)
        elif vertex_vals.shape != (mesh.n_vertices,):
            raise ValueError("weight vector length matches neither the interior "
                             "nor the full vertex count")
    return vertex_vals[mesh.cells] @ rule.points.T


def assemble_weighted_mass(mesh: MeshLevel, weight, power=1, interior_only=True, work=None):
    """Matrix of (w^power u, v) for a P1 coefficient weight or an analytic
    field.  For P1 weights the quadrature is exact, which requires
    power + 2 <= 4 with the built-in rules."""
    rule = _RULES[mesh.dim]
    if not callable(weight) and power + 2 > rule.degree:
        raise AssemblyError(
            f"weighted mass with P1 weight^{power} needs a degree {power + 2} rule; "
            f"only degree {rule.degree} is available")
    measures, pattern = _measures_and_pattern(mesh, interior_only)
    vals = _weight_values_at_qpoints(mesh, weight, rule)
    if power != 1:
        vals **= power
    vals *= measures[:, None]
    # (nq, upper entries) table of w_q phi_i(q) phi_j(q); one matrix product per assembly
    iu, ju = np.triu_indices(mesh.dim + 1)
    table = rule.weights[:, None] * rule.points[:, iu] * rule.points[:, ju]
    up = vals @ table
    del vals
    return _assemble(pattern, up, work)


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
    with a(u, v) = (A grad u, grad v) + (W u + zeta u^(2 sigma) u, v)."""
    c = _coeff_array(u)
    A = assemble_stiffness(mesh, spec)
    M = assemble_mass(mesh)
    if spec.potential is not None:
        A = A + assemble_weighted_mass(mesh, spec.potential, 1)
    if spec.zeta != 0.0:
        uf = FeFunction(mesh.level_index, c)
        A = A + spec.zeta * assemble_weighted_mass(mesh, uf, 2 * spec.sigma)
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
