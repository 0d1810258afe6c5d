"""P1 finite element assembly on one mesh level.

Stiffness with a constant SPD diffusion matrix, mass, weighted mass for
the potential and the frozen nonlinearity, the nonlinear residual, and
the energy / L2 norms.  All systems are reduced to interior degrees of
freedom unless a full matrix is requested explicitly.

Each mesh computes its checked cell measures and its CSR pattern (with the
map from every local entry to its data slot) once, on first use, and keeps
them on the MeshLevel instance; every later assembly on that mesh only sums
local values into a fresh data array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError
from .mesh import MeshLevel, cell_measures

__all__ = [
    "ProblemSpec",
    "FeFunction",
    "QuadratureRule",
    "harmonic_potential",
    "quadrature_rule",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "assemble_load",
    "apply_nonlinear_residual",
    "a_norm",
    "l2_norm",
    "integrate_power",
    "full_values",
    "dump_matrix",
]

_FIELD_BLOCK = 1 << 16


def harmonic_potential(points):
    """W(x) = |x|^2, the trapping potential of both benchmark problems."""
    return np.sum(points ** 2, axis=-1)


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
    measures = cell_measures(mesh)
    bad = np.flatnonzero(measures < 1e-14 * mesh.mesh_size ** mesh.dim)
    if bad.size:
        raise AssemblyError(f"degenerate cell {int(bad[0])}")
    return measures


def _measures(mesh: MeshLevel):
    """Unsigned cell measures (nc,), checked for degenerate cells once per mesh."""
    return _cached(mesh, "_fem_measures", _checked_measures)


def _measures_and_pattern(mesh: MeshLevel, interior_only):
    """Cell measures and the CSR pattern of the mesh, each built once per mesh.
    The cell check runs first, so a degenerate cell is reported before any
    pattern is built; callers fetch both before computing local matrices so
    the pattern's one-time temporaries never coexist with them."""
    measures = _measures(mesh)
    key = "_fem_pattern_interior" if interior_only else "_fem_pattern_full"
    return measures, _cached(mesh, key, lambda m: _build_pattern(m, interior_only))


def _build_pattern(mesh, interior_only):
    """CSR pattern (indptr, indices) over the interior (or all) vertices and
    the data slot of every local entry (cell, i, j), flattened in that
    order.  Entries coupling to an excluded vertex go to the extra slot nnz."""
    if interior_only:
        n = mesh.n_interior
        dof = np.full(mesh.n_vertices, -1, dtype=np.int64)
        dof[mesh.interior_indices] = np.arange(n)
    else:
        n = mesh.n_vertices
        dof = np.arange(n, dtype=np.int64)
    cell_dofs = dof[mesh.cells]
    # stored entries: both orientations of every mesh edge, then the diagonal
    n_loc = mesh.dim + 1
    i, j = np.triu_indices(n_loc, 1)
    a, b = cell_dofs[:, i], cell_dofs[:, j]
    lo = np.minimum(a, b)
    inner = lo >= 0
    edges, edge_of = np.unique((lo * n + np.maximum(a, b))[inner], return_inverse=True)
    n_e = edges.size
    e_lo, e_hi = np.divmod(edges, n)
    keys = np.concatenate([edges, e_hi * n + e_lo, np.arange(n) * (n + 1)])
    order = np.argsort(keys)
    nnz = keys.size
    idx = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
    # rank[k]: CSR slot of keys[k]; the extra last entry is the dump slot
    rank = np.empty(nnz + 1, dtype=idx)
    rank[order] = np.arange(nnz, dtype=idx)
    rank[nnz] = nnz
    keys = keys[order]
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])

    slot = np.empty((len(cell_dofs), n_loc, n_loc), dtype=idx)
    diag = np.arange(n_loc)
    slot[:, diag, diag] = rank[np.where(cell_dofs >= 0, 2 * n_e + cell_dofs, nnz)]
    edge = np.full(a.shape, nnz, dtype=np.intp)
    edge[inner] = edge_of
    forward = rank[edge]          # slot of (lo, hi)
    edge[inner] += n_e
    backward = rank[edge]         # slot of (hi, lo)
    swap = a > b
    slot[:, i, j] = np.where(swap, backward, forward)
    slot[:, j, i] = np.where(swap, forward, backward)
    return indptr, (keys % n).astype(idx), slot.ravel()


def _assemble(pattern, local, work=None):
    """Sum local (nc, d+1, d+1) matrices into a CSR matrix on a cached
    pattern.  ``local`` is symmetrized in place first; the sums then visit
    (i, j) and (j, i) in the same cell order, so the result is exactly
    symmetric."""
    local += np.transpose(local, (0, 2, 1))
    local *= 0.5
    indptr, indices, slot = pattern
    nnz = indices.size
    data = np.bincount(slot, weights=local.ravel(), minlength=nnz + 1)[:nnz]
    n = indptr.size - 1
    # copies of the cached index arrays: the caller owns the matrix
    A = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
    A.eliminate_zeros()
    if work is not None:
        work.count_assembly(local.size)
    return A


def _scaled_gradients(mesh):
    """det(x_1 - x_0, ..., x_d - x_0) times the barycentric gradients
    (nc, d+1, d): rows 1..d are the cofactor rows of the edge matrix, row 0
    is minus their sum."""
    coords = mesh.vertices[mesh.cells]
    e = coords[:, 1:, :] - coords[:, :1, :]
    if mesh.dim == 2:
        cof = np.stack([np.stack([e[:, 1, 1], -e[:, 1, 0]], axis=-1),
                        np.stack([-e[:, 0, 1], e[:, 0, 0]], axis=-1)], axis=1)
    else:
        cof = np.stack([np.cross(e[:, 1], e[:, 2]), np.cross(e[:, 2], e[:, 0]),
                        np.cross(e[:, 0], e[:, 1])], axis=1)
    return np.concatenate([-cof.sum(axis=1, keepdims=True), cof], axis=1)


def assemble_stiffness(mesh: MeshLevel, spec: ProblemSpec, interior_only=True, work=None):
    """Matrix of (A grad w, grad v); exact for P1 since gradients are
    cellwise constant.  With G = det * gradients, |K| grad_i A grad_j equals
    G_i A G_j / (d!^2 |K|), so no determinant or inverse is needed here."""
    measures, pattern = _measures_and_pattern(mesh, interior_only)
    G = _scaled_gradients(mesh)
    local = G @ spec.diffusion_matrix @ np.transpose(G, (0, 2, 1))
    local /= (factorial(mesh.dim) ** 2 * measures)[:, None, None]
    return _assemble(pattern, local, work)


def assemble_mass(mesh: MeshLevel, interior_only=True, work=None):
    """Matrix of (w, v); exact closed form for P1."""
    d = mesh.dim
    base = (np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2))
    measures, pattern = _measures_and_pattern(mesh, interior_only)
    return _assemble(pattern, measures[:, None, None] * base[None, :, :], work)


def _field_at_qpoints(mesh, func, rule):
    """Analytic field evaluated at the quadrature points of every cell (nc, nq).
    Blocks of cells bound the (cells, nq, d) point array and the field's own
    temporaries, which over a whole fine mesh would set the peak memory of a
    solve."""
    vals = np.empty((mesh.n_cells, len(rule.points)))
    for start in range(0, mesh.n_cells, _FIELD_BLOCK):
        block = slice(start, start + _FIELD_BLOCK)
        phys = rule.points @ mesh.vertices[mesh.cells[block]]
        vals[block] = np.asarray(func(phys.reshape(-1, mesh.dim)), dtype=float).reshape(len(phys), -1)
    return vals


def _weight_values_at_qpoints(mesh, weight, rule):
    """Weight evaluated at the quadrature points of every cell (nc, nq)."""
    if callable(weight):
        return _field_at_qpoints(mesh, weight, rule)
    if isinstance(weight, FeFunction):
        if weight.level_index != mesh.level_index:
            raise ValueError(
                f"weight lives on level {weight.level_index}, mesh is level {mesh.level_index}")
        vertex_vals = full_values(mesh, weight.coefficients)
    else:
        vertex_vals = np.asarray(weight, dtype=float)
        if vertex_vals.shape == (mesh.n_interior,):
            vertex_vals = full_values(mesh, vertex_vals)
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
        vals = vals ** power
    pts = rule.points
    # (nq, (d+1)^2) table of w_q phi_i(q) phi_j(q); one matrix product per assembly
    table = (rule.weights[:, None, None] * pts[:, :, None] * pts[:, None, :]).reshape(len(pts), -1)
    n_loc = mesh.dim + 1
    local = ((measures[:, None] * vals) @ table).reshape(-1, n_loc, n_loc)
    return _assemble(pattern, local, work)


def assemble_load(mesh: MeshLevel, func, interior_only=True):
    """Vector of (f, v) for an analytic f, by the built-in volume rule."""
    rule = _RULES[mesh.dim]
    vals = _field_at_qpoints(mesh, func, rule)
    local = np.einsum("c,cq,q,qi->ci", _measures(mesh), vals, rule.weights, rule.points)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.cells.ravel(), local.ravel())
    return out[mesh.interior_indices] if interior_only else out


def full_values(mesh: MeshLevel, interior_coeffs):
    """Zero-extend interior coefficients to all vertices."""
    interior_coeffs = np.asarray(interior_coeffs, dtype=float)
    if interior_coeffs.shape != (mesh.n_interior,):
        raise ValueError("coefficient vector does not match the interior dof count")
    out = np.zeros(mesh.n_vertices)
    out[mesh.interior_indices] = interior_coeffs
    return out


def integrate_power(mesh: MeshLevel, vertex_values, exponent):
    """Integral of u^exponent for P1 u given by full vertex values; exact for
    exponent <= 4 with the built-in rules."""
    rule = _RULES[mesh.dim]
    if exponent > rule.degree:
        raise AssemblyError(f"integrating u^{exponent} needs a degree {exponent} rule")
    vals = vertex_values[mesh.cells] @ rule.points.T
    return float(np.einsum("c,cq,q->", _measures(mesh), vals ** exponent, rule.weights))


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


def dump_matrix(A, path):
    """Coordinate text dump, one `row col value` line per stored nonzero."""
    coo = sp.coo_matrix(A)
    with open(path, "w") as f:
        for r, c, v in zip(coo.row, coo.col, coo.data):
            f.write(f"{int(r)} {int(c)} {repr(float(v))}\n")
