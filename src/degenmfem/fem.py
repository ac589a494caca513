"""Lowest-order Raviart-Thomas / piecewise-constant mixed discretization.

Field conventions
-----------------
Scalar fields live in the piecewise-constant space: one value per cell,
stored as a plain ``(num_cells,)`` array.  Flux fields live in the
lowest-order Raviart-Thomas space: one degree of freedom per edge, the
integrated normal flux  int_E q . n  with respect to the global edge
normal, stored as a ``(num_edges,)`` array.  Normal-component continuity
across interior edges is automatic because a single value is stored per
edge.

With this normalization the basis function of edge E restricted to an
adjacent triangle T is  phi_E(x) = s / (2|T|) (x - P_E),  where P_E is
the vertex of T opposite E and s the outward-normal sign, so its
divergence is the constant s / |T| and the divergence matrix B has
entries B_{TE} = s in {-1, +1}.

Quadrature: flux-mass entries use the 3-point edge-midpoint rule, which
is exact for the quadratic integrands of RT0 pairings; scalar
projections use the one-point barycenter rule.  Dirichlet data, a
constant trace, enters the flux equation as a natural boundary
functional.

``AssembledForms`` is immutable after assembly and safe to share between
threads; assembly itself is single-threaded.  Its ``hybrid`` operators
are built on first use and cached.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sps

from degenmfem.mesh import Mesh


@dataclass(frozen=True)
class AssembledForms:
    """Discrete operators of the mixed method on one mesh.

    Attributes
    ----------
    mesh : Mesh
    scalar_mass : (num_cells,) array
        Diagonal scalar mass, the cell areas |T|.
    flux_mass : sparse (num_edges, num_edges) symmetric positive definite
        Raviart-Thomas mass matrix M with M_{EF} = <phi_E, phi_F>.
    divergence : sparse (num_cells, num_edges)
        B with B_{TE} = <div phi_E, 1_T> = s_{T,E}; (B q)_T is the net
        outflow of q through the boundary of T.
    dirichlet_functional : (num_edges,) array
        g with g_E = -int_{E} g_D phi_E . n on boundary edges, 0 inside,
        so the discrete flux equation reads  M q - B^T u = g.
    local_mass : (num_cells, 3, 3) array
        The per-cell blocks M_T of M, in the cell's local edge order.
    """

    mesh: Mesh
    scalar_mass: np.ndarray
    flux_mass: sps.csr_matrix
    divergence: sps.csr_matrix
    dirichlet_functional: np.ndarray
    local_mass: np.ndarray

    @property
    def num_cells(self) -> int:
        return self.mesh.num_cells

    @property
    def num_edges(self) -> int:
        return self.mesh.num_edges

    @cached_property
    def hybrid(self) -> "HybridOperators":
        """The mesh-only operators of the hybridized system."""
        return _hybrid_operators(self)


@dataclass(frozen=True)
class HybridOperators:
    """Mesh-only operators of the hybridized mixed system.

    Per cell T, with signs s_T (as floats) and mass block M_T: ``minv``
    is M_T^{-1}, symmetrized; ``m`` is M_T^{-1} s_T, ``beta`` is
    s_T . m_T and ``v`` is s_T * m_T.  ``signs``, ``m`` and ``v`` are
    stored local edge first, (3, num_cells), and ``minv`` as
    (3, 3, num_cells), so the solve works on contiguous rows; a slot is
    the flat index k * num_cells + T of local edge k of cell T.

    The multiplier matrix lives on ``interior_edges``, listed in
    nested-dissection order (``_dissection_order``), with the fixed
    pattern (``indptr``, ``indices``) of the interior block of M in that
    order; ``base`` is the data of sum_T S_T M_T^{-1} S_T in it.  Each
    local pair (k, l) of interior edges of a cell is one entry j:
    ``pair_cell[j]`` is the cell, ``pair_vv[j]`` its (v_T v_T^T)_{kl}
    and ``pair_pos[j]`` its position in the data.  ``owner_slot[E]`` is
    the slot of edge E in its lowest-numbered cell, ``edge_slots[:, i]``
    the two slots of the i-th multiplier and ``slot_multiplier`` the
    multiplier of each slot, or the number of multipliers for a boundary
    slot.  ``minv`` is exactly symmetric, so ``minv[l]`` holds the
    columns l of the blocks.
    """

    signs: np.ndarray
    minv: np.ndarray
    m: np.ndarray
    beta: np.ndarray
    v: np.ndarray
    interior_edges: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    base: np.ndarray
    pair_pos: np.ndarray
    pair_cell: np.ndarray
    pair_vv: np.ndarray
    owner_slot: np.ndarray
    edge_slots: np.ndarray
    slot_multiplier: np.ndarray


def _hybrid_operators(forms: AssembledForms) -> HybridOperators:
    mesh = forms.mesh
    nc, ne = forms.num_cells, forms.num_edges
    signs = mesh.cell_edge_signs.astype(float)
    minv = np.linalg.inv(forms.local_mass)
    minv = 0.5 * (minv + minv.transpose(0, 2, 1))
    m = np.einsum("ckl,cl->ck", minv, signs)
    v = signs * m
    beta = v.sum(axis=1)

    interior_edges = np.setdiff1d(np.arange(ne), mesh.boundary_edges)
    midpoint_keys = np.rint(2 * mesh.n * mesh.edge_midpoints).astype(np.int64)
    interior_edges = _dissection_order(midpoint_keys, interior_edges)
    ni = interior_edges.size
    number = np.full(ne, -1)
    number[interior_edges] = np.arange(ni)
    local = number[mesh.cell_edges]
    rows = np.repeat(local, 3, axis=1).ravel()
    cols = np.tile(local, (1, 3)).ravel()
    keep = (rows >= 0) & (cols >= 0)
    keys, pair_pos = np.unique(rows[keep] * ni + cols[keep],
                               return_inverse=True)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(keys // ni, minlength=ni))])
    ssm = signs[:, :, None] * minv * signs[:, None, :]
    base = np.bincount(pair_pos, weights=ssm.ravel()[keep],
                       minlength=keys.size)
    pair_cell = np.repeat(np.arange(nc), 9)[keep]
    pair_vv = (v[:, :, None] * v[:, None, :]).ravel()[keep]

    # The slot of local edge k of cell T is k nc + T.
    _, first = np.unique(mesh.cell_edges.ravel(), return_index=True)
    owner_slot = first % 3 * nc + first // 3
    slot_multiplier = local.T.ravel()
    interior_slots = np.flatnonzero(slot_multiplier >= 0)
    edge_slots = interior_slots[np.argsort(
        slot_multiplier[interior_slots], kind="stable")].reshape(ni, 2).T
    slot_multiplier[slot_multiplier < 0] = ni

    arrays = (signs.T.copy(), minv.transpose(1, 2, 0).copy(), m.T.copy(),
              beta, v.T.copy(), interior_edges,
              indptr.astype(np.int32), (keys % ni).astype(np.int32), base,
              pair_pos, pair_cell, pair_vv, owner_slot, edge_slots.copy(),
              slot_multiplier)
    for a in arrays:
        a.flags.writeable = False
    return HybridOperators(*arrays)


_DISSECTION_LEAF = 16


def _dissection_order(keys: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The edges ``idx`` in nested-dissection order, given the integer
    keys of all edges' midpoints, twice their coordinates in units of h.

    A box of more than ``_DISSECTION_LEAF`` edges is split across its
    longer extent at the grid line (even key) nearest the median: the
    edges below it come first, then those above, then those on it.  Each
    cell lies on one side of a grid line, so the edges on it separate the
    two sides in the multiplier graph (edges that share a cell).
    """
    box = keys[idx]
    lo, hi = box.min(axis=0), box.max(axis=0)
    axis = int(np.argmax(hi - lo))
    # The even keys strictly inside the box along that axis.
    first = lo[axis] + 2 - lo[axis] % 2
    last = hi[axis] - 2 + hi[axis] % 2
    if idx.size <= _DISSECTION_LEAF or first > last:
        return idx
    coord = box[:, axis]
    line = min(max(2 * round(np.median(coord) / 2), first), last)
    return np.concatenate([_dissection_order(keys, idx[coord < line]),
                           _dissection_order(keys, idx[coord > line]),
                           idx[coord == line]])


def assemble_forms(mesh: Mesh, g_dirichlet=0.0) -> AssembledForms:
    """Assemble mass, divergence and boundary operators on a mesh.

    Parameters
    ----------
    mesh : Mesh
    g_dirichlet : float
        Constant Dirichlet trace of the scalar unknown on the domain
        boundary.
    """
    nc, ne = mesh.num_cells, mesh.num_edges
    pts = mesh.vertices[mesh.cells]              # (nc, 3, 2)
    areas = mesh.cell_areas                      # (nc,)
    signs = mesh.cell_edge_signs.astype(float)   # (nc, 3)

    # Local edge k joins local vertices k and (k+1)%3; opposite vertex is
    # (k+2)%3.  Quadrature nodes are the three edge midpoints.
    midpoints = 0.5 * (pts + np.roll(pts, -1, axis=1))   # (nc, 3, 2)
    opposite = np.roll(pts, -2, axis=1)                  # (nc, 3, 2)

    # phi[c, k, m, :] = basis of local edge k at quadrature node m.
    phi = (
        signs[:, :, None, None]
        * (midpoints[:, None, :, :] - opposite[:, :, None, :])
        / (2.0 * areas)[:, None, None, None]
    )
    local_mass = np.einsum("ckmd,clmd->ckl", phi, phi) * (areas / 3.0)[:, None, None]

    rows = np.repeat(mesh.cell_edges, 3, axis=1).ravel()
    cols = np.tile(mesh.cell_edges, (1, 3)).ravel()
    flux_mass = sps.coo_matrix(
        (local_mass.ravel(), (rows, cols)), shape=(ne, ne)
    ).tocsr()

    divergence = sps.coo_matrix(
        (
            signs.ravel(),
            (np.repeat(np.arange(nc), 3), mesh.cell_edges.ravel()),
        ),
        shape=(nc, ne),
    ).tocsr()

    g = np.zeros(ne)
    g[mesh.boundary_edges] = -float(g_dirichlet)
    g.flags.writeable = False
    local_mass.flags.writeable = False

    return AssembledForms(mesh, areas, flux_mass, divergence, g, local_mass)


def project_scalar(mesh: Mesh, func) -> np.ndarray:
    """Project a pointwise function onto piecewise constants.

    Uses the barycenter value of each cell (midpoint quadrature of the
    cell average), which reproduces constants and linear functions'
    cell averages exactly.
    """
    bx, by = mesh.cell_barycenters[:, 0], mesh.cell_barycenters[:, 1]
    vals = np.asarray(func(bx, by), dtype=float)
    if vals.ndim == 0:
        vals = np.full(mesh.num_cells, float(vals))
    return vals


def interpolate_flux(mesh: Mesh, vector_func) -> np.ndarray:
    """Interpolate a vector field into RT0 via edge-midpoint normal fluxes.

    ``vector_func(x, y)`` must return the two components; the degree of
    freedom is  v(midpoint) . n_E  |E|,  exact for fields with linear
    normal components along each edge (constants in particular).
    """
    mx, my = mesh.edge_midpoints[:, 0], mesh.edge_midpoints[:, 1]
    vx, vy = vector_func(mx, my)
    vx = np.broadcast_to(np.asarray(vx, dtype=float), (mesh.num_edges,))
    vy = np.broadcast_to(np.asarray(vy, dtype=float), (mesh.num_edges,))
    normal_component = vx * mesh.edge_normals[:, 0] + vy * mesh.edge_normals[:, 1]
    return normal_component * mesh.edge_lengths


def l2_norm_scalar(mesh: Mesh, u: np.ndarray) -> float:
    """L2(Omega) norm of a piecewise-constant field."""
    u = np.asarray(u)
    if u.shape != (mesh.num_cells,):
        raise ValueError(f"expected shape ({mesh.num_cells},), got {u.shape}")
    return float(np.sqrt(np.dot(mesh.cell_areas, u * u)))


def l2_norm_flux(forms: AssembledForms, q: np.ndarray) -> float:
    """L2(Omega) norm of an RT0 field, sqrt(q^T M q)."""
    q = np.asarray(q)
    if q.shape != (forms.num_edges,):
        raise ValueError(f"expected shape ({forms.num_edges},), got {q.shape}")
    val = float(q @ (forms.flux_mass @ q))
    return float(np.sqrt(max(val, 0.0)))
