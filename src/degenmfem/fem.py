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
and its ``constant_weight`` layout are built on first use and cached.
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

    @cached_property
    def constant_weight(self) -> "ConstantWeightLayout":
        """The mesh-only data of a constant weight's system."""
        return _constant_weight_layout(self)


# The squares of a 2x2 macro, lower left, lower right, upper left and
# upper right, list the macro positions of their bottom, top, right and
# left sides.  Positions 0-3 are the inner cross: the horizontals left
# and right, then the verticals below and above.  Positions 4-7 are the
# outer sides of the left two squares and 8-11 those of the right two,
# so a horizontal of the cross couples to 2-7 or to 2, 3 and 8-11.
MACRO_SIDES = np.array([[4, 0, 2, 5],
                        [8, 1, 9, 2],
                        [0, 6, 3, 7],
                        [1, 11, 10, 3]])


@dataclass(frozen=True)
class HybridOperators:
    """Mesh-only operators of the hybridized mixed system, laid out for
    its condensation on 2x2 macro squares.

    The cells are listed macro by macro: position t P/2 + q P/8 + M of
    the P = 8 num_macros positions is the lower (t = 0) or upper (t = 1)
    triangle of square q (``MACRO_SIDES`` order) of macro M.  Macros
    cut by the top or right side of the domain (odd n) are completed by
    phantom cells; ``cells`` gives the cell of each position, or
    num_cells for a phantom, and ``positions`` the position of each
    cell.  A lower triangle lists its bottom, right and diagonal edges,
    an upper one its top, left and diagonal edges, so local edge k of
    triangle t is side 2k + t of its square (bottom, top, right, left)
    for k < 2; a slot is the flat index k P + p of local edge k of
    position p.

    Per cell T, with signs s_T (as floats) and mass block M_T: ``minv``
    is M_T^{-1}, symmetrized; ``m`` is M_T^{-1} s_T, ``beta`` (by cell)
    is s_T . m_T and ``v`` is s_T * m_T.  ``signs``, ``m``, ``v`` and
    ``inside`` are stored local edge first, (3, P), and ``minv``,
    ``ssm`` and ``vv`` as (3, 3, P).  ``inside`` is 1 on the slots of
    interior edges and 0 on the others, a phantom's included; ``ssm``
    is S_T M_T^{-1} S_T and ``vv`` is v_T v_T^T on the interior slots,
    while the other slots keep only a unit diagonal in ``ssm``, so their
    multipliers decouple and solve to zero.  The rest is zero on
    phantoms.

    The skeleton is the interior edges on the macros' boundaries;
    ``skeleton_edges`` lists them by edge midpoint, y then x, which keeps
    a macro's eight skeleton edges within ``bandwidth`` (about 2n) of
    each other, with the fixed pattern of their condensed matrix,
    ``skeleton_pattern`` (zero entries, its canonical format checked
    once).  Entry ``band_entries[j]`` of the pattern lies in its upper
    triangle and goes to the flat index ``band_slot[j]`` of LAPACK's
    upper band storage, a Fortran-ordered (bandwidth + 1, num_skeleton)
    array.  ``macro_multiplier[b, M]``
    is the skeleton number of position 4 + b of macro M, or the number
    of skeleton edges if it has none, and ``skeleton_slots[:, i]`` the
    two flat (8, num_macros) indices of skeleton edge i.  Each pair of
    skeleton positions of a macro adds the flat entry ``pair_slot[j]``
    of the upper triangles of the macros' (12, 12, num_macros) blocks to
    entry ``pair_pos[j]`` of the pattern.  ``owner_slot[E]``
    is the slot of edge E in its lowest-numbered cell.  ``minv`` is
    exactly symmetric, so ``minv[l]`` holds the columns l of the blocks.
    """

    cells: np.ndarray
    positions: np.ndarray
    signs: np.ndarray
    minv: np.ndarray
    m: np.ndarray
    beta: np.ndarray
    v: np.ndarray
    inside: np.ndarray
    ssm: np.ndarray
    vv: np.ndarray
    skeleton_edges: np.ndarray
    pair_pos: np.ndarray
    pair_slot: np.ndarray
    owner_slot: np.ndarray
    skeleton_slots: np.ndarray
    macro_multiplier: np.ndarray
    skeleton_pattern: sps.csc_matrix
    bandwidth: int
    band_entries: np.ndarray
    band_slot: np.ndarray


@dataclass(frozen=True)
class ConstantWeightLayout:
    """Mesh-only layouts of a constant weight's solve operators
    (``_macro_rows``): a skeleton edge's right-hand side takes the 16
    cells of its two macros, a cell's u and an edge's q the 8 cells,
    then the 8 skeleton edges, of its macro, off phantom cells and
    missing skeleton edges.
    """

    skeleton_rhs: sps.csr_matrix
    scalar_rows: sps.csr_matrix
    flux_rows: sps.csr_matrix


def _macro_rows(columns: np.ndarray, num_cols: int) -> sps.csr_matrix:
    """The layout of a matrix whose row r has one candidate entry at each
    column ``columns[r]``: the candidates in range, each holding its flat
    index into ``columns``."""
    kept = np.flatnonzero(columns < num_cols).astype(np.int32)
    indptr = np.searchsorted(kept, np.arange(0, columns.size + 1,
                                             columns.shape[1]))
    return sps.csr_matrix((kept, columns.ravel()[kept].astype(np.int32),
                           indptr.astype(np.int32)),
                          shape=(columns.shape[0], num_cols))


def _hybrid_operators(forms: AssembledForms) -> HybridOperators:
    mesh = forms.mesh
    n, nc, ne = mesh.n, forms.num_cells, forms.num_edges
    # Upper triangles (odd cells) list their edges top, left, diagonal.
    rotate = np.where(np.arange(nc)[:, None] % 2, [1, 2, 0], [0, 1, 2])
    cell_edges = np.take_along_axis(mesh.cell_edges, rotate, axis=1)
    signs = np.take_along_axis(mesh.cell_edge_signs, rotate,
                               axis=1).astype(float)
    local_mass = forms.local_mass[np.arange(nc)[:, None, None],
                                  rotate[:, :, None], rotate[:, None, :]]
    minv = np.linalg.inv(local_mass)
    minv = 0.5 * (minv + minv.transpose(0, 2, 1))
    m = np.einsum("ckl,cl->ck", minv, signs)
    v = signs * m
    beta = v.sum(axis=1)
    interior = np.ones(ne + 1, dtype=bool)
    interior[mesh.boundary_edges] = False
    interior[ne] = False   # index -1: no edge
    inside = interior[cell_edges].astype(float)
    mask = inside[:, :, None] * inside[:, None, :]
    ssm = signs[:, :, None] * minv * signs[:, None, :] * mask
    ssm += np.eye(3) * (1.0 - inside)[:, None, :]
    vv = v[:, :, None] * v[:, None, :] * mask

    # Macro M = J side + I holds the squares (2I + i, 2J + j) with
    # q = 2j + i; square (a, b) holds the cells 2(b n + a) + t.
    side = (n + 1) // 2
    nm = side * side
    macro_i, macro_j = np.arange(nm) % side, np.arange(nm) // side
    sq_i = 2 * macro_i + np.array([0, 1, 0, 1])[:, None]
    sq_j = 2 * macro_j + np.array([0, 0, 1, 1])[:, None]
    t = np.arange(2)[:, None, None]
    cells = np.where((sq_i < n) & (sq_j < n), 2 * (sq_j * n + sq_i) + t,
                     nc).ravel()
    real = cells < nc
    positions = np.empty(nc, dtype=np.intp)
    positions[cells[real]] = np.flatnonzero(real)

    def by_position(a, fill=0.0):
        # Cell axis last, phantoms filled.
        padded = np.concatenate([a, np.full((1,) + a.shape[1:], fill)])
        return np.moveaxis(padded[cells], 0, -1).copy()

    side_edges = by_position(cell_edges, -1)[:2].reshape(4, 4, nm)
    position_edge = np.full((12, nm), -1)
    for q, pos in enumerate(MACRO_SIDES):
        position_edge[pos] = np.maximum(position_edge[pos], side_edges[:, q])
    boundary = position_edge[4:]
    skeleton = np.unique(boundary[interior[boundary]])
    midpoint = np.rint(2 * n * mesh.edge_midpoints[skeleton]).astype(int)
    skeleton = skeleton[np.lexsort((midpoint[:, 0], midpoint[:, 1]))]
    nsk = skeleton.size
    number = np.full(ne + 1, nsk)
    number[skeleton] = np.arange(nsk)
    macro_multiplier = number[boundary]
    slot_multiplier = macro_multiplier.ravel()
    slots = np.flatnonzero(slot_multiplier < nsk)
    skeleton_slots = slots[np.argsort(
        slot_multiplier[slots], kind="stable")].reshape(nsk, 2).T

    # Every pair of skeleton positions of a macro adds the entry of the
    # upper triangle of its block to one entry of the pattern.
    b = np.arange(4, 12)
    upper = np.minimum.outer(b, b) * 12 + np.maximum.outer(b, b)
    rows = np.broadcast_to(macro_multiplier[:, None], (8, 8, nm)).ravel()
    cols = np.broadcast_to(macro_multiplier[None], (8, 8, nm)).ravel()
    keep = (rows < nsk) & (cols < nsk)
    pair_slot = (upper[:, :, None] * nm + np.arange(nm)).ravel()[keep]
    keys, pair_pos = np.unique(rows[keep] * nsk + cols[keep],
                               return_inverse=True)
    row, col = keys % nsk, keys // nsk
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=nsk))])
    pattern = sps.csc_matrix((np.zeros(keys.size), row.astype(np.int32),
                              indptr.astype(np.int32)), shape=(nsk, nsk))
    # Records that the pattern is canonical, so its copies skip the check.
    pattern.sum_duplicates()
    # LAPACK's upper band storage holds the pattern's upper triangle.
    bandwidth = int(np.max(col - row, initial=0))
    band_entries = np.flatnonzero(row <= col)
    band_slot = (col * (bandwidth + 1) + bandwidth + row - col)[band_entries]

    # The slot of local edge k of position p is k P + p.
    _, first = np.unique(cell_edges.ravel(), return_index=True)
    owner_slot = first % 3 * cells.size + positions[first // 3]

    arrays = (cells, positions, by_position(signs), by_position(minv),
              by_position(m), beta, by_position(v), by_position(inside),
              by_position(ssm, np.eye(3)), by_position(vv), skeleton,
              pair_pos, pair_slot, owner_slot, skeleton_slots.copy(),
              macro_multiplier)
    for a in arrays + (pattern.data, pattern.indices, pattern.indptr,
                       band_entries, band_slot):
        a.flags.writeable = False
    return HybridOperators(*arrays, pattern, bandwidth, band_entries,
                           band_slot)


def _constant_weight_layout(forms: AssembledForms) -> ConstantWeightLayout:
    hybrid = forms.hybrid
    nc, nsk = forms.num_cells, hybrid.skeleton_edges.size
    nm = hybrid.macro_multiplier.shape[1]
    # The operators' columns are the cells, then the skeleton edges; a
    # phantom cell or a missing skeleton edge gets nc + nsk, out of range.
    cell_of = hybrid.cells.reshape(8, -1).T
    columns = np.hstack([np.where(cell_of < nc, cell_of, nc + nsk),
                         nc + hybrid.macro_multiplier.T])
    layouts = (
        _macro_rows(cell_of[hybrid.skeleton_slots.T % nm].reshape(nsk, 16),
                    nc),
        _macro_rows(columns[hybrid.positions % nm], nc + nsk),
        _macro_rows(columns[hybrid.owner_slot % nm], nc + nsk),
    )
    for m in layouts:
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
    return ConstantWeightLayout(*layouts)


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
