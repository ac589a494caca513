"""Assembly and direct solution of the saddle-point system.

Every iteration of every scheme reduces to the block system

    [ D     tau B ] [u]   [rhs_scalar]
    [ -B^T  M     ] [q] = [g         ],

with D = diag(d_T |T|) for per-cell linearization weights d_T >= 0
(the constant L for the L-type schemes, b'_eps(u_T) for Newton), the
divergence matrix B, the flux mass M and the Dirichlet functional g
from the assembled forms, the flux side of every solve.  The
matrix is nonsingular whenever the weights are nonnegative and tau > 0
since M is symmetric positive definite and B has full row rank.

For every weight, one symmetric positive definite reduction of it is
factorized (hybridization and static condensation, Arnold-Brezzi 1985).
Each cell T gets its own fluxes, tied across interior edges by
multipliers lambda (the traces of u; zero on the Dirichlet boundary).
With the cell's mass block M_T and edge signs s_T, m_T = M_T^{-1} s_T,
beta_T = s_T . m_T, v_T = s_T * m_T and den_T = d_T |T| + tau beta_T > 0,
eliminating the cell unknowns leaves

    H = sum_T P_T^T (S_T M_T^{-1} S_T - (tau / den_T) v_T v_T^T) P_T

on the interior edges, symmetric positive definite for all weights
d_T >= 0, zero included.  Each entry of g belongs to the
lowest-numbered cell of its edge; u_T and q follow cell by cell from
lambda.  H is condensed further, in numpy and for all 2x2 macro squares
at once: first the square diagonals, which share no cell (one pivot per
square), then each macro's inner cross (four pivots).  The multipliers
left are the skeleton, the interior edges on the macros' boundaries;
their Schur complement is assembled from the macros' 8x8 blocks,
straight into the entries of its upper band, whose places are fixed per
mesh.  Macros cut by the domain's top or right side (odd n) are
completed by phantom cells whose multipliers decouple.

The skeleton is numbered by edge midpoint, y then x, which gives a
bandwidth of about 2n, and its matrix is factorized by LAPACK's band
Cholesky (``pbtrf``) whatever the weight; each solve is a pair of band
triangular solves (``pbtrs``).  An empty skeleton (n < 3) factorizes
and solves as nothing.

The mesh-only operators of the reduction (``HybridOperators``, with the
macro numbering ``MACRO_SIDES``) are built once per mesh and cached by
the forms' ``hybrid``.

A solve takes rhs_scalar alone and one of two forms.  Newton's weights
change every iteration, so its solve runs per call: condense the
right-hand side macro by macro, solve on the skeleton, recover the
crosses, the diagonals and the cells.  A constant weight (the L-type
schemes, one system for a whole run) gets that solve precomputed at
assembly as sparse maps over x = [rhs_scalar; lambda_s; 0; 1]:
lambda_s solves the skeleton system with right-hand side R x, u = S x
and, only when ``flux`` asks for it, q = F x.
The products call scipy's CSR kernel without the dispatch of ``@``,
to the same bits.
Each row has 17 entries, local to a macro: a skeleton edge's R row the
16 cells of its two macros, a cell's S row and an edge's F row the 8
cells, then the 8 skeleton multipliers, of its macro; the last is the
Dirichlet functional's share, on the 1, and a phantom cell or a missing
multiplier reads the 0.  The values come from the per-call condensation
and recovery run on unit right-hand sides and multipliers for all
macros at once, the columns from the macro numbering, so nothing else
is kept per mesh.

Each factorization keeps the system it was built from, so the step loop
rejects one built for another (L, tau).  A ``Factorization`` is
immutable; solves are pure functions of (factorization, right-hand
side) and repeated solves are bit-identical.
"""

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sps
from scipy.linalg import get_lapack_funcs
from scipy.sparse._sparsetools import csr_matvec

from degenmfem.fem import AssembledForms


class SingularSystemError(Exception):
    """The direct factorization failed; reported by schemes as
    non-convergence with reason ``singular system``."""


class StaleFactorizationError(Exception):
    """A step was given a factorization built for different (weights,
    tau) than its own; raised by ``schemes.linearized_iterate``."""


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
    each other.  Their condensed matrix is kept as the entries of its
    upper band that the macros reach: entry k goes to the flat index
    ``band_slot[k]`` (ascending) of LAPACK's upper band storage, a
    Fortran-ordered (bandwidth + 1, num_skeleton) array.
    ``macro_multiplier[b, M]`` is the skeleton number of position 4 + b
    of macro M, or the number of skeleton edges if it has none, and
    ``skeleton_slots[:, i]`` the two flat (8, num_macros) indices of
    skeleton edge i.  Each pair of skeleton positions of a macro whose
    entry lies in the upper band adds the flat entry ``pair_slot[j]`` of
    the upper triangles of the macros' (12, 12, num_macros) blocks to
    band entry ``pair_pos[j]``.  ``owner_slot[E]`` is the slot of edge E
    in its lowest-numbered cell.  ``minv`` is exactly symmetric, so
    ``minv[l]`` holds the columns l of the blocks.
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
    band_slot: np.ndarray
    bandwidth: int


def hybrid_operators(forms: AssembledForms) -> HybridOperators:
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

    # Every pair of skeleton positions of a macro whose entry (row <= col)
    # lies in the upper band adds the entry of the upper triangle of its
    # block to that entry, at its index in LAPACK's upper band storage.
    b = np.arange(4, 12)
    upper = np.minimum.outer(b, b) * 12 + np.maximum.outer(b, b)
    row = np.broadcast_to(macro_multiplier[None], (8, 8, nm)).ravel()
    col = np.broadcast_to(macro_multiplier[:, None], (8, 8, nm)).ravel()
    keep = (row <= col) & (col < nsk)
    row, col = row[keep], col[keep]
    pair_slot = (upper[:, :, None] * nm + np.arange(nm)).ravel()[keep]
    bandwidth = int(np.max(col - row, initial=0))
    band_slot, pair_pos = np.unique(
        col * (bandwidth + 1) + bandwidth + row - col, return_inverse=True)

    # The slot of local edge k of position p is k P + p.
    _, first = np.unique(cell_edges.ravel(), return_index=True)
    owner_slot = first % 3 * cells.size + positions[first // 3]

    arrays = (cells, positions, by_position(signs), by_position(minv),
              by_position(m), beta, by_position(v), by_position(inside),
              by_position(ssm, np.eye(3)), by_position(vv), skeleton,
              pair_pos, pair_slot, owner_slot, skeleton_slots.copy(),
              macro_multiplier, band_slot)
    for a in arrays:
        a.flags.writeable = False
    return HybridOperators(*arrays, bandwidth)


@dataclass(frozen=True)
class SolveOperators:
    """A constant-weight solve as sparse maps (R, S, F in the module
    docstring) over x = [rhs_scalar; lambda_s; 0; 1], 17 entries a row."""

    skeleton_rhs: sps.csr_matrix
    scalar: sps.csr_matrix
    flux: sps.csr_matrix


@dataclass(frozen=True)
class SaddleSystem:
    """Immutable assembled system (right-hand sides supplied per solve).

    ``reduced`` is the condensed hybridized matrix on the skeleton, which
    is factorized, as the entries of its upper band at
    ``HybridOperators.band_slot``, a read-only 1-D array; the rest
    follows ``HybridOperators``' layout: ``den``
    is d_T |T| + tau beta_T by position (1 on phantoms), ``pivot``
    (4, num_macros) and ``coupling`` (4 sides, 4, num_macros) are each
    square's condensed diagonal entry and its couplings to the square's
    sides, and ``cross_pivot`` (4, num_macros) and ``cross_rows``
    (4, 12, num_macros) hold the macros' pivots of the inner cross and
    their rows, divided by the pivot, as they were eliminated.
    ``operators`` is set for a constant weight only.
    """

    forms: AssembledForms
    weights: np.ndarray
    tau: float
    reduced: np.ndarray = field(repr=False)
    den: np.ndarray = field(repr=False)
    pivot: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    cross_pivot: np.ndarray = field(repr=False)
    cross_rows: np.ndarray = field(repr=False)
    operators: SolveOperators | None = field(default=None, repr=False)

    @property
    def num_cells(self) -> int:
        return self.forms.num_cells


_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


class BandCholesky:
    """The upper band Cholesky factor U of a symmetric positive definite
    matrix A, in LAPACK's band storage: U^T U = A.

    It has ``shape``, ``solve`` and the factors ``L`` and ``U``, sparse
    matrices built on each access: the benchmark's tracer reads
    ``lu.L.nnz + lu.U.nnz`` for the factor's size.
    """

    def __init__(self, band: np.ndarray):
        band.flags.writeable = False
        self.band = band

    @property
    def shape(self):
        return (self.band.shape[1], self.band.shape[1])

    @property
    def U(self) -> sps.csr_matrix:
        return sps.dia_matrix((self.band[::-1], range(self.band.shape[0])),
                              shape=self.shape).tocsr()

    @property
    def L(self) -> sps.csr_matrix:
        return self.U.T.tocsr()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _PBTRS(self.band, rhs)[0]


@dataclass(frozen=True)
class Factorization:
    """The factors of a system's reduced matrix, which they stay tied
    to.  ``lu`` is the name the benchmark's tracer reads."""

    lu: BandCholesky = field(repr=False)
    system: SaddleSystem = field(repr=False)


# The positions each cross edge of a macro still couples to when it is
# eliminated; the second couples to none of 4-7, and updating them with
# its zero entries changes no value.
_CROSS_COUPLED = (np.s_[2:8], np.s_[2:], np.s_[3:], np.s_[4:])
# The (side, square) whose share each macro position takes first, and
# the second share of each cross position.
_FIRST_SIDE = tuple(np.array([np.argwhere(MACRO_SIDES.T == p)[0]
                              for p in range(12)]).T)
_SECOND_SIDE = tuple(np.array([np.argwhere(MACRO_SIDES.T == p)[1]
                               for p in range(4)]).T)


def assemble(forms: AssembledForms, weights, tau: float) -> SaddleSystem:
    """Assemble the reduced system for per-cell weights d_T and step tau.

    Accepts a scalar weight (broadcast to all cells), whose system also
    gets its ``SolveOperators``, or a per-cell array; entries must be
    finite and nonnegative.
    """
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    nc = forms.num_cells
    constant = np.ndim(weights) == 0
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (nc,)).copy()
    if not np.all(np.isfinite(weights)):
        raise ValueError("linearization weights must be finite")
    if np.any(weights < 0.0):
        raise ValueError("linearization weights must be nonnegative")
    weights.flags.writeable = False

    hybrid = forms.hybrid
    den = np.append(weights * forms.scalar_mass + tau * hybrid.beta,
                    1.0)[hybrid.cells]
    local = (hybrid.ssm - (tau / den) * hybrid.vv).reshape(3, 3, 2, 4, -1)
    nm = local.shape[-1]
    # Each square's diagonal couples only to the square's four sides.
    pivot = local[2, 2, 0] + local[2, 2, 1]
    coupling = local[2, :2].reshape(4, 4, nm)
    sides = -(coupling / pivot)[:, None] * coupling[None]
    # Side 2k + t is local edge k of triangle t.
    sides[0::2, 0::2] += local[:2, :2, 0]
    sides[1::2, 1::2] += local[:2, :2, 1]
    macro = np.zeros((12, 12, nm))
    for q, pos in enumerate(MACRO_SIDES):
        macro[np.ix_(pos, pos)] += sides[:, :, q]
    for k, cols in enumerate(_CROSS_COUPLED):
        row = macro[k, cols]
        macro[cols, cols] -= (row / macro[k, k])[:, None] * row[None]
    reduced = np.bincount(hybrid.pair_pos, minlength=hybrid.band_slot.size,
                          weights=macro.ravel()[hybrid.pair_slot])
    cross_pivot = macro[range(4), range(4)]
    cross_rows = macro[:4] / cross_pivot[:, None]
    coupling = coupling.copy()
    for a in (reduced, den, pivot, coupling, cross_pivot, cross_rows):
        a.flags.writeable = False
    system = SaddleSystem(forms, weights, float(tau), reduced, den, pivot,
                          coupling, cross_pivot, cross_rows)
    if constant:
        system = replace(system, operators=_solve_operators(system))
    return system


def factorize(system: SaddleSystem) -> Factorization:
    """Factorize the reduced matrix by band Cholesky."""
    hybrid = system.forms.hybrid
    nsk = hybrid.skeleton_edges.size
    band = np.zeros((hybrid.bandwidth + 1) * nsk)
    band[hybrid.band_slot] = system.reduced
    band, info = _PBTRF(band.reshape(hybrid.bandwidth + 1, nsk, order="F"),
                        overwrite_ab=1)
    if info != 0:
        raise SingularSystemError(f"band Cholesky failed at pivot {info}")
    return Factorization(BandCholesky(band), system)


def solve(fact: Factorization, rhs_scalar):
    """Solve for (u, q) given the per-cell right-hand side, with the
    forms' Dirichlet functional on the flux side.  A constant-weight
    system forms u alone: q is None and ``flux`` gives it.
    """
    system = fact.system
    nc = system.num_cells
    rhs_scalar = np.asarray(rhs_scalar, dtype=float)
    if rhs_scalar.shape != (nc,):
        raise ValueError(f"rhs_scalar must have shape ({nc},)")
    ops = system.operators
    if ops is not None:
        u, q = _product(ops.scalar, _unknowns(fact, rhs_scalar)), None
    else:
        u, q = _solve_hybrid(fact, rhs_scalar)
    if not (np.isfinite(u).all() and (q is None or np.isfinite(q).all())):
        raise SingularSystemError("direct solve produced non-finite values")
    return u, q


def flux(fact: Factorization, rhs_scalar):
    """The q that ``solve`` leaves out of a constant-weight solve."""
    return _product(fact.system.operators.flux, _unknowns(fact, rhs_scalar))


def _unknowns(fact: Factorization, rhs_scalar):
    """x = [rhs_scalar; lambda_s; 0; 1] of a constant-weight solve."""
    ops = fact.system.operators
    nc = fact.system.num_cells
    x = np.zeros(ops.scalar.shape[1])
    x[:nc], x[-1] = rhs_scalar, 1.0
    x[nc:-2] = fact.lu.solve(_product(ops.skeleton_rhs, x))
    return x


def _product(matrix: sps.csr_matrix, x):
    """matrix @ x by the kernel scipy's product ends in, without its
    dispatch: the same sums in the same order, into a fresh array."""
    rows, cols = matrix.shape
    out = np.zeros(rows)
    csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


def _solve_hybrid(fact: Factorization, rhs_scalar):
    """Solve the condensed hybridized system for the multipliers, then
    recover u and q cell by cell."""
    system = fact.system
    hybrid = system.forms.hybrid
    rho = np.zeros(hybrid.signs.shape)
    rho.ravel()[hybrid.owner_slot] = system.forms.dirichlet_functional
    condensed = _condense(system, _batch(np.append(rhs_scalar, 0.0)
                                         [hybrid.cells]), _batch(rho))
    boundary_rhs = condensed[-1][4:].ravel()
    first, second = hybrid.skeleton_slots
    skeleton = fact.lu.solve(boundary_rhs[first] + boundary_rhs[second])
    u, q = _recover(system, condensed, np.append(skeleton, 0.0)[
        hybrid.macro_multiplier[:, None]])
    return u.ravel()[hybrid.positions], q.ravel()[hybrid.owner_slot]


def _batch(a):
    """A by-position array (..., P) as (..., 8, 1, num_macros): the
    macros' eight positions, a batch axis and the macros."""
    return a.reshape(a.shape[:-1] + (8, 1, -1))


def _condense(system: SaddleSystem, rhs_scalar, rho):
    """Condense a batch of b right-hand sides by position, (8, b,
    num_macros), and by slot, (3, 8, b, num_macros), onto each macro's
    skeleton positions, 4-11 of the condensed (12, b, num_macros) last."""
    hybrid = system.forms.hybrid
    minv, signs, v, inside = (_batch(a) for a in (
        hybrid.minv, hybrid.signs, hybrid.v, hybrid.inside))
    pivot, coupling, rows = (a[..., None, :] for a in (
        system.pivot, system.coupling, system.cross_rows))
    # minv is symmetric, so row l of each block is its column l.
    m_rho = np.einsum("kl...,k...->l...", minv, rho)
    s_m_rho = signs * m_rho
    u0 = (rhs_scalar - system.tau * s_m_rho.sum(axis=0)) / _batch(system.den)
    # (s_m_rho + v u0) inside and the side rhs below, in place.
    local_rhs = v * u0
    local_rhs += s_m_rho
    local_rhs *= inside
    local_rhs = local_rhs.reshape((3, 2, 4) + local_rhs.shape[2:])
    diagonal_rhs = local_rhs[2, 0] + local_rhs[2, 1]
    side_rhs = coupling * (diagonal_rhs / pivot)
    np.subtract(local_rhs[:2].reshape((4,) + diagonal_rhs.shape), side_rhs,
                out=side_rhs)
    rhs = side_rhs[_FIRST_SIDE]
    rhs[:4] += side_rhs[_SECOND_SIDE]
    for k, cols in enumerate(_CROSS_COUPLED):
        rhs[cols] -= rows[k, cols] * rhs[k]
    return m_rho, u0, diagonal_rhs, rhs


def _recover(system: SaddleSystem, condensed, boundary):
    """u by position and q by slot, batched as in ``_condense``, from its
    output and the skeleton positions' multipliers, (8, b, num_macros)."""
    hybrid = system.forms.hybrid
    m_rho, u0, diagonal_rhs, rhs = condensed
    pivot, coupling, cross_pivot, rows = (a[..., None, :] for a in (
        system.pivot, system.coupling, system.cross_pivot,
        system.cross_rows))
    lam = np.empty((12,) + np.broadcast_shapes(rhs.shape[1:],
                                               boundary.shape[1:]))
    lam[4:] = boundary
    for k in range(3, -1, -1):
        cols = _CROSS_COUPLED[k]
        lam[k] = (rhs[k] / cross_pivot[k]
                  - (rows[k, cols] * lam[cols]).sum(axis=0))
    # The multipliers by slot: each square's sides, then its diagonal,
    # shared by its two triangles.  mode="clip" lets take write to its
    # out directly; the indices are all in range.
    local = np.empty((3, 2, 4) + lam.shape[1:])
    sides = local[:2].reshape((4, 4) + lam.shape[1:])
    np.take(lam, MACRO_SIDES.T, axis=0, out=sides, mode="clip")
    local[2] = (diagonal_rhs - (coupling * sides).sum(axis=0)) / pivot
    lam = local.reshape((3, 8) + local.shape[3:])
    # u0 + tau (v . lam) / den and m_rho + m u - minv (signs lam), in
    # place: the same operations on the same operands.
    u = np.einsum("k...,k...->...", _batch(hybrid.v), lam)
    u *= system.tau
    u /= _batch(system.den)
    u += u0
    q = _batch(hybrid.m) * u
    q += m_rho
    lam *= _batch(hybrid.signs)
    q -= np.einsum("kl...,k...->l...", _batch(hybrid.minv), lam)
    return u, q


def _solve_operators(system: SaddleSystem) -> SolveOperators:
    """Run the condensation and recovery, for all macros at once, on the
    unit right-hand sides of a macro's eight cells, the unit multipliers
    of its eight skeleton positions and the Dirichlet functional: entries
    0-7, 8-15 and 16 of S's and F's rows, and 0-15 and 16 of R's."""
    forms = system.forms
    hybrid = forms.hybrid
    nc, nsk = forms.num_cells, hybrid.skeleton_edges.size
    nm = hybrid.macro_multiplier.shape[1]
    dirichlet = np.zeros(hybrid.signs.shape)
    dirichlet.ravel()[hybrid.owner_slot] = forms.dirichlet_functional
    zero, no_rho = np.zeros((8, 1, nm)), np.zeros((3, 8, 1, nm))
    unit = np.broadcast_to(np.eye(8)[:, :, None], (8, 8, nm))
    pair = hybrid.skeleton_slots.T

    def rows(a, index):
        # The batch at flat positions or slots of a batched array.
        *lead, macro = np.unravel_index(index, a.shape[:-2] + (nm,))
        return a[(*lead, slice(None), macro)]

    skeleton_rhs, scalar, flux = (np.empty((size, 17)) for size in (
        nsk, nc, forms.num_edges))
    for k, (rhs_scalar, rho, boundary) in enumerate((
            (unit, no_rho, zero), (zero, no_rho, unit),
            (zero, _batch(dirichlet), zero))):
        condensed = _condense(system, rhs_scalar, rho)
        u, q = _recover(system, condensed, boundary)
        scalar[:, 8 * k:8 * k + u.shape[-2]] = rows(u, hybrid.positions)
        flux[:, 8 * k:8 * k + q.shape[-2]] = rows(q, hybrid.owner_slot)
        rhs = rows(condensed[-1][4:], pair)
        if k == 0:
            skeleton_rhs[:, :16] = rhs.reshape(nsk, 16)
        elif k == 2:
            skeleton_rhs[:, 16] = rhs[:, 0, 0] + rhs[:, 1, 0]
        del condensed, rhs, u, q   # one batch's arrays at a time

    # A macro's columns of x: its cells, its skeleton multipliers and the
    # 1, with the 0 for a phantom cell or a missing multiplier.
    x_zero = nc + nsk
    cells = np.where(hybrid.cells < nc, hybrid.cells, x_zero).reshape(8, nm).T
    columns = np.hstack([cells, nc + hybrid.macro_multiplier.T,
                         np.full((nm, 1), x_zero + 1)]).astype(np.int32)
    skeleton_columns = np.hstack([cells[pair % nm].reshape(nsk, 16), np.full(
        (nsk, 1), x_zero + 1)]).astype(np.int32)

    def csr(data, indices):
        indptr = np.arange(0, data.size + 1, 17, dtype=np.int32)
        matrix = sps.csr_matrix((data.ravel(), indices.ravel(), indptr),
                                shape=(data.shape[0], x_zero + 2))
        for a in (matrix.data, matrix.indices, matrix.indptr):
            a.flags.writeable = False
        return matrix

    return SolveOperators(
        csr(skeleton_rhs, skeleton_columns),
        csr(scalar, columns[hybrid.positions % nm]),
        csr(flux, columns[hybrid.owner_slot % nm]))
