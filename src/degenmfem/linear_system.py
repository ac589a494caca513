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
their Schur complement, the skeleton matrix, is stored once, as the
macros' 8x8 Schur blocks.  Macros cut by the domain's top or right side
(odd n) are completed by phantom cells whose multipliers decouple.

The skeleton is numbered by edge midpoint, y then x, which gives a
bandwidth of about 2n.  Its band Cholesky costs nsk (bandwidth + 1)^2,
which grows as n^4, so past n = 32 the skeleton is first condensed on
levels of merged blocks, nested dissection of the regular mesh (George
1973): each level merges the blocks below 2x2, the macros first, and
eliminates each merged block's inner cross densely, for all blocks at
once (the Cholesky factors of the crosses, one block-diagonal band, then
their Schur complements onto the blocks' boundaries).  The macros are
the same merge of the mesh's squares.  Each level halves the skeleton
left and keeps its bandwidth; levels are stacked while its band would
cost more than ``LEVEL_WORK`` and a level saves more of the band's work
than its own dense work costs (``LEVEL_COST``): none up to n = 32, two
at n = 64 and 65, three at n = 96 and 128.  Odd block grids are
completed by phantom blocks, identities, that decouple.  Eliminating a
subtree's interior is part of assembling its parent (static
condensation; the multifrontal method, Duff-Reid 1983), so ``assemble``
condenses the levels after the macros and the system keeps each level's
cross factors and Schur blocks.
The skeleton left on the coarsest blocks' boundaries (the macros' when
there is no level) is all ``factorize`` does: LAPACK's band Cholesky
(``pbtrf``) whatever the weight, summed by one ``bincount`` into the
storage of its upper band.  A skeleton solve runs the levels forward,
the pair of band triangular solves (``pbtrs``), then the levels back.
An empty skeleton (n < 3) factorizes and solves as nothing.

The operators of the reduction (``HybridOperators``, with the macro
numbering ``MACRO_SIDES``, the ``CondensationLevel``s and the Dirichlet
functional's terms) are built once per forms and cached by the forms'
``hybrid``.

Newton's weights change every iteration, but in part of the mesh only.
So ``assemble`` takes the previous iteration's system (``previous``)
and redoes only the macros whose den changed and the level blocks over
them, into the previous arrays, which the new system takes over; the
coarse band is summed and factorized in full.  A macro's arrays depend
on the weights only through its den, and a level block's only through
its children's, so the bytes are those of a fresh build: a
factorization modified where its matrix changed (Davis-Hager 1999), on
the independent subtrees of the quadtree (Duff-Reid 1983).

A solve takes rhs_scalar alone and one of two forms.  Newton's weights
change every iteration, so its solve runs per call: condense the
right-hand side macro by macro, solve on the skeleton, recover the
crosses, the diagonals and the cells.  The Dirichlet functional's terms
of it are the same for every call and are built once per forms
(``HybridOperators.dirichlet_terms``).  A constant weight (the
L-type schemes, one system for a whole run) gets that solve precomputed
at assembly as sparse maps over x = [rhs_scalar; lambda_s; 0; 1]:
lambda_s solves the skeleton system with right-hand side R x and u = S x;
the solve returns x with u, and ``flux`` forms q = F x from it.
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
rejects one built for another (L, tau).  Systems and factorizations are
immutable, with one exception: a system handed to ``assemble`` as
``previous`` is consumed, with every factorization of it, and none of
them is to be used again.  Solves are pure functions of
(factorization, right-hand side) and repeated solves are
bit-identical.
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
# The children of a level block, lower left, lower right, upper left and
# upper right, list the groups of e positions their bottom, top, left and
# right sides take in it: groups 0-3 are the cross (the horizontal's left
# and right halves, then the vertical's lower and upper halves), groups
# 4-11 the block's sides (bottom, top, left, right, two halves each).
_CHILD_SIDES = np.array([[4, 0, 8, 2],
                         [5, 1, 2, 10],
                         [0, 6, 9, 3],
                         [1, 7, 3, 11]])
# A level is stacked while the band left would take more multiply-adds,
# nsk (bandwidth + 1)^2, than this.  With one BLAS thread, the levels'
# crosses and the band of Newton's weights took 5.3, 3.4, 2.6 and 2.5 ms
# with 0-3 levels at n = 64 and 5.7, 3.8, 3.0 and 3.4 ms at n = 65; the
# limit stops both at two.  At n = 32 (3.9e6) one level saved 0.1 of
# 0.5 ms, but every mesh up to n = 32, where the paper's tables run,
# keeps the band and its bits.
LEVEL_WORK = 2.0e7
# ... and only while the level saves more of the band's multiply-adds than
# its own dense work costs, about this many times c^3 per block for its
# cross of c = 4e positions, in the same units.  The levels and band of
# Newton's weights took 7.5 ms with three levels and 9.0 ms with four at
# n = 96, and 15.8 and 16.0 ms at n = 128, where five took 28 ms; the rule
# stops both at three, and keeps two at n = 57 to 72.
LEVEL_COST = 16

_PBTRF, _PBTRS, _TBTRS = get_lapack_funcs(("pbtrf", "pbtrs", "tbtrs"),
                                          dtype=np.float64)


@dataclass(frozen=True)
class CondensationLevel:
    """One level of 2x2 block merging on the skeleton (nested dissection).

    Each block of the level merges four children, blocks of the level
    below (the macros on the first level), whose 4e boundary positions
    hold their bottom, top, left and right sides, e positions each, along
    the side.  The merged block has 12e positions: its inner cross, 4e,
    then its own boundary, 8e, in groups of e (``_CHILD_SIDES``).
    ``children`` (num_blocks, 5) numbers each block's children, lower
    left, lower right, upper left and upper right, in the grid below,
    with that grid's size for a phantom past the top or right side, then
    that size plus one, a zero block.  ``band_source`` (2, 16e^2),
    ``coupling_source`` (32e^2) and ``schur_source`` (64e^2) index a
    block's five children's Schur blocks, side by side: the two children
    entries whose sum is each entry of its crosses' upper band (LAPACK
    storage, column by column), and the child entry of each entry of the
    cross's couplings to the boundary and of the boundary's own block.
    ``cross`` (num_blocks, 4e) holds the numbers, in the skeleton below,
    of each block's cross edges and ``boundary`` (num_blocks, 8e) those,
    in this level's skeleton, of its boundary edges, each the skeleton's
    size where there is no skeleton edge.  ``kept`` lists the skeleton
    below's numbers of this level's skeleton, its blocks' boundary edges,
    so it keeps their order, and ``slots[:, i]`` are the two flat
    (num_blocks, 8e) indices of its edge i.
    """

    children: np.ndarray
    cross: np.ndarray
    boundary: np.ndarray
    kept: np.ndarray
    slots: np.ndarray
    band_source: np.ndarray
    coupling_source: np.ndarray
    schur_source: np.ndarray


@dataclass(frozen=True)
class HybridOperators:
    """Operators of the hybridized mixed system, laid out for its
    condensation on 2x2 macro squares: the mesh's, and the Dirichlet
    functional's terms of the forms.

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

    The macros are the quadtree's first ``_merge``, of the mesh's squares
    with ``MACRO_SIDES``: its children give ``cells``, its renumbered
    boundary ``macro_multiplier`` and the edges it keeps the skeleton, the
    interior edges on the macros' boundaries.  ``skeleton_edges`` lists
    them by edge midpoint, y then x, which keeps a macro's eight skeleton
    edges within about 2n of each other.  ``macro_multiplier[b, M]`` is
    the skeleton number of position 4 + b of macro M, or the number of
    skeleton edges if it has none, and ``skeleton_slots[:, i]`` the two
    flat (8, num_macros) indices of skeleton edge i.

    ``levels`` holds the ``CondensationLevel``s stacked on the macros
    (``LEVEL_WORK``, ``LEVEL_COST``): none up to n = 32, two at n = 64.
    The coarsest blocks (the macros when
    there is no level) couple the edges left, the coarse skeleton, within
    ``bandwidth`` of each other, so its matrix is a band.  Each pair of
    skeleton positions of a coarsest block whose entry lies in the upper
    band adds the flat entry ``pair_slot[j]`` of the upper triangles of
    the blocks' (num_blocks, b, b) Schur complements to the flat entry
    ``pair_pos[j]`` of LAPACK's upper band storage, a Fortran-ordered
    (bandwidth + 1, num_coarse) array.  ``owner_slot[E]`` is the slot of
    edge E in its lowest-numbered cell.  ``minv`` is exactly symmetric, so
    ``minv[l]`` holds the columns l of the blocks.

    ``dirichlet_terms`` are the forms' Dirichlet functional rho by slot
    as every per-call solve's flux side: ``_rho_terms`` of it, batched as
    in ``_condense``.  Every array is read-only.
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
    bandwidth: int
    levels: tuple
    dirichlet_terms: tuple


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
    interior = np.ones(ne, dtype=bool)
    interior[mesh.boundary_edges] = False
    inside = interior[cell_edges].astype(float)
    mask = inside[:, :, None] * inside[:, None, :]
    ssm = signs[:, :, None] * minv * signs[:, None, :] * mask
    ssm += np.eye(3) * (1.0 - inside)[:, None, :]
    vv = v[:, :, None] * v[:, None, :] * mask

    # The interior edges, numbered by midpoint, y then x; a boundary edge
    # takes their count, no edge.
    edges = np.flatnonzero(interior)
    midpoint = np.rint(2 * n * mesh.edge_midpoints[edges]).astype(int)
    edges = edges[np.lexsort((midpoint[:, 0], midpoint[:, 1]))]
    number = np.full(ne, edges.size)
    number[edges] = np.arange(edges.size)
    # The macros are the quadtree's first merge, of the n x n squares:
    # square (a, b), number b n + a, holds the cells 2(b n + a) + t and
    # lists its lower triangle's bottom and right sides, then its upper
    # one's top and left.
    macros, coarse, side, sides = _merge(
        number[cell_edges[:, :2]].reshape(-1, 4), edges.size,
        np.array([[0], [2], [3], [1]]), n, MACRO_SIDES[:, [0, 1, 3, 2]])
    cells = np.minimum(2 * macros.children[:, :4].T
                       + np.arange(2)[:, None, None], nc).ravel()
    real = cells < nc
    positions = np.empty(nc, dtype=np.intp)
    positions[cells[real]] = np.flatnonzero(real)

    def by_position(a, fill=0.0):
        # Cell axis last, phantoms filled.
        padded = np.concatenate([a, np.full((1,) + a.shape[1:], fill)])
        return np.moveaxis(padded[cells], 0, -1).copy()

    skeleton, size = edges[macros.kept], macros.kept.size
    macro_multiplier = coarse.T.copy()

    # Merge blocks 2x2, macros first, while the band left is costly and a
    # level saves more of it than it costs.
    levels = []
    work = size * (_bandwidth(coarse, size) + 1) ** 2
    while work > LEVEL_WORK:
        level, merged, merged_side, merged_sides = _merge(
            coarse, size, sides, side, _CHILD_SIDES)
        nb, c = level.cross.shape
        left = level.kept.size * (_bandwidth(merged, level.kept.size) + 1) ** 2
        if work - left <= LEVEL_COST * c ** 3 * nb:
            break
        levels.append(level)
        coarse, side, sides = merged, merged_side, merged_sides
        size, work = level.kept.size, left

    # Every pair of skeleton positions of a coarsest block whose entry
    # (row <= col) lies in the upper band adds the entry of the upper
    # triangle of its block to that entry, at its index in LAPACK's upper
    # band storage.
    nb, b = coarse.shape
    p = np.arange(b)
    upper = np.minimum.outer(p, p) * b + np.maximum.outer(p, p)
    row = np.broadcast_to(coarse[:, None, :], (nb, b, b)).ravel()
    col = np.broadcast_to(coarse[:, :, None], (nb, b, b)).ravel()
    keep = (row <= col) & (col < size)
    row, col = row[keep], col[keep]
    pair_slot = (np.arange(nb)[:, None, None] * b * b + upper).ravel()[keep]
    bandwidth = _bandwidth(coarse, size)
    pair_pos = col * (bandwidth + 1) + bandwidth + row - col

    # The slot of local edge k of position p is k P + p.
    _, first = np.unique(cell_edges.ravel(), return_index=True)
    owner_slot = first % 3 * cells.size + positions[first // 3]

    arrays = (cells, positions, by_position(signs), by_position(minv),
              by_position(m), beta, by_position(v), by_position(inside),
              by_position(ssm, np.eye(3)), by_position(vv), skeleton,
              pair_pos, pair_slot, owner_slot,
              _pairs(macro_multiplier, skeleton.size), macro_multiplier)
    hybrid = HybridOperators(*arrays, bandwidth, tuple(levels), ())
    rho = np.zeros((3, cells.size))
    rho.ravel()[owner_slot] = forms.dirichlet_functional
    terms = _rho_terms(hybrid, _batch(rho))
    for a in arrays + terms:
        a.flags.writeable = False
    return replace(hybrid, dirichlet_terms=terms)


def _pairs(number, size):
    """The two flat indices in ``number`` of each of ``size`` skeleton
    edges, (2, size)."""
    flat = number.ravel()
    slots = np.flatnonzero(flat < size)
    return slots[np.argsort(flat[slots], kind="stable")].reshape(-1, 2).T


def _bandwidth(number, size):
    """The band of a skeleton of ``size`` edges that blocks with skeleton
    numbers ``number`` (num_blocks, b; ``size`` for none) couple."""
    valid = number < size
    high = np.where(valid, number, -1).max(axis=1)
    low = np.where(valid, number, size).min(axis=1)
    return int(np.max(high - low, initial=0))


def _merge(number, size, sides, side, table):
    """Merge a side x side grid of blocks 2x2, given the numbers of their
    boundary positions in a skeleton of ``size`` edges, the positions of
    their bottom, top, left and right sides (4, e) and ``table``, the
    groups of e positions the children's sides take in the merged block
    (``_CHILD_SIDES``).  Returns the ``CondensationLevel``, the merged
    blocks' boundary numbers in the skeleton left, the merged grid's side
    and the merged blocks' sides."""
    e = sides.shape[1]
    half = (side + 1) // 2
    nb = half * half
    block_i, block_j = np.arange(nb) % half, np.arange(nb) // half
    child_i = 2 * block_i + np.array([0, 1, 0, 1])[:, None]
    child_j = 2 * block_j + np.array([0, 0, 1, 1])[:, None]
    children = np.where((child_i < side) & (child_j < side),
                        child_j * side + child_i, side * side)
    child_positions = np.empty((4, 4 * e), dtype=np.intp)
    child_positions[:, sides] = table[:, :, None] * e + np.arange(e)
    # A cross edge is listed by both of its children, or by one when the
    # other is a phantom (a row of ``size``, no edge).
    padded = np.vstack([number, np.full(number.shape[1], size)])
    merged = np.full((nb, 12 * e), size)
    for child, pos in zip(children, child_positions):
        merged[:, pos] = np.minimum(merged[:, pos], padded[child])
    c = 4 * e
    cross, boundary = merged[:, :c], merged[:, c:]
    kept = np.unique(boundary[boundary < size])
    renumber = np.full(size + 1, kept.size)
    renumber[kept] = np.arange(kept.size)
    boundary = renumber[boundary]
    # A merged block's bottom is its lower children's bottoms, its top
    # the upper children's tops, its left and right sides likewise.
    halves = np.array([[0, 1], [2, 3], [0, 2], [1, 3]])[:, :, None]
    merged_sides = child_positions[halves, sides[:, None]].reshape(4, -1) - c

    # Each entry of a merged block sums those of at most two children:
    # indices into its children's Schur blocks, side by side and followed
    # by a zero block, the same for every block.
    width = 4 * e
    entry = np.arange(width * width).reshape(width, width)
    none = 4 * width * width
    first = np.full((3 * width, 3 * width), none)
    second = first.copy()
    for q, pos in enumerate(child_positions):
        grid = np.ix_(pos, pos)
        free = first[grid] == none
        second[grid] = np.where(free, second[grid], q * width * width + entry)
        first[grid] = np.where(free, q * width * width + entry, first[grid])
    # Band column j of a block's cross holds its entries (i, j), i <= j,
    # in rows c - 1 + i - j, column by column.
    i, j = np.arange(c) - c + 1 + np.arange(c)[:, None], np.arange(c)
    band = np.array([np.where(i >= 0, a[np.maximum(i, 0), j], none).T.ravel()
                     for a in (first, second)])
    children = np.vstack([children, np.full(nb, side * side + 1)]).T
    arrays = (children, cross, boundary, kept, _pairs(boundary, kept.size),
              band, first[:c, c:].ravel(), first[c:, c:].ravel())
    for a in arrays:
        a.flags.writeable = False
    return CondensationLevel(*arrays), boundary, half, merged_sides


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

    ``reduced`` (num_macros, 8, 8) is the condensed hybridized matrix on
    the skeleton, the one stored form of it, as the macros' Schur blocks
    on their skeleton positions 4-11 (read-only); the rest
    follows ``HybridOperators``' layout: ``den``
    is d_T |T| + tau beta_T by position (1 on phantoms), ``pivot``
    (4, num_macros) and ``coupling`` (4 sides, 4, num_macros) are each
    square's condensed diagonal entry and its couplings to the square's
    sides, and ``cross_pivot`` (4, num_macros) and ``cross_rows``
    (4, 12, num_macros) hold the macros' pivots of the inner cross and
    their rows, divided by the pivot, as they were eliminated.
    ``level_factors`` holds, per ``CondensationLevel``, the upper
    Cholesky factors of its blocks' crosses, one block-diagonal band in
    LAPACK's storage (4e, 4e num_blocks), W = U^{-T} C (num_blocks, 4e,
    8e), C being the crosses' couplings to the blocks' boundaries, and
    the blocks' Schur complements on their boundaries (num_blocks, 8e,
    8e), the next level's input; the last level's hold the coarse
    skeleton's matrix, as ``reduced`` does when there is no level.
    ``operators`` is set for a constant weight only.  A system handed to
    ``assemble`` as ``previous`` is consumed, with every factorization of
    it: the new system takes over its arrays but ``weights`` and ``den``,
    and rewrites them.
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
    level_factors: tuple = field(repr=False)
    operators: SolveOperators | None = field(default=None, repr=False)

    @property
    def num_cells(self) -> int:
        return self.forms.num_cells


@dataclass(frozen=True)
class Factorization:
    """The Cholesky factorization of a system's skeleton matrix A, tied
    to the system: the crosses of each ``CondensationLevel``, which
    ``assemble`` factorized (``SaddleSystem.level_factors``), then
    ``band``, the upper band Cholesky factor of the coarse skeleton's
    matrix (read-only).

    It has ``solve`` and the factors ``L`` and ``U``, sparse matrices
    with every stored nonzero entry, built on each access: row i of U is
    the factor row whose pivot is skeleton edge i, so U^T U = A.  ``lu``
    is the factorization itself, the name the benchmark's tracer reads
    ``lu.L.nnz + lu.U.nnz`` from for the factor's size.
    """

    system: SaddleSystem = field(repr=False)
    band: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.band.flags.writeable = False

    @property
    def lu(self) -> "Factorization":
        return self

    @property
    def U(self) -> sps.csr_matrix:
        hybrid = self.system.forms.hybrid
        size = hybrid.skeleton_edges.size
        # Each level's factor rows in the skeleton numbers of its edges.
        number = np.arange(size)
        rows, cols, vals = [], [], []
        for level, (cross_u, w, _) in zip(hybrid.levels,
                                          self.system.level_factors):
            c = level.cross.shape[1]
            cross = np.append(number, -1)[level.cross]
            number = number[level.kept]
            i, j = np.triu_indices(c)
            rows += [cross[:, i], np.broadcast_to(cross[:, :, None], w.shape)]
            cols += [cross[:, j], np.broadcast_to(np.append(number, -1)[
                level.boundary][:, None], w.shape)]
            vals += [cross_u.reshape(c, -1, c)[c - 1 + i - j, :, j].T, w]
        width, coarse = self.band.shape
        col = np.arange(coarse)
        row = col + np.arange(1 - width, 1)[:, None]
        rows.append(np.append(number, -1)[row])
        cols.append(np.broadcast_to(number[col], row.shape))
        vals.append(self.band)
        rows, cols, vals = (np.concatenate([a.ravel() for a in parts])
                            for parts in (rows, cols, vals))
        keep = (rows >= 0) & (cols >= 0) & (vals != 0.0)
        return sps.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                              shape=(size, size))

    @property
    def L(self) -> sps.csr_matrix:
        return self.U.T.tocsr()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs: the levels forward, the band, the levels back."""
        forward = []
        for level, (cross_u, w, _) in zip(self.system.forms.hybrid.levels,
                                          self.system.level_factors):
            y = _TBTRS(cross_u, np.append(rhs, 0.0)[level.cross].reshape(
                -1, 1), trans="T")[0].reshape(level.cross.shape)
            forward.append((level, cross_u, w, rhs.size, y))
            update = np.matmul(y[:, None], w).ravel()
            first, second = level.slots
            rhs = rhs[level.kept] - update[first] - update[second]
        x = _PBTRS(self.band, rhs)[0]
        for level, cross_u, w, size, y in reversed(forward):
            boundary = np.append(x, 0.0)[level.boundary]
            y -= np.matmul(w, boundary[:, :, None])[:, :, 0]
            below = np.empty(size + 1)
            below[level.kept] = x
            below[level.cross] = _TBTRS(cross_u, y.reshape(-1, 1))[0].reshape(
                y.shape)
            x = below[:-1]
        return x


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


def assemble(forms: AssembledForms, weights, tau: float,
             previous: SaddleSystem | None = None) -> SaddleSystem:
    """Assemble the reduced system for per-cell weights d_T and step tau:
    condense the macros, then each condensation level.

    Accepts a scalar weight (broadcast to all cells), whose system also
    gets its ``SolveOperators``, or a per-cell array; entries must be
    finite and nonnegative.  A ``previous`` system with per-cell weights
    on the same forms and tau is consumed when the weights are per-cell:
    only the macros whose den changed, and the level blocks over them,
    are condensed again, into its arrays, which the new system takes
    over.  Any other is ignored.  A cross whose Cholesky factorization
    fails raises SingularSystemError.
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
    den.flags.writeable = False
    reuse = (not constant and previous is not None and previous.forms is forms
             and previous.tau == tau and previous.operators is None)
    if reuse:
        # Every array depends on the weights only through den.
        changed = (den != previous.den).reshape(8, -1).any(axis=0)
        index = np.flatnonzero(changed)
        macros = (previous.reduced, previous.pivot, previous.coupling,
                  previous.cross_pivot, previous.cross_rows)
        for i, (a, new) in enumerate(zip(macros, _condense_macros(
                hybrid, den, tau, index))):
            _write(a, index if i == 0 else (..., index), new)
    else:
        macros = _condense_macros(hybrid, den, tau, slice(None))
    factors = []
    for i, level in enumerate(hybrid.levels):
        blocks = factors[-1][2] if factors else macros[0]
        if not reuse:
            factors.append(_condense_level(level, blocks, slice(None)))
            continue
        # A block changes with any of its children; the last two
        # children numbers are a phantom and the zero block.
        changed = np.append(changed, [False, False])[level.children].any(
            axis=1)
        index = np.flatnonzero(changed)
        factors.append(previous.level_factors[i])
        if index.size:
            c = level.cross.shape[1]
            columns = (index[:, None] * c + np.arange(c)).ravel()
            for a, where, new in zip(factors[-1], (
                    (slice(None), columns), index, index),
                    _condense_level(level, blocks, index)):
                _write(a, where, new)
    if not reuse:
        for a in (*macros, *(a for factor in factors for a in factor)):
            a.flags.writeable = False
    system = SaddleSystem(forms, weights, float(tau), macros[0], den,
                          *macros[1:], tuple(factors))
    if constant:
        system = replace(system, operators=_solve_operators(system))
    return system


def _write(a: np.ndarray, index, values):
    """a[index] = values into a read-only array of a consumed system,
    which owns its memory or views a writeable base."""
    a.flags.writeable = True
    a[index] = values
    a.flags.writeable = False


def _condense_macros(hybrid: HybridOperators, den, tau, index):
    """The macro condensation of the macros ``index`` (an index into the
    last axis of a (…, num_macros) array): ``SaddleSystem``'s reduced,
    pivot, coupling, cross_pivot and cross_rows for them."""
    shape = (3, 3, 2, 4, -1)
    local = (hybrid.ssm.reshape(shape)[..., index]
             - (tau / den.reshape(shape[2:])[..., index])
             * hybrid.vv.reshape(shape)[..., index])
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
    reduced = macro[4:, 4:].transpose(2, 0, 1).copy()
    cross_pivot = macro[range(4), range(4)]
    cross_rows = macro[:4] / cross_pivot[:, None]
    return reduced, pivot, coupling.copy(), cross_pivot, cross_rows


def factorize(system: SaddleSystem) -> Factorization:
    """Factorize the reduced matrix: the band Cholesky of the coarse
    skeleton, the last condensation level's Schur blocks (the macros'
    when there is no level) summed into its band."""
    hybrid = system.forms.hybrid
    blocks = (system.level_factors[-1][2] if system.level_factors
              else system.reduced)
    size = hybrid.bandwidth + 1
    nsk = (hybrid.levels[-1].kept.size if hybrid.levels
           else hybrid.skeleton_edges.size)
    band = np.bincount(hybrid.pair_pos, minlength=size * nsk,
                       weights=blocks.ravel()[hybrid.pair_slot])
    band, info = _PBTRF(band.reshape(size, nsk, order="F"), overwrite_ab=1)
    if info != 0:
        raise SingularSystemError(f"band Cholesky failed at pivot {info}")
    return Factorization(system, band)


def _condense_level(level: CondensationLevel, blocks, index):
    """Merge the Schur blocks (num_children, 4e, 4e) of the level below
    2x2 into the level's blocks ``index`` and eliminate each merged
    block's cross: returns the level's factor of those blocks, the
    crosses' band factor, W and the merged blocks' Schur complements on
    their boundaries, (num_blocks, 8e, 8e).  Each block's values are the
    same whichever others are merged with it."""
    children = level.children[index]
    nb, c = children.shape[0], level.cross.shape[1]
    width = blocks.shape[1]
    # A phantom child is decoupled, an identity block, and the last
    # child of every block is a zero block.
    values = blocks[np.minimum(children, len(blocks) - 1)]
    values[children == len(blocks)] = np.eye(width)
    values[:, -1] = 0.0
    values = values.reshape(nb, -1)
    # take keeps each block's row contiguous, where values[:, index]
    # would interleave the blocks.
    band = np.take(values, level.band_source[0], axis=1)
    band += np.take(values, level.band_source[1], axis=1)
    band, info = _PBTRF(band.reshape(nb * c, c).T, overwrite_ab=1)
    if info != 0:
        raise SingularSystemError(f"cross Cholesky failed at pivot {info}")
    # W = U^{-T} C, with U^{-1} solved for an identity per block.
    inverse = _TBTRS(band, np.tile(np.eye(c), (nb, 1)))[0].reshape(nb, c, c)
    w = np.matmul(inverse.transpose(0, 2, 1).copy(), np.take(
        values, level.coupling_source, axis=1).reshape(nb, c, -1))
    schur = np.take(values, level.schur_source, axis=1).reshape(nb, 2 * c,
                                                                2 * c)
    schur -= np.matmul(w.transpose(0, 2, 1).copy(), w)
    return band, w, schur


def solve(fact: Factorization, rhs_scalar):
    """Solve for (u, q) given the per-cell right-hand side, with the
    forms' Dirichlet functional on the flux side.  A constant-weight
    system forms u alone and returns, in q's place, the unknowns x of
    its solve, from which ``flux`` forms q.
    """
    system = fact.system
    nc = system.num_cells
    rhs_scalar = np.asarray(rhs_scalar, dtype=float)
    if rhs_scalar.shape != (nc,):
        raise ValueError(f"rhs_scalar must have shape ({nc},)")
    ops = system.operators
    if ops is not None:
        x = np.zeros(ops.scalar.shape[1])
        x[:nc], x[-1] = rhs_scalar, 1.0
        x[nc:-2] = fact.solve(_product(ops.skeleton_rhs, x))
        u, q = _product(ops.scalar, x), x
    else:
        u, q = _solve_hybrid(fact, rhs_scalar)
    if not np.isfinite(u).all() or ops is None and not np.isfinite(q).all():
        raise SingularSystemError("direct solve produced non-finite values")
    return u, q


def flux(fact: Factorization, x):
    """q = F x from the unknowns x a constant-weight ``solve`` returns."""
    return _product(fact.system.operators.flux, x)


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
    condensed = _condense(system, _batch(np.append(rhs_scalar, 0.0)
                                         [hybrid.cells]),
                          hybrid.dirichlet_terms)
    boundary_rhs = condensed[-1][4:].ravel()
    first, second = hybrid.skeleton_slots
    skeleton = fact.solve(boundary_rhs[first] + boundary_rhs[second])
    u, q = _recover(system, condensed, np.append(skeleton, 0.0)[
        hybrid.macro_multiplier[:, None]])
    return u.ravel()[hybrid.positions], q.ravel()[hybrid.owner_slot]


def _batch(a):
    """A by-position array (..., P) as (..., 8, 1, num_macros): the
    macros' eight positions, a batch axis and the macros."""
    return a.reshape(a.shape[:-1] + (8, 1, -1))


def _rho_terms(hybrid: HybridOperators, rho):
    """m_rho = M_T^{-1} rho_T, s_T * m_rho and its sum over the slots of
    each cell, for a batch rho by slot, (3, 8, b, num_macros)."""
    # minv is symmetric, so row l of each block is its column l.
    m_rho = np.einsum("kl...,k...->l...", _batch(hybrid.minv), rho)
    s_m_rho = _batch(hybrid.signs) * m_rho
    return m_rho, s_m_rho, s_m_rho.sum(axis=0)


def _condense(system: SaddleSystem, rhs_scalar, rho_terms):
    """Condense a batch of b right-hand sides by position, (8, b,
    num_macros), and by slot, given by their ``_rho_terms``, onto each
    macro's skeleton positions, 4-11 of the condensed (12, b, num_macros)
    last."""
    hybrid = system.forms.hybrid
    v, inside = _batch(hybrid.v), _batch(hybrid.inside)
    pivot, coupling, rows = (a[..., None, :] for a in (
        system.pivot, system.coupling, system.cross_rows))
    m_rho, s_m_rho, s_m_rho_sum = rho_terms
    u0 = (rhs_scalar - system.tau * s_m_rho_sum) / _batch(system.den)
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
    zero = np.zeros((8, 1, nm))
    no_rho = _rho_terms(hybrid, np.zeros((3, 8, 1, nm)))
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
            (zero, hybrid.dirichlet_terms, zero))):
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
