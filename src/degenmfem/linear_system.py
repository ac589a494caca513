"""Assembly and direct solution of the saddle-point system.

Every iteration of every scheme reduces to the block system

    [ D     tau B ] [u]   [rhs_scalar]
    [ -B^T  M     ] [q] = [rhs_flux  ],

with D = diag(d_T |T|) for per-cell linearization weights d_T >= 0
(the constant L for the L-type schemes, b'_eps(u_T) for Newton), the
divergence matrix B and the flux mass M from the assembled forms.  The
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
d_T >= 0, zero included.  Each entry of rhs_flux belongs to the
lowest-numbered cell of its edge; u_T and q follow cell by cell from
lambda.  H is condensed further, in numpy and for all 2x2 macro squares
at once: first the square diagonals, which share no cell (one pivot per
square), then each macro's inner cross (four pivots).  The multipliers
left are the skeleton, the interior edges on the macros' boundaries;
their Schur complement is assembled from the macros' 8x8 blocks, with a
pattern fixed per mesh, and factorized by a sparse LU with diagonal
pivoting in the nested-dissection order (George 1973) the skeleton is
numbered in.  Macros cut by the domain's top or right side (odd n) are
completed by phantom cells whose multipliers decouple.

A solve takes one of two forms.  Newton's weights change every
iteration, so its solve runs per call: condense the right-hand side
macro by macro, solve on the skeleton, recover the crosses, the
diagonals and the cells.  A constant weight (the L-type schemes, one
system for a whole run) gets that solve precomputed at assembly, with
the forms' Dirichlet functional as rhs_flux, as sparse maps local to the
macros: R from the cells to the skeleton's right-hand side, S and F
from the cells and the skeleton to u and q,

    lambda_s = skeleton solve of (R rhs_scalar + r),
    u = S [rhs_scalar; lambda_s] + c_u,
    q = F [rhs_scalar; lambda_s] + c_q,

with q formed only when asked for.  They are built by running the
per-call condensation and recovery on the unit right-hand sides of a
macro's eight cells and the unit multipliers of its eight skeleton
positions, for all macros at once.

Each factorization keeps the system it was built from, so the step loop
rejects one built for another (L, tau).  A ``Factorization`` is
immutable; solves are pure functions of (factorization, right-hand
side) and repeated solves are bit-identical.  ``SaddleSystem.matrix``
builds the full block matrix on demand, the oracle for tests and
``residual_norm``.  Assembly and factorization are single-threaded.
"""

import copy
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from degenmfem.fem import MACRO_SIDES, AssembledForms


class SingularSystemError(Exception):
    """The direct factorization failed; reported by schemes as
    non-convergence with reason ``singular system``."""


class StaleFactorizationError(Exception):
    """A step was given a factorization built for different (weights,
    tau) than its own; raised by ``schemes.linearized_iterate``."""


@dataclass(frozen=True)
class SolveOperators:
    """A constant-weight solve as sparse maps (R, S, F in the module
    docstring) and the Dirichlet functional's shares r, c_u, c_q."""

    skeleton_rhs: sps.csr_matrix
    skeleton_const: np.ndarray
    scalar: sps.csr_matrix
    scalar_const: np.ndarray
    flux: sps.csr_matrix
    flux_const: np.ndarray


@dataclass(frozen=True)
class SaddleSystem:
    """Immutable assembled system (right-hand sides supplied per solve).

    ``reduced`` is the condensed hybridized matrix on the skeleton, which
    is factorized; the rest follows ``HybridOperators``' layout: ``den``
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
    reduced: sps.csc_matrix = field(repr=False)
    den: np.ndarray = field(repr=False)
    pivot: np.ndarray = field(repr=False)
    coupling: np.ndarray = field(repr=False)
    cross_pivot: np.ndarray = field(repr=False)
    cross_rows: np.ndarray = field(repr=False)
    operators: SolveOperators | None = field(default=None, repr=False)

    @property
    def num_cells(self) -> int:
        return self.forms.num_cells

    @property
    def num_edges(self) -> int:
        return self.forms.num_edges

    @property
    def matrix(self) -> sps.csc_matrix:
        """The full block matrix, built on each access."""
        forms = self.forms
        return sps.bmat(
            [
                [sps.diags(self.weights * forms.scalar_mass),
                 self.tau * forms.divergence],
                [-forms.divergence.T, forms.flux_mass],
            ],
            format="csc",
        )


@dataclass(frozen=True)
class Factorization:
    """Sparse LU factors of a system's reduced matrix, which they stay
    tied to."""

    lu: object = field(repr=False)
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
    # The pattern is the mesh's, checked once when it was built.
    reduced = copy.copy(hybrid.skeleton_pattern)
    reduced.data = np.bincount(hybrid.pair_pos, minlength=reduced.nnz,
                               weights=macro.ravel()[hybrid.pair_slot])
    cross_pivot = macro[range(4), range(4)]
    cross_rows = macro[:4] / cross_pivot[:, None]
    coupling = coupling.copy()
    for a in (den, pivot, coupling, cross_pivot, cross_rows):
        a.flags.writeable = False
    system = SaddleSystem(forms, weights, float(tau), reduced, den, pivot,
                          coupling, cross_pivot, cross_rows)
    if constant:
        system = replace(system, operators=_solve_operators(system))
    return system


def factorize(system: SaddleSystem) -> Factorization:
    """Compute the sparse LU decomposition of the reduced matrix.

    The ordering is symmetric and pivots stay on the diagonal, which the
    symmetric positive definite skeleton matrix allows; it is already in
    nested-dissection order, so SuperLU computes no ordering.
    """
    try:
        lu = spla.splu(system.reduced, permc_spec="NATURAL",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return Factorization(lu, system)


def solve(fact: Factorization, rhs_scalar, rhs_flux=None):
    """Solve for (u, q) given per-cell and per-edge right-hand sides.

    Without ``rhs_flux`` the flux right-hand side is the forms' Dirichlet
    functional, and a constant-weight system forms u alone: q is None
    and ``flux`` gives it.  u is the same either way, to the bit.
    """
    system = fact.system
    nc, ne = system.num_cells, system.num_edges
    rhs_scalar = np.asarray(rhs_scalar, dtype=float)
    if rhs_scalar.shape != (nc,):
        raise ValueError(f"rhs_scalar must have shape ({nc},)")
    dirichlet = system.forms.dirichlet_functional
    if rhs_flux is not None:
        rhs_flux = np.asarray(rhs_flux, dtype=float)
        if rhs_flux.shape != (ne,):
            raise ValueError(f"rhs_flux must have shape ({ne},)")
    if system.operators is not None and (
            rhs_flux is None or rhs_flux is dirichlet
            or np.array_equal(rhs_flux, dirichlet)):
        u, q = _apply(fact, rhs_scalar, rhs_flux is not None)
    else:
        u, q = _solve_hybrid(fact, rhs_scalar,
                             dirichlet if rhs_flux is None else rhs_flux)
    if not (np.isfinite(u).all() and (q is None or np.isfinite(q).all())):
        raise SingularSystemError("direct solve produced non-finite values")
    return u, q


def flux(fact: Factorization, rhs_scalar):
    """The q that ``solve`` leaves out of a constant-weight solve."""
    return _apply(fact, rhs_scalar, True)[1]


def _apply(fact: Factorization, rhs_scalar, with_flux):
    ops = fact.system.operators
    both = np.concatenate((rhs_scalar, fact.lu.solve(
        ops.skeleton_rhs @ rhs_scalar + ops.skeleton_const)))
    u = ops.scalar @ both + ops.scalar_const
    return u, ops.flux @ both + ops.flux_const if with_flux else None


def _solve_hybrid(fact: Factorization, rhs_scalar, rhs_flux):
    """Solve the condensed hybridized system for the multipliers, then
    recover u and q cell by cell."""
    system = fact.system
    hybrid = system.forms.hybrid
    rho = np.zeros(hybrid.signs.shape)
    rho.ravel()[hybrid.owner_slot] = rhs_flux
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
    local_rhs = (s_m_rho + v * u0) * inside
    local_rhs = local_rhs.reshape((3, 2, 4) + local_rhs.shape[2:])
    diagonal_rhs = local_rhs[2, 0] + local_rhs[2, 1]
    side_rhs = (local_rhs[:2].reshape((4,) + diagonal_rhs.shape)
                - coupling * (diagonal_rhs / pivot))
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
    sides = lam[MACRO_SIDES.T]
    diagonal = (diagonal_rhs - (coupling * sides).sum(axis=0)) / pivot
    lam = np.concatenate([sides.reshape((2, 2) + sides.shape[1:]),
                          np.broadcast_to(diagonal, (1, 2) + diagonal.shape)])
    lam = lam.reshape((3, 8) + lam.shape[3:])
    u = u0 + system.tau * np.einsum("k...,k...->...", _batch(hybrid.v),
                                    lam) / _batch(system.den)
    q = m_rho + _batch(hybrid.m) * u - np.einsum(
        "kl...,k...->l...", _batch(hybrid.minv), _batch(hybrid.signs) * lam)
    return u, q


def _solve_operators(system: SaddleSystem) -> SolveOperators:
    """Run the condensation and recovery, for all macros at once, on the
    Dirichlet functional alone, on the unit right-hand sides of a
    macro's eight cells and on the unit multipliers of its eight
    skeleton positions."""
    forms = system.forms
    hybrid = forms.hybrid
    nc, nsk = forms.num_cells, hybrid.skeleton_edges.size
    nm = hybrid.macro_multiplier.shape[1]
    dirichlet = np.zeros(hybrid.signs.shape)
    dirichlet.ravel()[hybrid.owner_slot] = forms.dirichlet_functional
    zero, no_rho = np.zeros((8, 1, nm)), np.zeros((3, 8, 1, nm))
    unit = np.broadcast_to(np.eye(8)[:, :, None], (8, 8, nm))
    const = _condense(system, zero, _batch(dirichlet))
    local = _condense(system, unit, no_rho)
    u_const, q_const = _recover(system, const, zero)
    u_local, q_local = _recover(system, local, zero)
    u_skeleton, q_skeleton = _recover(
        system, _condense(system, zero, no_rho), unit)

    def rows(a, index):
        # The batch at flat positions or slots of a batched array.
        *lead, macro = np.unravel_index(index, a.shape[:-2] + (nm,))
        return a[(*lead, slice(None), macro)]

    # A row's columns are the cells of its macro, then the skeleton
    # edges, numbered after the cells, of its boundary; a skeleton
    # edge's right-hand side takes the cells of the two macros it bounds.
    cell_of = hybrid.cells.reshape(8, -1).T
    columns = np.hstack([np.where(cell_of < nc, cell_of, nc + nsk),
                         nc + hybrid.macro_multiplier.T])
    pos, slot, pair = hybrid.positions, hybrid.owner_slot, \
        hybrid.skeleton_slots.T
    rhs_const = const[-1][4:].ravel()
    operators = (
        _macro_csr(rows(local[-1][4:], pair).reshape(nsk, 16),
                   cell_of[pair % nm].reshape(nsk, 16), nc),
        rhs_const[pair[:, 0]] + rhs_const[pair[:, 1]],
        _macro_csr(rows(np.concatenate([u_local, u_skeleton], axis=-2), pos),
                   columns[pos % nm], nc + nsk),
        u_const.ravel()[pos],
        _macro_csr(rows(np.concatenate([q_local, q_skeleton], axis=-2), slot),
                   columns[slot % nm], nc + nsk),
        q_const.ravel()[slot],
    )
    for a in operators[1::2]:
        a.flags.writeable = False
    return SolveOperators(*operators)


def _macro_csr(data, cols, num_cols):
    """A CSR matrix with each row's ``data`` at its ``cols``, (num_rows,
    k) each, without the columns out of range (a phantom cell or no
    skeleton edge)."""
    kept = np.flatnonzero(cols < num_cols)
    indptr = np.searchsorted(kept, np.arange(0, cols.size + 1, cols.shape[1]))
    return sps.csr_matrix((data.ravel()[kept],
                           cols.ravel()[kept].astype(np.int32),
                           indptr.astype(np.int32)),
                          shape=(data.shape[0], num_cols))


def residual_norm(system: SaddleSystem, u, q, rhs_scalar, rhs_flux) -> float:
    """Relative residual of the full block system for a candidate solution."""
    rhs = np.concatenate([rhs_scalar, rhs_flux])
    x = np.concatenate([u, q])
    r = system.matrix @ x - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))
