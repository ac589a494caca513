"""Assembly and direct solution of the saddle-point system.

Every iteration of every scheme reduces to the block system

    [ D     tau B ] [u]   [rhs_scalar]
    [ -B^T  M     ] [q] = [rhs_flux  ],

with D = diag(d_T |T|) for per-cell linearization weights d_T >= 0
(the constant L for the L-type schemes, b'_eps(u_T) for Newton), the
divergence matrix B and the flux mass M from the assembled forms.  The
matrix is nonsingular whenever the weights are nonnegative and tau > 0
since M is symmetric positive definite and B has full row rank.

The block matrix itself is never factorized; one of two symmetric
positive definite reductions is (static condensation, Arnold-Brezzi
1985).  When every d_T |T| is positive (always for the L-type schemes),
eliminating u = D^{-1}(rhs_scalar - tau B q) leaves the flux Schur
complement

    (M + tau B^T D^{-1} B) q = rhs_flux + B^T D^{-1} rhs_scalar.

When some weight is zero (Newton's b'_eps vanishes on the dry cells
u < 0) the system is hybridized instead: each cell T gets its own
fluxes, tied across interior edges by multipliers lambda (the traces of
u; zero on the Dirichlet boundary).  With the cell's mass block M_T and
edge signs s_T, m_T = M_T^{-1} s_T, beta_T = s_T . m_T, v_T = s_T * m_T
and den_T = d_T |T| + tau beta_T > 0, eliminating the cell unknowns
leaves

    H = sum_T P_T^T (S_T M_T^{-1} S_T - (tau / den_T) v_T v_T^T) P_T

on the interior edges, symmetric positive definite for all weights
d_T >= 0, zero included.  Each entry of rhs_flux belongs to the
lowest-numbered cell of its edge; u_T and q follow cell by cell from
lambda.

H is condensed further, in numpy and for all 2x2 macro squares at once,
before SuperLU sees it: first the square diagonals, which share no cell,
so their block is diagonal (one pivot per square), then the four edges
of each macro's inner cross (four pivots per macro).  The multipliers
left are the skeleton, the interior edges on the macros' boundaries,
about a third of them; their Schur complement is assembled from the
macros' 8x8 blocks, with a pattern that depends only on the mesh.  A
solve condenses the right-hand side the same way, solves on the
skeleton and recovers the crosses, then the diagonals, macro by macro.
Macros cut by the domain's top or right side (odd n) are completed by
phantom cells whose multipliers decouple.

Each reduced matrix is factorized once by a sparse LU with diagonal
pivoting and a symmetric fill-reducing ordering, and the factorization
reused across solves.  The flux Schur complement is ordered by SuperLU's
minimum degree on A^T + A at each factorization; the skeleton is
numbered in nested-dissection order (George 1973), computed once per
mesh with the hybrid operators, and is factorized in that order.  Each
factorization keeps the system it was built from, so L-type schemes
keep one factorization for a whole run (the step loop rejects one built
for another (L, tau)) while Newton must refactorize every iteration.
``SaddleSystem.matrix`` builds the full block matrix on demand as the
oracle for tests and ``residual_norm``.

A ``Factorization`` is immutable; solves are pure functions of
(factorization, right-hand side) and repeated solves are bit-identical.
Assembly and factorization are single-threaded.
"""

from dataclasses import dataclass, field

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
class SaddleSystem:
    """Immutable assembled system (right-hand sides supplied per solve).

    ``reduced`` is the matrix that is factorized.  For the flux Schur
    complement, ``d_inv`` is 1/(d_T |T|) and the lifts are B^T D^{-1}
    (flux by cells) and tau D^{-1} B (cells by flux), and ``den`` is
    None.  For the condensed hybridized matrix on the skeleton, those
    three are None and the rest follows ``HybridOperators``' layout:
    ``den`` is d_T |T| + tau beta_T by position (1 on phantoms),
    ``pivot`` (4, num_macros) and ``coupling`` (4 sides, 4, num_macros)
    are each square's condensed diagonal entry and its couplings to the
    square's sides, and ``cross_pivot`` (4, num_macros) and
    ``cross_rows`` (4, 12, num_macros) hold the macros' pivots of the
    inner cross and their rows, divided by the pivot, as they were
    eliminated.
    """

    forms: AssembledForms
    weights: np.ndarray
    tau: float
    reduced: sps.csc_matrix = field(repr=False)
    d_inv: np.ndarray | None = field(default=None, repr=False)
    lift_flux: sps.csr_matrix | None = field(default=None, repr=False)
    lift_scalar: sps.csr_matrix | None = field(default=None, repr=False)
    den: np.ndarray | None = field(default=None, repr=False)
    pivot: np.ndarray | None = field(default=None, repr=False)
    coupling: np.ndarray | None = field(default=None, repr=False)
    cross_pivot: np.ndarray | None = field(default=None, repr=False)
    cross_rows: np.ndarray | None = field(default=None, repr=False)

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

    Accepts a scalar weight (broadcast to all cells) or a per-cell array;
    entries must be finite and nonnegative.
    """
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    nc = forms.num_cells
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (nc,)).copy()
    if not np.all(np.isfinite(weights)):
        raise ValueError("linearization weights must be finite")
    if np.any(weights < 0.0):
        raise ValueError("linearization weights must be nonnegative")

    scaled = weights * forms.scalar_mass
    weights.flags.writeable = False
    # A weight whose reciprocal would overflow counts as zero.
    if np.all(scaled > 1.0 / np.finfo(float).max):
        d_inv = 1.0 / scaled
        div = forms.divergence
        lift_scalar = (sps.diags(tau * d_inv) @ div).tocsr()
        lift_flux = (sps.diags(d_inv) @ div).T.tocsr()
        reduced = (forms.flux_mass + div.T @ lift_scalar).tocsc()
        d_inv.flags.writeable = False
        return SaddleSystem(forms, weights, float(tau), reduced, d_inv,
                            lift_flux, lift_scalar)

    hybrid = forms.hybrid
    den = np.append(scaled + tau * hybrid.beta, 1.0)[hybrid.cells]
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
    data = np.bincount(hybrid.pair_pos, minlength=hybrid.indices.size,
                       weights=macro.ravel()[hybrid.pair_slot])
    ns = hybrid.skeleton_edges.size
    reduced = sps.csc_matrix((data, hybrid.indices, hybrid.indptr),
                             shape=(ns, ns))
    cross_pivot = macro[range(4), range(4)]
    cross_rows = macro[:4] / cross_pivot[:, None]
    coupling = coupling.copy()
    for a in (den, pivot, coupling, cross_pivot, cross_rows):
        a.flags.writeable = False
    return SaddleSystem(forms, weights, float(tau), reduced, den=den,
                        pivot=pivot, coupling=coupling,
                        cross_pivot=cross_pivot, cross_rows=cross_rows)


def factorize(system: SaddleSystem) -> Factorization:
    """Compute the sparse LU decomposition of the reduced matrix.

    The ordering is symmetric and pivots stay on the diagonal, which
    both symmetric positive definite reductions allow: minimum degree
    for the flux Schur complement, and for the condensed hybridized
    matrix the nested-dissection order its skeleton already has, so
    SuperLU computes no ordering.
    """
    try:
        order = "MMD_AT_PLUS_A" if system.den is None else "NATURAL"
        lu = spla.splu(system.reduced, permc_spec=order,
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return Factorization(lu, system)


def solve(fact: Factorization, rhs_scalar, rhs_flux):
    """Solve for (u, q) given per-cell and per-edge right-hand sides."""
    system = fact.system
    nc, ne = system.num_cells, system.num_edges
    rhs_scalar = np.asarray(rhs_scalar, dtype=float)
    rhs_flux = np.asarray(rhs_flux, dtype=float)
    if rhs_scalar.shape != (nc,):
        raise ValueError(f"rhs_scalar must have shape ({nc},)")
    if rhs_flux.shape != (ne,):
        raise ValueError(f"rhs_flux must have shape ({ne},)")
    if system.den is None:
        q = fact.lu.solve(rhs_flux + system.lift_flux @ rhs_scalar)
        u = system.d_inv * rhs_scalar - system.lift_scalar @ q
    else:
        u, q = _solve_hybrid(fact, rhs_scalar, rhs_flux)
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise SingularSystemError("direct solve produced non-finite values")
    return u, q


def _solve_hybrid(fact: Factorization, rhs_scalar, rhs_flux):
    """Solve the condensed hybridized system for the multipliers, then
    recover u and q cell by cell."""
    system = fact.system
    hybrid = system.forms.hybrid
    minv, signs, v = hybrid.minv, hybrid.signs, hybrid.v
    tau, den = system.tau, system.den
    rho = np.zeros(signs.shape)
    rho.ravel()[hybrid.owner_slot] = rhs_flux
    # minv is symmetric, so row l of each block is its column l.
    m_rho = (minv * rho[:, None]).sum(axis=0)
    s_m_rho = signs * m_rho
    u0 = (np.append(rhs_scalar, 0.0)[hybrid.cells]
          - tau * s_m_rho.sum(axis=0)) / den
    local_rhs = (s_m_rho + v * u0) * hybrid.inside
    lam = _multipliers(fact, local_rhs.reshape(3, 2, 4, -1))
    lam = lam.reshape(signs.shape)
    u = u0 + tau * (v * lam).sum(axis=0) / den
    q = m_rho + hybrid.m * u - (minv * (signs * lam)[:, None]).sum(axis=0)
    return u[hybrid.positions], q.ravel()[hybrid.owner_slot]


def _multipliers(fact: Factorization, local_rhs):
    """The multiplier of every slot, given each slot's share of the
    right-hand side as (3, 2, 4, num_macros): condense onto the
    skeleton square by square and then macro by macro, solve there, and
    recover the inner crosses and the diagonals in reverse."""
    system = fact.system
    hybrid = system.forms.hybrid
    pivot, coupling, rows = system.pivot, system.coupling, system.cross_rows
    nm = pivot.shape[1]
    diagonal_rhs = local_rhs[2, 0] + local_rhs[2, 1]
    side_rhs = (local_rhs[:2].reshape(4, 4, nm)
                - coupling * (diagonal_rhs / pivot))
    rhs = side_rhs[_FIRST_SIDE]
    rhs[:4] += side_rhs[_SECOND_SIDE]
    for k, cols in enumerate(_CROSS_COUPLED):
        rhs[cols] -= rows[k, cols] * rhs[k]
    boundary_rhs = rhs[4:].ravel()
    first, second = hybrid.skeleton_slots
    skeleton = fact.lu.solve(boundary_rhs[first] + boundary_rhs[second])
    lam = np.empty_like(rhs)
    lam[4:] = np.append(skeleton, 0.0)[hybrid.macro_multiplier]
    for k in range(3, -1, -1):
        cols = _CROSS_COUPLED[k]
        lam[k] = (rhs[k] / system.cross_pivot[k]
                  - (rows[k, cols] * lam[cols]).sum(axis=0))
    sides = lam[MACRO_SIDES.T]
    diagonal = (diagonal_rhs - (coupling * sides).sum(axis=0)) / pivot
    return np.concatenate([sides.reshape(2, 2, 4, nm),
                           np.broadcast_to(diagonal, (1, 2, 4, nm))])


def residual_norm(system: SaddleSystem, u, q, rhs_scalar, rhs_flux) -> float:
    """Relative residual of the full block system for a candidate solution."""
    rhs = np.concatenate([rhs_scalar, rhs_flux])
    x = np.concatenate([u, q])
    r = system.matrix @ x - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))
