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

on the interior edges.  Its size and pattern depend only on the mesh, so
all weights d_T >= 0, zero included, take the same path.  Each entry of
rhs_flux belongs to the lowest-numbered cell of its edge; u_T and q
follow cell by cell from lambda.

The reduced matrix is factorized once by a sparse LU with diagonal
pivoting and a symmetric fill-reducing ordering, and the factorization
reused across solves.  The flux Schur complement is ordered by SuperLU's
minimum degree on A^T + A at each factorization; the hybridized matrix
is assembled with its multipliers already in nested-dissection order
(George 1973), computed once per mesh with the hybrid operators, and is
factorized in that order.  Each factorization keeps the system it was
built from, so L-type schemes keep one factorization for a whole run
(the step loop rejects one built for another (L, tau)) while Newton must
refactorize every iteration.  ``SaddleSystem.matrix`` builds the full
block matrix on demand as the oracle for tests and ``residual_norm``.

A ``Factorization`` is immutable; solves are pure functions of
(factorization, right-hand side) and repeated solves are bit-identical.
Assembly and factorization are single-threaded.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sps
import scipy.sparse.linalg as spla

from degenmfem.fem import AssembledForms


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
    None.  For the hybridized matrix on the interior edges, ``den`` is
    d_T |T| + tau beta_T and those three are None.
    """

    forms: AssembledForms
    weights: np.ndarray
    tau: float
    reduced: sps.csc_matrix = field(repr=False)
    d_inv: np.ndarray | None = field(default=None, repr=False)
    lift_flux: sps.csr_matrix | None = field(default=None, repr=False)
    lift_scalar: sps.csr_matrix | None = field(default=None, repr=False)
    den: np.ndarray | None = field(default=None, repr=False)

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
    den = scaled + tau * hybrid.beta
    data = hybrid.base - np.bincount(
        hybrid.pair_pos, weights=(tau / den)[hybrid.pair_cell] * hybrid.pair_vv,
        minlength=hybrid.base.size)
    ni = hybrid.interior_edges.size
    reduced = sps.csc_matrix((data, hybrid.indices, hybrid.indptr),
                             shape=(ni, ni))
    den.flags.writeable = False
    return SaddleSystem(forms, weights, float(tau), reduced, den=den)


def factorize(system: SaddleSystem) -> Factorization:
    """Compute the sparse LU decomposition of the reduced matrix.

    The ordering is symmetric and pivots stay on the diagonal, which
    both symmetric positive definite reductions allow: minimum degree
    for the flux Schur complement, and for the hybridized matrix the
    nested-dissection order its rows already have, so SuperLU computes
    no ordering.
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
    """Solve the hybridized system for the multipliers, then recover u
    and q cell by cell."""
    system = fact.system
    hybrid = system.forms.hybrid
    minv, signs, v = hybrid.minv, hybrid.signs, hybrid.v
    tau, den = system.tau, system.den
    rho = np.zeros(signs.shape)
    rho.ravel()[hybrid.owner_slot] = rhs_flux
    # minv is symmetric, so row l of each block is its column l.
    m_rho = _local_sum(minv * rho[:, None])
    s_m_rho = signs * m_rho
    u0 = (rhs_scalar - tau * _local_sum(s_m_rho)) / den
    local_rhs = (s_m_rho + v * u0).ravel()
    first, second = hybrid.edge_slots
    lam = np.append(fact.lu.solve(local_rhs[first] + local_rhs[second]), 0.0)
    lam = lam[hybrid.slot_multiplier].reshape(signs.shape)
    u = u0 + tau * _local_sum(v * lam) / den
    q = m_rho + hybrid.m * u - _local_sum(minv * (signs * lam)[:, None])
    return u, q.ravel()[hybrid.owner_slot]


def _local_sum(terms):
    """Sum of the three local-edge terms ``terms[k]`` of every cell, in
    the order numpy's ``einsum`` adds three terms, (0 + 2) + 1, so the
    solve gives the bits of the batched ``einsum`` formulation."""
    return (terms[0] + terms[2]) + terms[1]


def residual_norm(system: SaddleSystem, u, q, rhs_scalar, rhs_flux) -> float:
    """Relative residual of the full block system for a candidate solution."""
    rhs = np.concatenate([rhs_scalar, rhs_flux])
    x = np.concatenate([u, q])
    r = system.matrix @ x - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))
