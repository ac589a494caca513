"""Assembly and direct solution of the saddle-point system.

Every iteration of every scheme reduces to the block system

    [ D     tau B ] [u]   [rhs_scalar]
    [ -B^T  M     ] [q] = [rhs_flux  ],

with D = diag(d_T |T|) for per-cell linearization weights d_T >= 0
(the constant L for the L-type schemes, b'_eps(u_T) for Newton), the
divergence matrix B and the flux mass M from the assembled forms.  The
matrix is nonsingular whenever the weights are nonnegative and tau > 0
since M is symmetric positive definite and B has full row rank.

The block matrix itself is never factorized.  Cells split into P, where
d_T |T| > 0, and Z, where the weight is zero (Newton's b'_eps vanishes
on the dry cells u < 0).  Eliminating u_P = D_P^{-1}(rhs_P - tau B_P q)
leaves the symmetric system

    [ M + tau B_P^T D_P^{-1} B_P   B_Z^T ] [ q  ]   [ rhs_flux + B_P^T D_P^{-1} rhs_P ]
    [ B_Z                          0     ] [-u_Z] = [ rhs_Z / tau                     ],

which is the symmetric positive definite flux Schur complement when Z is
empty (always for the L-type schemes) and that matrix bordered by the
rows of the zero-weight cells otherwise (static condensation,
Arnold-Brezzi 1985).
It is factorized once by a sparse LU with a symmetric ordering and
diagonal pivoting, and the factorization reused across solves; each
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

    ``reduced`` is the matrix that is factorized; ``zero_cells`` lists
    the cells of zero weight, whose ``-u`` are its trailing unknowns.
    ``d_inv`` is 1/(d_T |T|) (0 on those cells) and the lifts are
    B^T D^{-1} (flux by cells) and tau D^{-1} B (cells by flux), both
    with zero columns, respectively rows, on the zero-weight cells.
    """

    forms: AssembledForms
    weights: np.ndarray
    tau: float
    reduced: sps.csc_matrix = field(repr=False)
    zero_cells: np.ndarray = field(repr=False)
    d_inv: np.ndarray = field(repr=False)
    lift_flux: sps.csr_matrix = field(repr=False)
    lift_scalar: sps.csr_matrix = field(repr=False)

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
    # A weight whose reciprocal would overflow counts as zero.
    positive = scaled > 1.0 / np.finfo(float).max
    d_inv = np.zeros(nc)
    d_inv[positive] = 1.0 / scaled[positive]
    div = forms.divergence
    lift_scalar = (sps.diags(tau * d_inv) @ div).tocsr()
    lift_flux = (sps.diags(d_inv) @ div).T.tocsr()
    schur = forms.flux_mass + div.T @ lift_scalar
    zero_cells = np.flatnonzero(~positive)
    if zero_cells.size:
        div_zero = div[zero_cells]
        reduced = sps.bmat([[schur, div_zero.T], [div_zero, None]],
                           format="csc")
    else:
        reduced = schur.tocsc()
    weights.flags.writeable = False
    d_inv.flags.writeable = False
    zero_cells.flags.writeable = False
    return SaddleSystem(forms, weights, float(tau), reduced, zero_cells,
                        d_inv, lift_flux, lift_scalar)


def factorize(system: SaddleSystem) -> Factorization:
    """Compute the sparse LU decomposition of the reduced matrix.

    The ordering is symmetric and pivots stay on the diagonal wherever
    it is nonzero, which the symmetric positive definite flux block
    allows.
    """
    try:
        lu = spla.splu(system.reduced, permc_spec="MMD_AT_PLUS_A",
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
    zero = system.zero_cells
    rhs = rhs_flux + system.lift_flux @ rhs_scalar
    if zero.size:
        rhs = np.concatenate([rhs, rhs_scalar[zero] / system.tau])
    x = fact.lu.solve(rhs)
    q = x[:ne]
    u = system.d_inv * rhs_scalar - system.lift_scalar @ q
    if zero.size:
        u[zero] = -x[ne:]
    if not (np.isfinite(q).all() and np.isfinite(u).all()):
        raise SingularSystemError("direct solve produced non-finite values")
    return u, q


def residual_norm(system: SaddleSystem, u, q, rhs_scalar, rhs_flux) -> float:
    """Relative residual of the full block system for a candidate solution."""
    rhs = np.concatenate([rhs_scalar, rhs_flux])
    x = np.concatenate([u, q])
    r = system.matrix @ x - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))
