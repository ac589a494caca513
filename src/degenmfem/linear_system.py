"""Assembly and direct solution of the saddle-point system.

Every iteration of every scheme reduces to the block system

    [ D     tau B ] [u]   [rhs_scalar]
    [ -B^T  M     ] [q] = [rhs_flux  ],

with D = diag(d_T |T|) for per-cell linearization weights d_T >= 0
(the constant L for the L-type schemes, b'_eps(u_T) for Newton), the
divergence matrix B and the flux mass M from the assembled forms.  The
matrix is nonsingular whenever the weights are nonnegative and tau > 0
since M is symmetric positive definite and B has full row rank.

Systems are factorized once with a sparse direct LU decomposition and
the factorization reused across solves; each factorization keeps the
system it was built from, so L-type schemes keep one factorization for a
whole run (the step loop rejects one built for another (L, tau)) while
Newton must refactorize every iteration.

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
    """Immutable assembled block system (right-hand sides supplied per solve)."""

    forms: AssembledForms
    weights: np.ndarray
    tau: float
    matrix: sps.csc_matrix

    @property
    def num_cells(self) -> int:
        return self.forms.num_cells

    @property
    def num_edges(self) -> int:
        return self.forms.num_edges


@dataclass(frozen=True)
class Factorization:
    """Sparse LU factors of a system, which they stay tied to."""

    lu: object = field(repr=False)
    system: SaddleSystem = field(repr=False)


def assemble(forms: AssembledForms, weights, tau: float) -> SaddleSystem:
    """Assemble the saddle matrix for per-cell weights d_T and step tau.

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

    scalar_block = sps.diags(weights * forms.scalar_mass)
    matrix = sps.bmat(
        [
            [scalar_block, tau * forms.divergence],
            [-forms.divergence.T, forms.flux_mass],
        ],
        format="csc",
    )
    weights.flags.writeable = False
    return SaddleSystem(forms, weights, float(tau), matrix)


def factorize(system: SaddleSystem) -> Factorization:
    """Compute the sparse LU decomposition of the full block matrix."""
    try:
        lu = spla.splu(system.matrix)
    except RuntimeError as exc:
        raise SingularSystemError(str(exc)) from exc
    return Factorization(lu, system)


def solve(fact: Factorization, rhs_scalar, rhs_flux):
    """Solve for (u, q) given per-cell and per-edge right-hand sides."""
    nc, ne = fact.system.num_cells, fact.system.num_edges
    rhs_scalar = np.asarray(rhs_scalar, dtype=float)
    rhs_flux = np.asarray(rhs_flux, dtype=float)
    if rhs_scalar.shape != (nc,):
        raise ValueError(f"rhs_scalar must have shape ({nc},)")
    if rhs_flux.shape != (ne,):
        raise ValueError(f"rhs_flux must have shape ({ne},)")
    x = fact.lu.solve(np.concatenate([rhs_scalar, rhs_flux]))
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("direct solve produced non-finite values")
    return x[:nc], x[nc:]


def residual_norm(system: SaddleSystem, u, q, rhs_scalar, rhs_flux) -> float:
    """Relative residual of the full block system for a candidate solution."""
    rhs = np.concatenate([rhs_scalar, rhs_flux])
    x = np.concatenate([u, q])
    r = system.matrix @ x - rhs
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(r) / (denom if denom > 0.0 else 1.0))
