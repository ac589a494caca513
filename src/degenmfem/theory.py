"""Convergence-theory quantities for the Holder-adapted L-scheme.

For the fixed-point iteration with stabilization L = 1/delta, the error
at iteration i satisfies

    ||e_u^i||^2 + tau delta R ||e_q^i||^2
        <= R ||e_u^{i-1}||^2 + 2 C(alpha) R delta^(2/(1-alpha)),

with contraction factor R(delta, tau) = (1 + tau delta / C_Omega^2)^-1.
The additive term accumulates over the iterations of one time step to at
most

    2 C(alpha) delta^(2/(1-alpha)) R / (1 - R)
        = 2 C(alpha) C_Omega^2 delta^((1+alpha)/(1-alpha)) / tau,

so requiring this to stay below TOL/2 yields a closed form for delta
(and L = 1/delta) from the target tolerance and the time step.

The bound carries three more constants: the domain's Poincare constant
C_Omega, its measure |Omega| and the Holder constant L_b of b.  The
benchmark's only domain is the unit square and its only storage function
b(u) = max(u, 0)^alpha, for which all three are 1, so they are left out
of every formula below; only alpha, taken from the NonlinearitySpec the
quantity is about, remains.  For alpha = 1/2 the selection reduces to
delta = (3/2) (tau TOL)^(1/3).

All functions here are pure and thread-safe.
"""

import math
import sys

from degenmfem.nonlinearity import NonlinearitySpec


def contraction_factor(delta: float, tau: float) -> float:
    """Per-iteration contraction factor R = (1 + tau delta)^-1."""
    if not (0.0 < delta < math.inf and 0.0 < tau < math.inf):
        raise ValueError("delta and tau must be positive and finite")
    return 1.0 / (1.0 + tau * delta)


def c_alpha(spec: NonlinearitySpec) -> float:
    """The constant multiplying the accumulation term,

    C(alpha) = (1-alpha)/2 ((2 alpha)^alpha)^(2/(1-alpha))
               (1+alpha)^(-(1+alpha)/(1-alpha)).

    Only defined for alpha < 1 (the Lipschitz case has no accumulation).
    """
    a = spec.alpha
    if a >= 1.0:
        raise ValueError("c_alpha requires alpha in (0, 1)")
    return (
        0.5 * (1.0 - a)
        * ((2.0 * a) ** a) ** (2.0 / (1.0 - a))
        * (1.0 + a) ** (-(1.0 + a) / (1.0 - a))
    )


def accumulated_error_bound(delta: float, tau: float,
                            spec: NonlinearitySpec) -> float:
    """Total accumulated squared-error floor within one time step,

    2 C(alpha) delta^(2/(1-alpha)) R/(1-R)
        = 2 C(alpha) delta^((1+alpha)/(1-alpha)) / tau.
    """
    if not (0.0 < delta < math.inf and 0.0 < tau < math.inf):
        raise ValueError("delta and tau must be positive and finite")
    a = spec.alpha
    exponent = (1.0 + a) / (1.0 - a)
    return 2.0 * c_alpha(spec) * delta**exponent / tau


def per_iteration_accumulation(delta: float, tau: float,
                               spec: NonlinearitySpec) -> float:
    """The additive term 2 C(alpha) R delta^(2/(1-alpha)) of one iteration."""
    r = contraction_factor(delta, tau)
    return 2.0 * c_alpha(spec) * r * delta ** (2.0 / (1.0 - spec.alpha))


def _ceil_guarded(value: float) -> int:
    # Guard one-ulp overshoot so exact integers are not bumped up.
    return int(math.ceil(value - 1e-9 * max(1.0, abs(value))))


def delta_closed_form(tol: float, tau: float, spec: NonlinearitySpec) -> float:
    """Solve accumulated_error_bound(delta) = TOL/2 for delta,

    delta = (TOL tau / (4 C(alpha)))^((1-alpha)/(1+alpha)).
    """
    if not (0.0 < tol < math.inf and 0.0 < tau < math.inf):
        raise ValueError("tol and tau must be positive and finite")
    a = spec.alpha
    if a >= 1.0:
        raise ValueError("delta selection requires alpha in (0, 1); any "
                         "L >= L_b works in the Lipschitz case")
    return (tol * tau / (4.0 * c_alpha(spec))) ** ((1.0 - a) / (1.0 + a))


def select_delta(tol: float, tau: float, spec: NonlinearitySpec):
    """Choose (delta, L) so the accumulated error stays below TOL/2.

    Uses the closed form for delta, then rounds L = 1/delta up to the
    next integer, which restores the strict inequality; the returned
    delta is 1/L.  For alpha = 1/2 the closed form is
    delta = (3/2) (tau TOL)^(1/3).

    Returns
    -------
    (delta, L) : (float, int)
    """
    delta_raw = delta_closed_form(tol, tau, spec)
    if not delta_raw > 1.0 / sys.float_info.max:
        raise ValueError(f"tol = {tol:g} and tau = {tau:g} are too small: "
                         "1/delta overflows")
    big_l = _ceil_guarded(1.0 / delta_raw)
    return 1.0 / big_l, big_l


def select_L_regularized(epsilon: float, spec: NonlinearitySpec) -> int:
    """Stabilization for the regularized L-scheme, ceil(eps^(alpha-1) / 2).

    Half the Lipschitz constant of b_eps is the convergence threshold of
    the scheme, rounded up to an integer.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    return _ceil_guarded(0.5 * epsilon ** (spec.alpha - 1.0))
