"""The Holder-continuous storage nonlinearity and its regularizations.

The base nonlinearity is the power law  b(u) = max(u, 0)^alpha  with
alpha in (0, 1]; it is monotone increasing, b(0) = 0, and Holder
continuous with constant 1.  For alpha < 1 its derivative blows up at
0+, which is what the regularizations remove: on (0, eps) the function
is replaced by a linear or a quadratic polynomial that matches b at the
interval ends (the quadratic one also matches b' at eps), making b_eps
Lipschitz with constant eps^(alpha-1).

An optional shift perturbation adds  s*u  to the regularized function
(and s to its derivative) so that b'_eps >= s everywhere; it is off by
default.

All functions accept scalars or numpy arrays and are pure, hence
thread-safe.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NonlinearitySpec:
    """Power-law nonlinearity b(u) = max(u, 0)^alpha.

    alpha : Holder exponent in (0, 1]; alpha = 1 is the Lipschitz case.
        The Holder constant, |b(u)-b(v)| <= |u-v|^alpha, is 1 for every
        alpha.
    """

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class RegularizationSpec:
    """Lipschitz regularization of a power-law nonlinearity on (0, eps).

    kind : "linear" or "quadratic"
    epsilon : regularization width, > 0
    shift : perturbation weight s >= 0; 0 disables the shift
    base : the nonlinearity being regularized
    """

    kind: str
    epsilon: float
    base: NonlinearitySpec
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValueError(f"kind must be 'linear' or 'quadratic', got {self.kind!r}")
        if self.epsilon is None or not 0.0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.shift < np.inf:
            raise ValueError(f"shift must be finite and >= 0, got {self.shift}")


def b_value(spec: NonlinearitySpec, u):
    """Evaluate b(u) = max(u, 0)^alpha."""
    return np.maximum(u, 0.0) ** spec.alpha


def b_eps(spec: RegularizationSpec, u):
    """Evaluate the regularized nonlinearity b_eps (plus shift if set)."""
    alpha, eps = spec.base.alpha, spec.epsilon
    u = np.asarray(u, dtype=float)
    pos = np.maximum(u, 0.0)
    outside = pos**alpha
    if spec.kind == "linear":
        inside = eps ** (alpha - 1.0) * u
    else:
        inside = (alpha - 1.0) * eps ** (alpha - 2.0) * u * u \
            + (2.0 - alpha) * eps ** (alpha - 1.0) * u
    out = np.where((u > 0.0) & (u < eps), inside, outside)
    if spec.shift:
        out = out + spec.shift * u
    return out if out.ndim else float(out)


def b_eps_prime(spec: RegularizationSpec, u):
    """Evaluate the derivative of the regularized nonlinearity.

    At the kinks of the linear kind the right limit is used at 0 and the
    left limit at eps (a measure-zero convention that keeps Newton
    assembly deterministic); the quadratic kind is C^1 at eps.
    """
    alpha, eps = spec.base.alpha, spec.epsilon
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        outer = np.where(u > 0.0, alpha * np.maximum(u, eps) ** (alpha - 1.0), 0.0)
    if spec.kind == "linear":
        inside = np.full_like(u, eps ** (alpha - 1.0))
        inner_region = (u >= 0.0) & (u <= eps)
    else:
        inside = 2.0 * (alpha - 1.0) * eps ** (alpha - 2.0) * u \
            + (2.0 - alpha) * eps ** (alpha - 1.0)
        inner_region = (u >= 0.0) & (u < eps)
    out = np.where(inner_region, inside, outer)
    out = np.where(u < 0.0, 0.0, out)
    if spec.shift:
        out = out + spec.shift
    return out if out.ndim else float(out)
