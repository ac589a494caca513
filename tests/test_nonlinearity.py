import numpy as np
import pytest

from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps,
    b_eps_prime,
    b_value,
)
from oracle_utils import lipschitz_constants, regularization_gap_bound

HALF = NonlinearitySpec(alpha=0.5)


def _reg(kind, eps, alpha=0.5, shift=0.0):
    return RegularizationSpec(kind=kind, epsilon=eps, shift=shift,
                              base=NonlinearitySpec(alpha=alpha))


def test_b_values():
    assert b_value(HALF, -2.0) == 0.0
    assert b_value(HALF, 1.0) == 1.0
    assert b_value(NonlinearitySpec(alpha=0.37), 1.0) == 1.0
    assert b_value(HALF, 0.25) == pytest.approx(0.5)
    assert b_value(HALF, 0.0) == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        NonlinearitySpec(alpha=0.0)
    with pytest.raises(ValueError):
        NonlinearitySpec(alpha=1.5)
    with pytest.raises(ValueError):
        _reg("cubic", 1e-3)
    with pytest.raises(ValueError):
        _reg("linear", 0.0)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_b_eps_matches_b_outside_interval(kind):
    reg = _reg(kind, 1e-4)
    for u in (-1.0, -1e-9, 0.0, 1e-4, 2e-4, 0.5, 3.0):
        if 0.0 < u < reg.epsilon:
            continue
        assert b_eps(reg, u) == pytest.approx(b_value(HALF, u), abs=1e-15)


def test_linear_kind_continuity():
    reg = _reg("linear", 1e-4)
    # At eps the linear branch meets b: eps^(alpha-1) * eps = eps^alpha.
    assert b_eps(reg, 1e-4) == pytest.approx(0.01)
    assert abs(b_eps(reg, 1e-4 - 1e-12) - 0.01) < 1e-8
    assert abs(b_eps(reg, 1e-12)) < 1e-8


def test_quadratic_kind_c1_at_eps():
    reg = _reg("quadratic", 1e-4)
    # Derivative limits from both sides equal alpha * eps^(alpha-1) = 50.
    h = 1e-12
    left = (b_eps(reg, 1e-4) - b_eps(reg, 1e-4 - h)) / h
    right = (b_eps(reg, 1e-4 + h) - b_eps(reg, 1e-4)) / h
    assert left == pytest.approx(50.0, rel=1e-3)
    assert right == pytest.approx(50.0, rel=1e-3)
    assert b_eps_prime(reg, 1e-4) == pytest.approx(50.0)
    assert b_eps(reg, 1e-4) == pytest.approx(0.01)


def test_linear_kind_derivative_conventions():
    reg = _reg("linear", 1e-4)
    inner = 1e-4 ** (-0.5)
    assert b_eps_prime(reg, 0.0) == pytest.approx(inner)    # right limit
    assert b_eps_prime(reg, 1e-4) == pytest.approx(inner)   # left limit
    assert b_eps_prime(reg, -1e-9) == 0.0
    assert b_eps_prime(reg, 4e-4) == pytest.approx(0.5 * (4e-4) ** (-0.5))


def test_sup_gap_linear():
    # sup of b - b_eps over (0, eps) for alpha = 0.5, eps = 1e-4:
    # closed form (1-alpha) alpha^(alpha/(1-alpha)) eps^alpha = 0.0025,
    # cross-checked by a fine grid scan.
    reg = _reg("linear", 1e-4)
    assert regularization_gap_bound(reg) == pytest.approx(0.0025)
    grid = np.linspace(0.0, 1e-4, 200001)
    gap = b_value(HALF, grid) - b_eps(reg, grid)
    assert gap.max() == pytest.approx(0.0025, rel=1e-6)
    assert gap.min() >= -1e-15


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
def test_gap_bound_on_grid(kind, eps):
    reg = _reg(kind, eps)
    bound = regularization_gap_bound(reg)
    grid = np.concatenate([
        np.linspace(-1.0, 2.0, 20001),
        np.linspace(0.0, eps, 20001),
    ])
    gap = b_value(HALF, grid) - b_eps(reg, grid)
    assert gap.min() >= -1e-15
    assert gap.max() <= bound + 1e-15


def test_lipschitz_constants():
    assert lipschitz_constants(_reg("linear", 1e-4))[0] == pytest.approx(100.0)
    assert lipschitz_constants(_reg("linear", 1e-3))[0] == pytest.approx(31.6228,
                                                                         rel=1e-4)
    assert lipschitz_constants(_reg("linear", 0.37, alpha=1.0))[0] == 1.0
    # The quadratic kind is steepest at 0+, slope (2-alpha) eps^(alpha-1).
    assert lipschitz_constants(_reg("quadratic", 1e-4))[0] == pytest.approx(150.0)
    assert lipschitz_constants(_reg("quadratic", 0.37, alpha=1.0))[0] == 1.0
    # Derivative constants: alpha (1-alpha) eps^(alpha-2) for the linear
    # kind, 2 (1-alpha) eps^(alpha-2) for the quadratic one.
    l_lin = lipschitz_constants(_reg("linear", 1e-4))[1]
    assert l_lin == pytest.approx(0.25 * 1e-4 ** (-1.5))
    l_quad = lipschitz_constants(_reg("quadratic", 1e-4))[1]
    assert l_quad == pytest.approx(1e-4 ** (-1.5))


def test_quadratic_derivative_constant_is_max_slope():
    # b'_eps jumps at u = 0 for both kinds; the constant bounds the slope
    # of the smooth pieces, attained inside (0, eps) for the quadratic kind.
    reg = _reg("quadratic", 1e-3)
    _, l_prime = lipschitz_constants(reg)
    grid = np.linspace(1e-9, 5e-3, 100001)
    slopes = np.diff(b_eps_prime(reg, grid)) / np.diff(grid)
    assert np.abs(slopes).max() <= l_prime * (1 + 1e-6)
    assert np.abs(slopes).max() >= 0.9 * l_prime


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("shift", [0.0, 1e-3])
def test_monotonicity_random_pairs(kind, shift):
    reg = _reg(kind, 1e-4, shift=shift)
    rng = np.random.default_rng(42)
    for _ in range(200):
        u, v = np.sort(rng.uniform(-2.0, 2.0, size=2) * 10.0 ** rng.integers(-6, 1))
        assert b_value(HALF, u) <= b_value(HALF, v) + 1e-15
        assert b_eps(reg, u) <= b_eps(reg, v) + 1e-15


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.0])
def test_holder_property_random_pairs(alpha):
    spec = NonlinearitySpec(alpha=alpha)
    rng = np.random.default_rng(1)
    for _ in range(300):
        u, v = rng.uniform(-3.0, 3.0, size=2) * 10.0 ** rng.integers(-8, 2)
        lhs = abs(b_value(spec, u) - b_value(spec, v))
        rhs = abs(u - v) ** alpha
        assert lhs <= rhs * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("shift", [0.0, 0.01])
def test_derivative_matches_finite_differences(kind, shift):
    reg = _reg(kind, 1e-3, shift=shift)
    rng = np.random.default_rng(5)
    samples = rng.uniform(-0.5, 1.5, size=400)
    eps = reg.epsilon
    h = 1e-9
    for u in samples:
        if min(abs(u), abs(u - eps)) < 10 * h:
            continue  # away from the kink points
        fd = (b_eps(reg, u + h) - b_eps(reg, u - h)) / (2 * h)
        exact = b_eps_prime(reg, u)
        assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


def test_shift_raises_derivative_floor():
    reg = _reg("linear", 1e-4, shift=0.05)
    grid = np.linspace(-2.0, 2.0, 10001)
    assert np.min(b_eps_prime(reg, grid)) >= 0.05 - 1e-15
    np.testing.assert_allclose(
        b_eps(reg, grid),
        b_eps(_reg("linear", 1e-4), grid) + 0.05 * grid,
        atol=1e-15,
    )


def test_alpha_one_reduces_to_identity_on_positives():
    for kind in ("linear", "quadratic"):
        reg = _reg(kind, 1e-3, alpha=1.0)
        grid = np.linspace(-1.0, 2.0, 1001)
        np.testing.assert_array_equal(b_eps(reg, grid), np.maximum(grid, 0.0))
        expected = np.where(grid >= 0.0, 1.0, 0.0)
        np.testing.assert_array_equal(b_eps_prime(reg, grid), expected)
