import numpy as np
import pytest

from degenmfem.nonlinearity import NonlinearitySpec
from degenmfem.theory import (
    accumulated_error_bound,
    c_alpha,
    contraction_factor,
    delta_closed_form,
    select_L_regularized,
    select_delta,
)
from oracle_utils import per_iteration_accumulation

SPEC = NonlinearitySpec(alpha=0.5)


def test_contraction_factor_values():
    assert contraction_factor(1.0, 1.0) == pytest.approx(0.5)
    assert contraction_factor(0.055, 0.05) == pytest.approx(
        1.0 / 1.00275, rel=1e-12)
    # delta -> 0+ gives no damping.
    assert contraction_factor(1e-15, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        contraction_factor(0.0, 1.0)
    with pytest.raises(ValueError):
        contraction_factor(0.1, -1.0)


def test_contraction_factor_monotone():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d1, d2 = np.sort(rng.uniform(1e-4, 10.0, size=2))
        t1, t2 = np.sort(rng.uniform(1e-4, 10.0, size=2))
        if d1 < d2:
            assert contraction_factor(d2, t1) < contraction_factor(d1, t1)
        if t1 < t2:
            assert contraction_factor(d1, t2) < contraction_factor(d1, t1)
        r = contraction_factor(d1, t1)
        assert 0.0 < r < 1.0


def test_c_alpha_values():
    assert c_alpha(SPEC) == pytest.approx(2.0 / 27.0, rel=1e-14)
    with pytest.raises(ValueError):
        c_alpha(NonlinearitySpec(alpha=1.0))


def test_accumulated_error_bound():
    # Exponent check: delta^((1+alpha)/(1-alpha)) = delta^3 for alpha=1/2.
    b = accumulated_error_bound(0.01, 1.0, SPEC)
    assert b == pytest.approx(2.0 * (2.0 / 27.0) * 1e-6, rel=1e-12)
    assert accumulated_error_bound(0.055, 0.05, SPEC) == pytest.approx(
        2.0 * (2.0 / 27.0) * 0.055**3 / 0.05, rel=1e-12)
    assert accumulated_error_bound(0.055, 0.05, SPEC) < 5e-4
    # Equivalent form through R/(1-R).
    r = contraction_factor(0.02, 0.3)
    direct = 2.0 * c_alpha(SPEC) * 0.02**4 * r / (1.0 - r)
    assert accumulated_error_bound(0.02, 0.3, SPEC) == pytest.approx(
        direct, rel=1e-12)
    assert accumulated_error_bound(1e-9, 0.05, SPEC) < 1e-20


def test_per_iteration_accumulation():
    r = contraction_factor(0.1, 0.5)
    assert per_iteration_accumulation(0.1, 0.5, SPEC) == pytest.approx(
        2.0 * (2.0 / 27.0) * r * 0.1**4, rel=1e-12)


# Worked selection rows; the full recorded table is exercised by the
# acceptance suite.
@pytest.mark.parametrize(
    "tol,tau,delta_approx,big_l",
    [
        (1e-3, 0.05, 0.055, 19),
        (1e-4, 0.025, 0.020, 50),
        (1e-5, 0.0125, 0.0075, 134),
        # 1/delta = 6.7e-10 rounds up to L = 1, not 0.
        (1e27, 1.0, 1.5e9, 1),
    ],
)
def test_select_delta_rows(tol, tau, delta_approx, big_l):
    delta, L = select_delta(tol, tau, SPEC)
    assert L == big_l
    assert delta == pytest.approx(1.0 / big_l)
    raw = delta_closed_form(tol, tau, SPEC)
    assert raw == pytest.approx((3.0 / 2.0) * (tau * tol) ** (1.0 / 3.0),
                                rel=1e-12)
    assert raw == pytest.approx(delta_approx, rel=0.05)


def test_select_delta_meets_bound():
    for tol in (1e-3, 1e-4, 1e-5):
        for tau in (0.05, 0.025, 0.0125):
            delta, L = select_delta(tol, tau, SPEC)
            assert accumulated_error_bound(delta, tau, SPEC) <= tol / 2
            # Rounding L up can only tighten the bound.
            raw = delta_closed_form(tol, tau, SPEC)
            assert delta <= raw * (1 + 1e-12)


def test_select_delta_validation():
    with pytest.raises(ValueError):
        select_delta(0.0, 0.05, SPEC)
    with pytest.raises(ValueError):
        select_delta(1e-3, 0.05, NonlinearitySpec(alpha=1.0))
    # Positive and finite, but tol * tau underflows to zero (alpha 1/2)
    # or delta is too small to invert (alpha near 0).
    with pytest.raises(ValueError):
        select_delta(1e-300, 1e-300, SPEC)
    with pytest.raises(ValueError):
        select_delta(1e-160, 1e-160, NonlinearitySpec(alpha=0.01))


# eps^(alpha-1) / 2 = 5e-10 at eps = 1e18 rounds up to 1, not 0.
@pytest.mark.parametrize("eps,big_l", [(1e-3, 16), (1e-4, 50), (1e-5, 159),
                                       (1e18, 1)])
def test_select_L_regularized(eps, big_l):
    assert select_L_regularized(eps, NonlinearitySpec(alpha=0.5)) == big_l


def test_select_L_regularized_lipschitz_case():
    assert select_L_regularized(0.37, NonlinearitySpec(alpha=1.0)) == 1
    with pytest.raises(ValueError):
        select_L_regularized(0.0, NonlinearitySpec(alpha=0.5))
