import functools
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import degenmfem.schemes as schemes
from degenmfem.fem import assemble_forms, l2_norm_scalar
from degenmfem.linear_system import SingularSystemError, assemble, factorize
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import NonlinearitySpec, RegularizationSpec
from degenmfem.schemes import (
    IterationReport,
    SchemeConfig,
    StoppingCriterion,
    hl_iterate,
    linearized_iterate,
    mass_balance_residual,
    newton_iterate,
    regularized_l_iterate,
    run_time_series,
    total_iterations,
)
from oracle_utils import record_fluxes, theorem_bound_monitor

LIPSCHITZ = NonlinearitySpec(alpha=1.0)
HOLDER = NonlinearitySpec(alpha=0.5)


@pytest.fixture(scope="module")
def forms():
    return assemble_forms(build_structured_unit_square(3))


def _manufactured_linear_step(forms, tau=0.4, seed=0):
    """Exact discrete solution of one step with b = identity on positives.

    Picks a random positive scalar field u*, derives the compatible flux
    from the discrete flux equation and the source from the discrete
    balance, so (u*, q*) solves the step exactly.
    """
    rng = np.random.default_rng(seed)
    u_star = rng.uniform(0.5, 1.5, size=forms.num_cells)
    u_prev = rng.uniform(0.5, 1.5, size=forms.num_cells)
    q_star = spla.spsolve(forms.flux_mass.tocsc(),
                          forms.divergence.T @ u_star
                          + forms.dirichlet_functional)
    f_n = ((u_star - u_prev) + tau * (forms.divergence @ q_star)
           / forms.scalar_mass) / tau
    return u_star, q_star, u_prev, f_n


def _reference_stop(u_ref, tol=1e-10):
    return StoppingCriterion(mode="against_reference", tol=tol,
                             reference=u_ref)


def test_config_validation():
    stop = StoppingCriterion(mode="increment", tol=1e-8)
    reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=HOLDER)
    with pytest.raises(ValueError):
        SchemeConfig(kind="hl", tau=0.1, stopping=stop, nonlinearity=HOLDER,
                     regularization=reg, L=1.0)  # hl takes no epsilon
    with pytest.raises(ValueError):
        SchemeConfig(kind="hl", tau=0.1, stopping=stop, nonlinearity=HOLDER)
    with pytest.raises(ValueError):
        SchemeConfig(kind="lreg", tau=0.1, stopping=stop, regularization=reg)
    with pytest.raises(ValueError):
        SchemeConfig(kind="newton", tau=0.1, stopping=stop,
                     regularization=reg, L=2.0)  # newton takes no L
    with pytest.raises(ValueError):
        SchemeConfig(kind="hl", tau=0.1, stopping=stop, nonlinearity=HOLDER,
                     L=1.0, max_iterations=0)  # every scheme needs a solve
    with pytest.raises(ValueError):
        SchemeConfig(kind="picard", tau=0.1, stopping=stop)
    with pytest.raises(ValueError):
        StoppingCriterion(mode="anything", tol=1e-8)
    with pytest.raises(ValueError):
        IterationReport(iterations_used=3, converged=True,
                        failure_reason="divergence")


def test_newton_linear_problem_one_iteration(forms):
    # Newton on a linear storage term solves the step in one shot.
    tau = 0.4
    u_star, q_star, u_prev, f_n = _manufactured_linear_step(forms)
    reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=LIPSCHITZ)
    config = SchemeConfig(kind="newton", tau=tau,
                          stopping=_reference_stop(u_star),
                          regularization=reg)
    u, q, report = newton_iterate(forms, config, u_prev, u_prev, f_n)
    assert report.converged
    assert report.iterations_used == 1
    np.testing.assert_allclose(u, u_star, atol=1e-11)
    np.testing.assert_allclose(q, q_star, atol=1e-10)


def test_lipschitz_l_scheme_contracts_and_converges(forms):
    # With b Lipschitz and L >= L_b the iteration is a contraction, so it
    # converges unconditionally; errors must decay monotonically.
    tau = 5.0  # deliberately large time step
    u_star, q_star, u_prev, f_n = _manufactured_linear_step(forms, tau=tau)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=_reference_stop(u_star, tol=1e-9),
                          nonlinearity=LIPSCHITZ, L=1.0)
    u, q, report = hl_iterate(forms, config, np.maximum(u_prev, 0.0),
                              u_prev, f_n)
    assert report.converged
    hist = report.error_history
    assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))
    np.testing.assert_allclose(u, u_star, atol=1e-8)
    np.testing.assert_allclose(q, q_star, atol=1e-7)


def test_hl_equals_lreg_for_lipschitz_nonlinearity(forms):
    # alpha = 1 makes b_eps identical to b, so the two L-type schemes must
    # produce bit-identical trajectories for the same L.
    tau = 0.4
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=4)
    stop = _reference_stop(u_star, tol=1e-9)
    config_hl = SchemeConfig(kind="hl", tau=tau, stopping=stop,
                             nonlinearity=LIPSCHITZ, L=1.0)
    reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=LIPSCHITZ)
    config_lreg = SchemeConfig(kind="lreg", tau=tau, stopping=stop,
                               regularization=reg, L=1.0)
    u1, q1, rep1 = hl_iterate(forms, config_hl, np.maximum(u_prev, 0.0),
                              u_prev, f_n)
    u2, q2, rep2 = regularized_l_iterate(
        forms, config_lreg, np.maximum(u_prev, 0.0), u_prev, f_n)
    assert rep1.iterations_used == rep2.iterations_used
    assert np.array_equal(u1, u2)
    assert np.array_equal(q1, q2)
    assert rep1.error_history == rep2.error_history


def test_flux_formed_once_matches_flux_every_iteration(forms, monkeypatch):
    # Stopping on u alone forms q once, for the final iterate.  Forming q
    # from every solve's unknowns, as the error-bound criterion does,
    # changes nothing, and the last one is the step's q to the bit.
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=5)
    config = SchemeConfig(kind="hl", tau=0.4, nonlinearity=LIPSCHITZ, L=2.0,
                          stopping=_reference_stop(u_star, tol=1e-9))

    def step():
        return hl_iterate(forms, config, np.maximum(u_prev, 0.0), u_prev, f_n)

    u1, q1, rep1 = step()
    fluxes = record_fluxes(monkeypatch)
    u2, q2, rep2 = step()
    assert rep1.converged and rep1.iterations_used > 1
    assert rep1.error_history == rep2.error_history
    assert len(fluxes) == rep2.iterations_used
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(q1, fluxes[-1])


def test_exact_initial_guess_stops_immediately(forms):
    tau = 0.4
    u_star, q_star, u_prev, f_n = _manufactured_linear_step(forms, seed=7)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=_reference_stop(u_star, tol=1e-6),
                          nonlinearity=LIPSCHITZ, L=1.0)
    u, q, report = hl_iterate(forms, config, np.maximum(u_prev, 0.0),
                              u_star, f_n)
    assert report.converged
    assert report.iterations_used <= 1


def test_zero_fixed_point(forms):
    config = SchemeConfig(
        kind="hl", tau=1.0,
        stopping=_reference_stop(np.zeros(forms.num_cells), tol=1e-12),
        nonlinearity=HOLDER, L=1.0)
    zero = np.zeros(forms.num_cells)
    u, q, report = hl_iterate(forms, config, zero, zero, zero)
    assert report.converged and report.iterations_used == 1
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(q, 0.0)


def test_increment_stopping_mode(forms):
    tau = 0.4
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=9)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=StoppingCriterion(mode="increment", tol=1e-10),
                          nonlinearity=LIPSCHITZ, L=1.0)
    u, q, report = hl_iterate(forms, config, np.maximum(u_prev, 0.0),
                              u_prev, f_n)
    assert report.converged
    assert report.iterations_used >= 2  # increments exist from the 2nd solve
    np.testing.assert_allclose(u, u_star, atol=1e-8)
    assert all(e < 1e6 for e in report.error_history)


def _eager_rule(cheap):
    """The increment rule on flux norms at every iteration, with both
    relative norms computed every time: the rule before the cell-vector
    screen and the lazy relative norms.  A constant weight's increments
    from cell vectors, as the screen forms them, go to ``cheap``."""

    def update(self, u_new, q_new):
        # A constant weight's solve returns its unknowns x in q's place;
        # its right-hand side is x[:num_cells].
        x_old, x_new = self.x, q_new
        if self.fact is not None:
            q_new = schemes.flux(self.fact, x_new)
            self.x = x_new
        u_old, q_old = self.u, self.q
        self.u, self.q = u_new, q_new
        du = l2_norm_scalar(self.mesh, u_new - u_old)
        if q_old is None:
            return False, not np.all(np.isfinite(u_new))
        if self.fact is not None:
            system, nc = self.fact.system, u_new.size
            energy = ((u_new - u_old) @ (x_new[:nc] - x_old[:nc])
                      - system.weights[0] * du * du) / system.tau
            cheap.append(du + np.sqrt(max(energy, 0.0)))
        dq = schemes.l2_norm_flux(self.forms, q_new - q_old)
        abs_sum = du + dq
        self.error_history.append(abs_sum)
        if not np.isfinite(abs_sum) or abs_sum > schemes.DIVERGENCE_THRESHOLD:
            return False, True
        rel = (du / l2_norm_scalar(self.mesh, u_new)
               + dq / schemes.l2_norm_flux(self.forms, q_new))
        return abs_sum < self.crit.tol and rel < self.crit.tol, False

    return update


def _same_outcome(a, b):
    (u_a, q_a, rep_a), (u_b, q_b, rep_b) = a, b
    assert (rep_a.iterations_used, rep_a.converged, rep_a.failure_reason) \
        == (rep_b.iterations_used, rep_b.converged, rep_b.failure_reason)
    assert u_a.tobytes() == u_b.tobytes()
    assert q_a.tobytes() == q_b.tobytes()


@pytest.mark.parametrize("kind", ["hl", "newton"])
def test_increment_norms_only_below_tol(forms, monkeypatch, kind):
    # Decisions, counts, u and q are the eager rule's.  Newton's flux
    # norm runs once per iteration from the second solve on, its relative
    # norms only below TOL, and it records the eager increments.  A
    # constant weight takes its increments from cell vectors and forms
    # flux norms only in the screen band: there it records the eager
    # increments, and elsewhere the cheap ones, within 1e-3 TOL of them.
    tol = 1e-10
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=9)
    stop = StoppingCriterion(mode="increment", tol=tol)
    if kind == "hl":
        config = SchemeConfig(kind="hl", tau=0.4, stopping=stop,
                              nonlinearity=HOLDER, L=2.0)
    else:
        reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=HOLDER)
        config = SchemeConfig(kind="newton", tau=0.4, stopping=stop,
                              regularization=reg)
    storage = config.storage_function()(u_prev)

    def step():
        return linearized_iterate(forms, config, storage, u_prev, f_n)

    cheap = []
    with monkeypatch.context() as patch:
        patch.setattr(schemes._Stopping, "update", _eager_rule(cheap))
        eager = step()
    # The flux norms by iteration, counted through the solves.
    solves, calls = [], []
    solve, flux_norm = schemes.solve, schemes.l2_norm_flux
    monkeypatch.setattr(schemes, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(schemes, "l2_norm_flux", lambda *args: calls.append(
        len(solves)) or flux_norm(*args))
    screened = step()
    _same_outcome(screened, eager)
    report, exact = screened[2].error_history, eager[2].error_history
    assert screened[2].converged
    if kind == "hl":
        band = [c < tol * (1 + schemes.SCREEN_MARGIN) for c in cheap]
        assert any(band) and not all(band)
        for recorded, e, in_band in zip(report, exact, band, strict=True):
            assert recorded == e if in_band else abs(recorded - e) < 1e-3 * tol
    else:
        assert report == exact
        band = [True] * len(exact)
    # Entry k of the history is the increment of solve k + 2.
    assert Counter(calls) == {k + 2: 1 + (e < tol)
                              for k, e in enumerate(exact) if band[k]}


@pytest.mark.parametrize("n", [1, 2, 3, 5, 11])
def test_flux_increment_from_cell_vectors(n):
    # For a constant weight L, L |T| u + tau B q = rhs and M q - B^T u = g
    # give ||q_i - q_{i-1}||_M^2 = (du . drhs - L ||du||^2) / tau from the
    # solve's cell vectors.  Odd n has phantom macro cells.
    forms = assemble_forms(build_structured_unit_square(n), -0.5)
    rng = np.random.default_rng(70 + n)
    big_l, tau = rng.uniform(1.0, 200.0), rng.uniform(0.01, 0.1)
    fact = factorize(assemble(forms, big_l, tau))
    areas = forms.scalar_mass
    rhs_old, rhs_new = areas * rng.normal(size=(2, forms.num_cells))
    (u_old, x_old), (u_new, x_new) = (schemes.solve(fact, r)
                                      for r in (rhs_old, rhs_new))
    # The solve returns its unknowns x = [rhs; lambda_s; 0; 1] in q's
    # place, and ``flux`` forms q from them.
    np.testing.assert_array_equal(x_new[:forms.num_cells], rhs_new)
    q_old, q_new = (schemes.flux(fact, x) for x in (x_old, x_new))
    np.testing.assert_allclose(forms.divergence @ q_new,
                               (rhs_new - big_l * areas * u_new) / tau,
                               rtol=0, atol=1e-10 * np.abs(rhs_new).max() / tau)
    du_vec = u_new - u_old
    du = l2_norm_scalar(forms.mesh, du_vec)
    exact = schemes.l2_norm_flux(forms, q_new - q_old)
    energy = (du_vec @ (rhs_new - rhs_old) - big_l * du * du) / tau
    assert energy == pytest.approx(exact ** 2, rel=1e-9)
    tracker = schemes._Stopping(
        forms, StoppingCriterion(mode="increment", tol=1.0), fact)
    assert tracker._cheap_dq(du_vec, du, rhs_new - rhs_old) \
        == pytest.approx(exact, rel=1e-9)


@functools.cache
def _forms(n):
    return assemble_forms(build_structured_unit_square(n))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       big_l=st.floats(0.05, 20.0), tau=st.floats(0.01, 1.0),
       tol_exp=st.floats(-13.0, -4.0),
       cut=st.none() | st.tuples(st.integers(0, 8), st.floats(-1e-9, 1e-9)))
def test_screened_increment_rule_matches_eager(n, seed, big_l, tau, tol_exp,
                                               cut):
    # The screened rule decides as the eager exact rule, to the bits of
    # u and q, for converging, capped and diverging steps.  ``cut`` puts
    # the divergence threshold within 1e-9 of one eager increment, where
    # only the exact increment can decide.
    forms = _forms(n)
    _, _, u_prev, f_n = _manufactured_linear_step(forms, tau, seed)
    config = SchemeConfig(
        kind="hl", tau=tau, nonlinearity=HOLDER, L=big_l, max_iterations=400,
        stopping=StoppingCriterion(mode="increment", tol=10.0 ** tol_exp))
    storage = config.storage_function()(u_prev)

    def step(rule, threshold=schemes.DIVERGENCE_THRESHOLD):
        with pytest.MonkeyPatch.context() as patch:
            if rule is not None:
                patch.setattr(schemes._Stopping, "update", rule)
            patch.setattr(schemes, "DIVERGENCE_THRESHOLD", threshold)
            return linearized_iterate(forms, config, storage, u_prev, f_n)

    threshold = schemes.DIVERGENCE_THRESHOLD
    if cut is not None:
        history = step(_eager_rule([]))[2].error_history
        if history:
            threshold = history[min(cut[0], len(history) - 1)] * (1 + cut[1])
    _same_outcome(step(None, threshold), step(_eager_rule([]), threshold))


def test_max_iterations_reported(forms):
    tau = 0.05
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=12)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=_reference_stop(u_star, tol=1e-14),
                          nonlinearity=HOLDER, L=40.0, max_iterations=3)
    _, _, report = hl_iterate(forms, config, np.maximum(u_prev, 0.0) ** 0.5,
                              u_prev, f_n)
    assert not report.converged
    assert report.failure_reason == "max_iterations"
    assert report.iterations_used == 3


def test_divergence_reported(forms, monkeypatch):
    # The slow Holder iteration keeps the error above a (deliberately
    # tiny) divergence threshold, which must be flagged, not looped on.
    monkeypatch.setattr(schemes, "DIVERGENCE_THRESHOLD", 1e-12)
    tau = 0.4
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=3)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=_reference_stop(u_star, tol=1e-13),
                          nonlinearity=HOLDER, L=40.0)
    _, _, report = hl_iterate(forms, config, np.maximum(u_prev, 0.0) ** 0.5,
                              u_prev, f_n)
    assert not report.converged
    assert report.failure_reason == "divergence"
    assert report.iterations_used == 1


def _holder_config(kind, stopping, tau=0.4):
    """A config of each scheme kind on the Holder nonlinearity."""
    if kind == "hl":
        return SchemeConfig(kind="hl", tau=tau, stopping=stopping,
                            nonlinearity=HOLDER, L=40.0)
    reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=HOLDER)
    return SchemeConfig(kind=kind, tau=tau, stopping=stopping,
                        regularization=reg,
                        L=40.0 if kind == "lreg" else None)


DRIVERS = {"hl": "hl_iterate", "lreg": "regularized_l_iterate",
           "newton": "newton_iterate"}


@pytest.mark.parametrize("kind,failing", [
    ("hl", "solve"), ("lreg", "solve"), ("newton", "solve"),
    ("newton", "factorize")])
def test_singular_system_reported(forms, monkeypatch, kind, failing):
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=5)
    config = _holder_config(kind, _reference_stop(u_star, tol=1e-9))

    def boom(*args, **kwargs):
        raise SingularSystemError("synthetic pivot failure")

    monkeypatch.setattr(schemes, failing, boom)
    driver = getattr(schemes, DRIVERS[kind])
    _, _, report = driver(forms, config, u_prev, u_prev, f_n)
    assert not report.converged
    assert report.failure_reason == "singular system"
    assert report.iterations_used == 1


@pytest.mark.parametrize("kind", schemes.SCHEME_KINDS)
def test_run_time_series_calls_driver_of_kind_per_step(forms, monkeypatch,
                                                       kind):
    # The series looks its driver up on the module at call time, once per
    # step; per-layer tracing counts steps through these names.  At this
    # tol every kind converges on both steps.
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=8)
    config = _holder_config(kind, StoppingCriterion(mode="against_reference",
                                                    tol=3e-2))
    calls = []

    def recorder(name):
        original = getattr(schemes, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args[1].kind))
            return original(*args, **kwargs)

        return wrapper

    for name in DRIVERS.values():
        monkeypatch.setattr(schemes, name, recorder(name))
    results = run_time_series(config, forms.mesh, forms, u_prev,
                              lambda tn, tp: f_n, 2,
                              references=[u_star] * 2)
    assert [r.report.converged for r in results] == [True, True]
    assert calls == [(DRIVERS[kind], kind)] * 2


def test_driver_names_are_the_config_driven_step(forms):
    # The config alone defines a step; Newton builds its own systems and
    # rejects a factorization instead of ignoring it.
    assert hl_iterate is regularized_l_iterate is newton_iterate \
        is linearized_iterate
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=8)
    stop = _reference_stop(u_star, tol=1e-9)
    fact = factorize(assemble(forms, 40.0, 0.4))
    with pytest.raises(ValueError, match="no factorization"):
        linearized_iterate(forms, _holder_config("newton", stop), u_prev,
                           u_prev, f_n, fact)


@pytest.mark.parametrize("n_steps", [0, -1])
def test_march_needs_a_step(forms, n_steps):
    # An empty series would read as converged.
    _, _, u_prev, f_n = _manufactured_linear_step(forms, seed=8)
    config = _holder_config("hl", StoppingCriterion(mode="increment",
                                                    tol=1e-8))
    with pytest.raises(ValueError):
        schemes.march(config, forms, u_prev, lambda tn, tp: f_n, n_steps)
    with pytest.raises(ValueError):
        run_time_series(config, forms.mesh, forms, u_prev,
                        lambda tn, tp: f_n, n_steps)


def test_march_refuses_short_references_before_a_solve(forms, monkeypatch):
    # A list shorter than the series would run the steps it covers and
    # then fail on its index; the march refuses it before the first step.
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=8)
    config = _holder_config("hl", StoppingCriterion(mode="against_reference",
                                                    tol=3e-2))
    solves, solve = [], schemes.solve
    monkeypatch.setattr(schemes, "solve",
                        lambda *args: solves.append(1) or solve(*args))
    with pytest.raises(ValueError, match="need 3 references, got 2"):
        schemes.march(config, forms, u_prev, lambda tn, tp: f_n, 3,
                      references=[u_star] * 2)
    with pytest.raises(ValueError, match="need 3 references, got 2"):
        run_time_series(config, forms.mesh, forms, u_prev,
                        lambda tn, tp: f_n, 3, references=[u_star] * 2)
    assert solves == []


def test_march_escalates_only_a_constant_l(forms):
    _, _, u_prev, f_n = _manufactured_linear_step(forms, seed=8)
    config = _holder_config("newton", StoppingCriterion(mode="increment",
                                                        tol=1e-8))
    with pytest.raises(ValueError):
        schemes.march(config, forms, u_prev, lambda tn, tp: f_n, 1,
                      escalations=1)


def test_run_time_series_zero_problem():
    # f = 0, u0 = 0, g_D = 0: every step converges immediately to zero.
    mesh = build_structured_unit_square(2)
    forms0 = assemble_forms(mesh, 0.0)
    zero = np.zeros(forms0.num_cells)
    config = SchemeConfig(
        kind="hl", tau=0.05,
        stopping=StoppingCriterion(mode="against_reference", tol=1e-12),
        nonlinearity=HOLDER, L=19.0)
    refs = [zero] * 10
    results = run_time_series(config, mesh, forms0, zero,
                              lambda tn, tp: zero, 10, references=refs)
    assert len(results) == 10  # tau = 0.05 over T = 0.5
    assert total_iterations(results) == 10
    for r in results:
        assert r.report.converged
        np.testing.assert_array_equal(r.u, 0.0)
        np.testing.assert_array_equal(r.q, 0.0)


def test_run_time_series_single_step_matches_direct_call(forms):
    tau = 0.4
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=21)
    config = SchemeConfig(kind="hl", tau=tau,
                          stopping=StoppingCriterion(mode="against_reference",
                                                     tol=1e-9),
                          nonlinearity=LIPSCHITZ, L=1.0)
    series = run_time_series(config, forms.mesh, forms, u_prev,
                             lambda tn, tp: f_n, 1,
                             references=[u_star])
    u_direct, q_direct, rep = hl_iterate(
        forms, SchemeConfig(kind="hl", tau=tau,
                            stopping=_reference_stop(u_star, 1e-9),
                            nonlinearity=LIPSCHITZ, L=1.0),
        np.maximum(u_prev, 0.0), u_prev, f_n)
    assert len(series) == 1
    assert np.array_equal(series[0].u, u_direct)
    assert np.array_equal(series[0].q, q_direct)
    assert series[0].report.iterations_used == rep.iterations_used


def test_run_time_series_aborts_on_failure(forms):
    u_star, _, u_prev, f_n = _manufactured_linear_step(forms, seed=30)
    config = SchemeConfig(kind="hl", tau=0.4,
                          stopping=StoppingCriterion(mode="against_reference",
                                                     tol=1e-14),
                          nonlinearity=HOLDER, L=40.0, max_iterations=2)
    refs = [u_star] * 5
    results = run_time_series(config, forms.mesh, forms, u_prev,
                              lambda tn, tp: f_n, 5, references=refs)
    assert len(results) == 1
    assert not results[0].report.converged


def test_mass_balance_residual_zero_for_exact_solution(forms):
    tau = 0.4
    u_star, q_star, u_prev, f_n = _manufactured_linear_step(forms, seed=2)
    res = mass_balance_residual(forms, np.maximum(u_star, 0.0),
                                np.maximum(u_prev, 0.0), q_star, tau, f_n)
    assert np.abs(res).max() < 1e-12


def test_theorem_bound_monitor_basics():
    delta, tau = 1.0 / 19.0, 0.05
    # Starting from the reference, both sides reduce to the accumulation
    # term and the bound holds trivially.
    ok = theorem_bound_monitor([0.0, 0.0], [0.0], delta, tau, HOLDER)
    assert ok == [True]
    # A genuinely contracted history passes ...
    hist_u = [0.05, 0.04, 0.032, 0.026]
    hist_q = [0.01, 0.008, 0.006]
    assert all(theorem_bound_monitor(hist_u, hist_q, delta, tau, HOLDER))
    # ... and scaling one iterate by 10 must trip the monitor.
    bad = list(hist_u)
    bad[2] *= 10.0
    assert not all(theorem_bound_monitor(bad, hist_q, delta, tau, HOLDER))
    with pytest.raises(ValueError):
        theorem_bound_monitor([0.1, 0.05], [0.1, 0.1], delta, tau, HOLDER)
