"""Acceptance suite: one test per acceptance criterion.

Criteria 2-5 and 8 run the production benchmark configuration (32x32
mesh); the shared reference solutions and the three scheme tables are
computed once per session, so the whole module takes several minutes.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Expected values frozen below are the previously recorded results this
build is meant to reproduce: the parameter-selection tables exactly, the
iteration totals within a factor-of-2 band (unreported discretization
details shift counts), and the convergence flags cell by cell.
The parameter table is reproduced exactly, with one misprinted row
corrected and documented at ``EXPECTED_PARAMS``.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from degenmfem.benchmark import (
    DEFAULT_SOLUTION,
    compute_reference,
    discretization_error,
    make_source_provider,
    results_to_csv,
    run_table,
    steps_for_tau,
)
from degenmfem.fem import (
    assemble_forms,
    l2_norm_scalar,
    project_scalar,
)
from degenmfem.linear_system import assemble, factorize, solve
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import (
    NonlinearitySpec,
    RegularizationSpec,
    b_eps,
    b_eps_prime,
    b_value,
    regularization_gap_bound,
)
from degenmfem.schemes import (
    SchemeConfig,
    StoppingCriterion,
    hl_iterate,
    mass_balance_residual,
    newton_iterate,
    regularized_l_iterate,
    run_time_series,
    theorem_bound_monitor,
    total_iterations,
)
from degenmfem.theory import (
    delta_closed_form,
    select_L_regularized,
    select_delta,
)
from oracle_utils import brute_force_flux_mass

MSOL = DEFAULT_SOLUTION
SPEC = MSOL.nonlinearity()
TAUS = (0.05, 0.025, 0.0125)

# This implementation's own n = 32 tables, recorded before the constant-L
# solve moved onto the condensed skeleton, and its references' iteration
# totals per tau.  Unlike the recorded paper values above, they hold to
# the byte: an optimisation must leave them unchanged.
PINNED_TABLES = Path(__file__).parent / "data"
PINNED_REFERENCE_ITERATIONS = {0.05: 7_267, 0.025: 24_677, 0.0125: 86_436}

# Expected (delta, L) selections per (tol, tau), and L per eps.
EXPECTED_PARAMS = {
    (1e-3, 0.05): (0.055, 19),
    (1e-3, 0.025): (0.044, 23),
    (1e-3, 0.0125): (0.035, 29),
    # Printed as (0.025, 40), a misprint: the documented rule gives
    # delta = 0.02565 (0.026 at two figures, like every other row) and
    # L = 39, and the recorded hl total 1204 matches L = 39 (1203 here)
    # rather than L = 38, 40 or 41 (1172, 1235, 1266).
    (1e-4, 0.05): (0.026, 39),
    (1e-4, 0.025): (0.020, 50),
    (1e-4, 0.0125): (0.016, 62),
    (1e-5, 0.05): (0.012, 84),
    (1e-5, 0.025): (0.0094, 106),
    (1e-5, 0.0125): (0.0075, 134),
}
EXPECTED_L_REGULARIZED = {1e-3: 16, 1e-4: 50, 1e-5: 159}

# Expected iteration totals per scheme over the (tol, eps) x tau grid;
# None marks a non-converged cell.
EXPECTED_NEWTON = {
    (1e-3, 1e-3): (17, 24, 47),
    (1e-3, 1e-4): (16, 27, None),
    (1e-3, 1e-5): (16, 27, None),
    (1e-4, 1e-3): (22, 41, None),
    (1e-4, 1e-4): (23, 48, None),
    (1e-4, 1e-5): (23, 46, None),
    (1e-5, 1e-3): (None, None, None),
    (1e-5, 1e-4): (31, 59, None),
    (1e-5, 1e-5): (31, 63, None),
}
EXPECTED_LREG = {
    (1e-3, 1e-3): (305, 777, 1937),
    (1e-3, 1e-4): (969, 2491, 6209),
    (1e-3, 1e-5): (3058, 7892, 19713),
    (1e-4, 1e-3): (479, None, None),
    (1e-4, 1e-4): (1505, 4058, 10920),
    (1e-4, 1e-5): (4751, 12873, 34829),
    (1e-5, 1e-3): (None, None, None),
    (1e-5, 1e-4): (2045, 5629, None),
    (1e-5, 1e-5): (6459, 17792, 49914),
}
EXPECTED_HL = {
    1e-3: (370, 1143, 3581),
    1e-4: (1204, 4049, 13530),
    1e-5: (3433, 11924, 42294),
}

# Cells that must report nc.  The newton set covers (tol=1e-5, eps=1e-3)
# at every step size plus the whole smallest-step column except
# (1e-3, 1e-3), which is recorded as converged (47 iterations) and is
# therefore asserted through the band check instead.
NEWTON_NC_CELLS = sorted(
    {(1e-5, 1e-3, tau) for tau in TAUS}
    | {(tol, eps, 0.0125)
       for tol in (1e-3, 1e-4, 1e-5)
       for eps in (1e-3, 1e-4, 1e-5)
       if (tol, eps) != (1e-3, 1e-3)}
)
LREG_NC_CELLS = sorted(
    {(1e-4, 1e-3, 0.025), (1e-4, 1e-3, 0.0125)}
    | {(1e-5, 1e-3, tau) for tau in TAUS}
)


def _criterion(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}"
          + (f"  ({detail})" if detail else ""))
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def _round2sig(x: float) -> float:
    return float(f"{x:.2g}")


@pytest.fixture(scope="module")
def bench():
    """Mesh, forms, references and all three tables at n = 32."""
    mesh = build_structured_unit_square(32)
    forms = assemble_forms(mesh, MSOL.boundary_value)
    references = {}
    for tau in TAUS:
        references[tau] = compute_reference(mesh, forms, tau,
                                            steps_for_tau(MSOL, tau))
    tables = {
        kind: run_table(kind, mesh, forms, references)
        for kind in ("newton", "lreg", "hl")
    }
    return {"mesh": mesh, "forms": forms, "references": references,
            "tables": tables}


def _cells(table):
    return {(r.tol, r.eps, r.tau): r for r in table}


def test_criterion_1_parameter_formulas():
    t0 = time.perf_counter()
    failures = []
    for (tol, tau), (delta_expected, l_expected) in EXPECTED_PARAMS.items():
        raw = delta_closed_form(tol, tau, SPEC)
        _, big_l = select_delta(tol, tau, SPEC)
        if _round2sig(raw) != delta_expected:
            failures.append(
                f"delta(tol={tol:g}, tau={tau:g}) = {raw:.6f} -> "
                f"{_round2sig(raw)}, expected {delta_expected}")
        if big_l != l_expected:
            failures.append(
                f"L(tol={tol:g}, tau={tau:g}) = {big_l}, expected {l_expected}")
    for eps, l_expected in EXPECTED_L_REGULARIZED.items():
        got = select_L_regularized(eps, SPEC)
        if got != l_expected:
            failures.append(f"L_reg(eps={eps:g}) = {got}, expected {l_expected}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _criterion(1, "parameter-formula reproduction", failures,
               f"runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_hl_robustness(bench):
    failures = []
    for key, row in _cells(bench["tables"]["hl"]).items():
        if not row.converged:
            failures.append(f"hl cell tol={key[0]:g}, tau={key[2]:g} "
                            f"did not converge")
    _criterion(2, "hl converges on the whole grid", failures,
               "9 (tol, tau) cells")


def test_criterion_3_iteration_count_bands(bench):
    failures = []
    checked = 0
    for kind, expected in (("newton", EXPECTED_NEWTON),
                           ("lreg", EXPECTED_LREG)):
        cells = _cells(bench["tables"][kind])
        for (tol, eps), totals in expected.items():
            for tau, total_expected in zip(TAUS, totals):
                if total_expected is None:
                    continue
                checked += 1
                row = cells[(tol, eps, tau)]
                label = f"{kind} tol={tol:g} eps={eps:g} tau={tau:g}"
                if not row.converged:
                    failures.append(f"{label}: nc, expected ~{total_expected}")
                elif not (total_expected / 2 <= row.total_iterations
                          <= 2 * total_expected):
                    failures.append(
                        f"{label}: {row.total_iterations} outside band "
                        f"[{total_expected / 2:.0f}, {2 * total_expected:.0f}]")
    cells = _cells(bench["tables"]["hl"])
    for tol, totals in EXPECTED_HL.items():
        for tau, total_expected in zip(TAUS, totals):
            checked += 1
            row = cells[(tol, None, tau)]
            if not row.converged or not (
                    total_expected / 2 <= row.total_iterations
                    <= 2 * total_expected):
                failures.append(
                    f"hl tol={tol:g} tau={tau:g}: "
                    f"{row.total_iterations if row.converged else 'nc'} "
                    f"outside band around {total_expected}")
    _criterion(3, "iteration totals within factor-2 bands", failures,
               f"{checked} converged cells checked")


def test_criterion_4_failure_pattern(bench):
    failures = []
    newton_cells = _cells(bench["tables"]["newton"])
    for tol, eps, tau in NEWTON_NC_CELLS:
        row = newton_cells[(tol, eps, tau)]
        if row.converged:
            failures.append(
                f"newton tol={tol:g} eps={eps:g} tau={tau:g} converged "
                f"({row.total_iterations} its), expected nc")
    lreg_cells = _cells(bench["tables"]["lreg"])
    for tol, eps, tau in LREG_NC_CELLS:
        row = lreg_cells[(tol, eps, tau)]
        if row.converged:
            failures.append(
                f"lreg tol={tol:g} eps={eps:g} tau={tau:g} converged "
                f"({row.total_iterations} its), expected nc")
    _criterion(4, "non-convergence flags", failures,
               f"{len(NEWTON_NC_CELLS)} newton + {len(LREG_NC_CELLS)} lreg cells")


def test_criterion_5_error_bound_monitor(bench):
    mesh, forms = bench["mesh"], bench["forms"]
    tau = 0.05
    tol = 1e-3
    delta, big_l = select_delta(tol, tau, SPEC)
    config = SchemeConfig(
        kind="hl", tau=tau,
        stopping=StoppingCriterion(mode="against_reference", tol=tol),
        nonlinearity=SPEC, L=float(big_l))
    refs = [(r.u, r.q) for r in bench["references"][tau]]
    series = run_time_series(config, mesh, forms,
                             project_scalar(mesh, MSOL.initial),
                             make_source_provider(mesh, MSOL),
                             steps_for_tau(MSOL, tau), references=refs)
    failures = []
    iterations = 0
    for result in series:
        rep = result.report
        checks = theorem_bound_monitor(rep.error_history,
                                       rep.flux_error_history,
                                       delta, tau, SPEC, slack=1e-7)
        iterations += len(checks)
        for i, ok in enumerate(checks, start=1):
            if not ok:
                failures.append(f"step {result.step}, iteration {i} "
                                f"violates the error inequality")
    _criterion(5, "per-iteration error bound holds", failures,
               f"{iterations} iterations checked")


def test_criterion_6_property_suites(bench):
    failures = []
    rng = np.random.default_rng(2024)

    for n in (1, 2, 4):
        mesh = build_structured_unit_square(n)
        if (mesh.num_vertices, mesh.num_edges, mesh.num_cells) != (
                (n + 1) ** 2, 3 * n**2 + 2 * n, 2 * n**2):
            failures.append(f"mesh counts wrong at n={n}")
        if mesh.num_vertices - mesh.num_edges + mesh.num_cells + 1 != 2:
            failures.append(f"Euler formula fails at n={n}")

        forms = assemble_forms(mesh)
        dense = forms.flux_mass.toarray()
        if not np.allclose(dense, dense.T, atol=1e-15):
            failures.append(f"flux mass not symmetric at n={n}")
        if np.linalg.eigvalsh(dense).min() <= 0:
            failures.append(f"flux mass not positive definite at n={n}")
        if np.abs(dense - brute_force_flux_mass(mesh)).max() > 1e-12:
            failures.append(f"flux mass deviates from quadrature oracle at n={n}")

        # Saddle solver recovers a manufactured solution.
        weights = rng.uniform(0.0, 2.0, size=mesh.num_cells)
        system = assemble(forms, weights, 0.05)
        fact = factorize(system)
        x_star = rng.normal(size=mesh.num_cells + mesh.num_edges)
        rhs = system.matrix @ x_star
        u, q = solve(fact, rhs[:mesh.num_cells], rhs[mesh.num_cells:])
        if np.abs(np.concatenate([u, q]) - x_star).max() > 1e-9:
            failures.append(f"saddle solve misses manufactured rhs at n={n}")

    # Nonlinearity properties.
    reg = RegularizationSpec(kind="linear", epsilon=1e-4, base=SPEC)
    bound = regularization_gap_bound(reg)
    samples = rng.uniform(-1.0, 1.0, size=2000) * 10.0 ** rng.integers(
        -6, 1, size=2000)
    pairs = np.sort(rng.uniform(-2.0, 2.0, size=(500, 2)), axis=1)
    for u, v in pairs:
        if b_value(SPEC, u) > b_value(SPEC, v) + 1e-15:
            failures.append("monotonicity violated")
            break
        if abs(b_value(SPEC, u) - b_value(SPEC, v)) > abs(u - v) ** 0.5 + 1e-12:
            failures.append("Holder bound violated")
            break
    gaps = b_value(SPEC, samples) - b_eps(reg, samples)
    if gaps.min() < -1e-15 or gaps.max() > bound + 1e-15:
        failures.append("regularization gap bound violated")
    h = 1e-9
    for u in rng.uniform(-0.5, 1.5, size=200):
        if min(abs(u), abs(u - reg.epsilon)) < 10 * h:
            continue
        fd = (b_eps(reg, u + h) - b_eps(reg, u - h)) / (2 * h)
        exact = b_eps_prime(reg, u)
        if abs(fd - exact) > 1e-6 * max(1.0, abs(exact)):
            failures.append(f"derivative mismatch at u={u}")
            break

    # Local mass balance on the production reference run.
    mesh32, forms32 = bench["mesh"], bench["forms"]
    tau = 0.05
    source = make_source_provider(mesh32, MSOL)
    u_prev = project_scalar(mesh32, MSOL.initial)
    for r in bench["references"][tau]:
        residual = mass_balance_residual(
            forms32, b_value(SPEC, r.u), b_value(SPEC, u_prev), r.q, tau,
            source(r.t, r.t - tau))
        if np.abs(residual).sum() > 1e-7:
            failures.append(
                f"mass balance {np.abs(residual).sum():.2e} > 1e-7 "
                f"at reference step {r.step}")
        u_prev = r.u

    _criterion(6, "property suites", failures)


def test_criterion_7_degenerate_equivalences():
    failures = []
    lipschitz = NonlinearitySpec(alpha=1.0)
    mesh = build_structured_unit_square(3)
    forms = assemble_forms(mesh)
    rng = np.random.default_rng(77)
    tau = 0.4

    u_star = rng.uniform(0.5, 1.5, size=forms.num_cells)
    u_prev = rng.uniform(0.5, 1.5, size=forms.num_cells)
    q_star = spla.spsolve(forms.flux_mass.tocsc(),
                          forms.divergence.T @ u_star
                          + forms.dirichlet_functional)
    f_n = ((u_star - u_prev) + tau * (forms.divergence @ q_star)
           / forms.scalar_mass) / tau
    stop = StoppingCriterion(mode="against_reference", tol=1e-9,
                             reference=u_star, flux_reference=q_star)

    config_hl = SchemeConfig(kind="hl", tau=tau, stopping=stop,
                             nonlinearity=lipschitz, L=1.0)
    reg = RegularizationSpec(kind="linear", epsilon=1e-3, base=lipschitz)
    config_lreg = SchemeConfig(kind="lreg", tau=tau, stopping=stop,
                               regularization=reg, L=1.0)
    u1, q1, rep1 = hl_iterate(forms, config_hl, np.maximum(u_prev, 0.0),
                              u_prev, f_n)
    u2, q2, rep2 = regularized_l_iterate(forms, config_lreg,
                                         np.maximum(u_prev, 0.0), u_prev, f_n)
    if not (np.array_equal(u1, u2) and np.array_equal(q1, q2)
            and rep1.error_history == rep2.error_history):
        failures.append("hl and lreg trajectories differ for Lipschitz b")

    config_newton = SchemeConfig(kind="newton", tau=tau, stopping=stop,
                                 regularization=reg)
    _, _, rep_newton = newton_iterate(forms, config_newton, u_prev, u_prev, f_n)
    if not (rep_newton.converged and rep_newton.iterations_used == 1):
        failures.append(
            f"newton on linear b took {rep_newton.iterations_used} iterations")

    _, _, rep_exact = hl_iterate(forms, config_hl, np.maximum(u_prev, 0.0),
                                 u_star, f_n)
    if not (rep_exact.converged and rep_exact.iterations_used <= 1):
        failures.append(
            f"hl from the reference took {rep_exact.iterations_used} iterations")

    _criterion(7, "degenerate-case equivalences", failures)


def test_n32_tables_match_pinned_output(bench):
    for which, kind in (("1", "newton"), ("3", "lreg"), ("5", "hl")):
        pinned = (PINNED_TABLES / f"table{which}_n32.csv").read_text()
        assert results_to_csv(bench["tables"][kind]) == pinned, kind
    assert {tau: total_iterations(ref)
            for tau, ref in bench["references"].items()} \
        == PINNED_REFERENCE_ITERATIONS


def test_criterion_8_discretization_sanity(bench):
    tau = 0.0125
    mesh16 = build_structured_unit_square(16)
    forms16 = assemble_forms(mesh16, MSOL.boundary_value)
    ref16 = compute_reference(mesh16, forms16, tau, steps_for_tau(MSOL, tau))
    err16 = discretization_error(mesh16, ref16)
    err32 = discretization_error(bench["mesh"], bench["references"][tau])
    failures = []
    if not err32 < err16:
        failures.append(f"error did not decrease: n=16 gives {err16:.4e}, "
                        f"n=32 gives {err32:.4e}")
    _criterion(8, "refinement decreases the discretization error", failures,
               f"{err16:.4e} -> {err32:.4e}")
