import json
from dataclasses import replace

import numpy as np
import pytest

import degenmfem.benchmark as benchmark
import degenmfem.schemes as schemes
from degenmfem.benchmark import (
    DEFAULT_SOLUTION,
    ExperimentResult,
    ReferenceConvergenceError,
    compute_reference,
    make_source_provider,
    render_summary,
    results_to_csv,
    run_table,
    scheme_config,
    source_term,
    steps_for_tau,
    write_results_csv,
)
from degenmfem.fem import assemble_forms
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import b_value
from degenmfem.schemes import mass_balance_residual
from oracle_utils import discretization_error

MSOL = DEFAULT_SOLUTION


@pytest.fixture(scope="module")
def small_problem():
    mesh = build_structured_unit_square(4)
    forms = assemble_forms(mesh, MSOL.boundary_value)
    return mesh, forms


def test_manufactured_solution_invariants():
    # Boundary trace is exactly -1/2 at all times.
    for t in (0.0, 0.3, 0.5):
        for x, y in [(0.0, 0.7), (1.0, 0.2), (0.3, 0.0), (0.9, 1.0)]:
            assert MSOL.exact(t, x, y) == -0.5
    assert MSOL.exact(0.0, 0.5, 0.5) == 0.0
    # The space-time maximum sits at the center at the final time.
    xs = np.linspace(0, 1, 101)
    xx, yy = np.meshgrid(xs, xs)
    peak = max(MSOL.exact(t, xx, yy).max() for t in np.linspace(0, 0.5, 11))
    assert peak == pytest.approx(0.5)
    assert MSOL.exact(0.5, 0.5, 0.5) == pytest.approx(0.5)


def test_source_term_center_value():
    # u(0.05, center) = 0.05 and u(0, center) = 0:
    # f = sqrt(0.05)/0.05 + 32 * 0.55 * 0.5 = 13.27213595...
    f = source_term(MSOL, 0.05, 0.0, 0.5, 0.5)
    assert f == pytest.approx(np.sqrt(0.05) / 0.05 + 8.8, rel=1e-12)
    assert f == pytest.approx(13.272135954999579, rel=1e-12)


def test_source_term_dry_region_reduces_to_laplacian():
    # Where u <= 0 at both time levels the storage difference vanishes.
    t_n, t_prev = 0.5, 0.475
    x, y = 0.05, 0.05
    assert MSOL.exact(t_n, x, y) < 0 and MSOL.exact(t_prev, x, y) < 0
    f = source_term(MSOL, t_n, t_prev, x, y)
    expected = 32.0 * (t_n + 0.5) * (x * (1 - x) + y * (1 - y))
    assert f == pytest.approx(expected, rel=1e-13)


def test_source_term_boundary_point():
    t_n, t_prev = 0.1, 0.05
    f = source_term(MSOL, t_n, t_prev, 0.0, 0.3)
    assert f == pytest.approx(32.0 * 0.6 * (0.3 * 0.7), rel=1e-13)


def test_source_term_validates_times():
    with pytest.raises(ValueError):
        source_term(MSOL, 0.05, 0.05, 0.5, 0.5)
    with pytest.raises(ValueError):
        source_term(MSOL, 0.0, -0.05, 0.5, 0.5)


def test_steps_for_tau():
    assert steps_for_tau(MSOL, 0.05) == 10
    assert steps_for_tau(MSOL, 0.025) == 20
    assert steps_for_tau(MSOL, 0.0125) == 40
    with pytest.raises(ValueError):
        steps_for_tau(MSOL, 0.03)


def test_reference_is_deterministic(small_problem):
    mesh, forms = small_problem
    ref_a = compute_reference(mesh, forms, 0.25, 2)
    ref_b = compute_reference(mesh, forms, 0.25, 2)
    for ra, rb in zip(ref_a, ref_b):
        assert np.array_equal(ra.u, rb.u)
        assert np.array_equal(ra.q, rb.q)
        assert ra.report.iterations_used == rb.report.iterations_used


def test_reference_satisfies_local_mass_balance(small_problem):
    mesh, forms = small_problem
    tau = 0.25
    ref = compute_reference(mesh, forms, tau, 2)
    source = make_source_provider(mesh, MSOL)
    spec = MSOL.nonlinearity()
    from degenmfem.fem import project_scalar
    u_prev = project_scalar(mesh, MSOL.initial)
    for r in ref:
        f_n = source(r.t, r.t - tau)
        residual = mass_balance_residual(
            forms, b_value(spec, r.u), b_value(spec, u_prev), r.q, tau, f_n)
        assert np.abs(residual).sum() <= 1e-7
        u_prev = r.u


def test_reference_failure_is_fatal(small_problem, monkeypatch):
    mesh, forms = small_problem
    monkeypatch.setattr(benchmark, "REFERENCE_MAX_ITERATIONS", 3)
    with pytest.raises(ReferenceConvergenceError):
        compute_reference(mesh, forms, 0.25, 2)


def test_reference_escalation_goes_through_module_names(small_problem,
                                                        monkeypatch):
    # The per-layer tracer counts reference steps, escalations and
    # factorizations through these module names: one driver call per
    # attempt, and one assembly and factorization per distinct L.
    mesh, forms = small_problem
    calls = {"hl_iterate": [], "assemble": [], "factorize": []}
    original = {name: getattr(schemes, name) for name in calls}

    def hl_iterate(forms, config, *args):
        calls["hl_iterate"].append(config.L)
        u, q, report = original["hl_iterate"](forms, config, *args)
        if len(calls["hl_iterate"]) == 1:
            report = replace(report, converged=False,
                             failure_reason="max_iterations")
        return u, q, report

    def assemble(forms, weights, tau):
        calls["assemble"].append(weights)
        return original["assemble"](forms, weights, tau)

    def factorize(system):
        calls["factorize"].append(system.weights[0])
        return original["factorize"](system)

    for name, fn in (("hl_iterate", hl_iterate), ("assemble", assemble),
                     ("factorize", factorize)):
        monkeypatch.setattr(schemes, name, fn)
    ref = compute_reference(mesh, forms, 0.25, 2)
    base = calls["hl_iterate"][0]
    assert calls["hl_iterate"] == [base, 4.0 * base, base]
    assert calls["assemble"] == [base, 4.0 * base]
    assert calls["factorize"] == [base, 4.0 * base]
    assert [r.report.converged for r in ref] == [True, True]


def test_reference_fields_shapes(small_problem):
    mesh, forms = small_problem
    ref = compute_reference(mesh, forms, 0.25, 2)
    assert len(ref) == 2
    for r in ref:
        assert r.u.shape == (mesh.num_cells,)
        assert r.q.shape == (mesh.num_edges,)


@pytest.mark.parametrize("kind,kwargs,named", [
    ("lreg", {}, "epsilon"),     # the regularized schemes need eps
    ("newton", {}, "epsilon"),
    ("hl", {"eps": 1e-3}, "eps"),  # hl does not regularize
    ("hl", {"shift": 0.5}, "shift"),
    ("hl", {"reg_kind": "quadratic"}, "reg_kind"),
], ids=["lreg-no-eps", "newton-no-eps", "hl-eps", "hl-shift", "hl-reg-kind"])
def test_scheme_config_rejects_flags_of_other_schemes(kind, kwargs, named):
    with pytest.raises(ValueError, match=named):
        scheme_config(kind, 1e-3, 0.05, **kwargs)


def test_discretization_error_positive(small_problem):
    mesh, forms = small_problem
    ref = compute_reference(mesh, forms, 0.25, 2)
    err = discretization_error(mesh, ref)
    assert 0.0 < err < 1.0


def test_run_table_smoke(small_problem):
    # Reduced single-cell grids exercise the full pipeline per scheme.
    mesh, forms = small_problem
    tau = 0.25
    references = {tau: compute_reference(mesh, forms, tau, 2)}
    for kind in ("hl", "lreg", "newton"):
        rows = run_table(kind, mesh, forms, references,
                         tols=(1e-3,), epses=(1e-3,), taus=(tau,))
        assert len(rows) == 1
        row = rows[0]
        assert row.scheme == kind
        assert row.converged
        assert row.total_iterations >= 2  # one per step at least
        assert row.per_step == pytest.approx(row.total_iterations / 2)
        assert (row.eps is None) == (kind == "hl")
        assert (row.L is None) == (kind == "newton")
    # Newton needs by far the fewest iterations on this configuration.
    newton_total = run_table("newton", mesh, forms, references,
                             tols=(1e-3,), epses=(1e-3,),
                             taus=(tau,))[0].total_iterations
    hl_total = run_table("hl", mesh, forms, references,
                         tols=(1e-3,), epses=(1e-3,),
                         taus=(tau,))[0].total_iterations
    assert newton_total < hl_total


def test_run_table_grid_shape(small_problem):
    mesh, forms = small_problem
    tau = 0.25
    references = {tau: compute_reference(mesh, forms, tau, 2)}
    rows = run_table("newton", mesh, forms, references,
                     tols=(1e-3, 1e-4), epses=(1e-3, 1e-4), taus=(tau,))
    assert len(rows) == 4
    assert [(r.tol, r.eps) for r in rows] == [
        (1e-3, 1e-3), (1e-3, 1e-4), (1e-4, 1e-3), (1e-4, 1e-4)]


def test_hl_error_decays_monotonically_above_floor():
    # Once below its initial value and above the accumulation floor, the
    # recorded hl error history must be non-increasing.
    from degenmfem.schemes import SchemeConfig, StoppingCriterion, run_time_series
    from degenmfem.theory import accumulated_error_bound, select_delta

    mesh = build_structured_unit_square(8)
    forms = assemble_forms(mesh, MSOL.boundary_value)
    tau = 0.05
    ref = compute_reference(mesh, forms, tau, 10)
    spec = MSOL.nonlinearity()
    # tol = 1e-5 keeps the guaranteed floor well below the initial error,
    # so the monotonicity window is non-empty.
    delta, big_l = select_delta(1e-5, tau, spec)
    floor = 2.0 * accumulated_error_bound(delta, tau, spec)
    config = SchemeConfig(
        kind="hl", tau=tau,
        stopping=StoppingCriterion(mode="against_reference", tol=1e-5),
        nonlinearity=spec, L=float(big_l))
    from degenmfem.fem import project_scalar
    series = run_time_series(config, mesh, forms,
                             project_scalar(mesh, MSOL.initial),
                             make_source_provider(mesh, MSOL), 10,
                             references=[r.u for r in ref])
    assert all(r.report.converged for r in series)
    checked = 0
    for r in series:
        hist = r.report.error_history
        for i in range(1, len(hist) - 1):
            if hist[i] <= hist[0] and hist[i] ** 2 > floor:
                assert hist[i + 1] <= hist[i] * (1 + 1e-12)
                checked += 1
    assert checked > 0


def test_csv_rendering_and_nc_encoding(tmp_path):
    rows = [
        ExperimentResult("hl", 1e-3, None, 0.05, 19, 370, 37.0, True),
        ExperimentResult("newton", 1e-5, 1e-3, 0.025, None, None, None, False),
    ]
    text = results_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "scheme,tol,eps,tau,L,total_iterations,per_step,converged"
    assert lines[1] == "hl,1e-03,,0.05,19,370,37,true"
    assert lines[2] == "newton,1e-05,1e-03,0.025,,,,false"
    path = tmp_path / "t.csv"
    write_results_csv(path, rows)
    write_once = path.read_bytes()
    write_results_csv(path, rows)
    assert path.read_bytes() == write_once  # byte-identical rerun


def test_render_summary_layout():
    rows = [
        ExperimentResult("newton", 1e-3, 1e-3, 0.05, None, 17, 1.7, True),
        ExperimentResult("newton", 1e-3, 1e-3, 0.025, None, 24, 1.2, True),
        ExperimentResult("newton", 1e-5, 1e-3, 0.05, None, None, None, False),
        ExperimentResult("newton", 1e-5, 1e-3, 0.025, None, None, None, False),
    ]
    text = render_summary(rows, "table 1 (newton)")
    assert "table 1 (newton)" in text
    assert "{17,24}" in text
    assert "{1.7,1.2}" in text
    assert "{nc,nc}" in text


def test_newton_n64_series_matches_benchmark_record(monkeypatch):
    # The benchmark's newton-n64 workload, n = 64 Newton at tau = 0.05,
    # the one tier-1 run of Newton past n = 32, where the skeleton is
    # condensed on levels before its band Cholesky: its ten steps pass
    # the benchmark's own check against its record (flags equal,
    # discretization errors within 1e-8, mass balances within 1e-9), with
    # the recorded number of factorizations.
    from pathlib import Path

    from degenmfem.fem import project_scalar

    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    record = json.loads(workloads.EXPECTED_PATH.read_text())["newton-n64"]
    factorize = schemes.factorize
    calls = []
    monkeypatch.setattr(schemes, "factorize",
                        lambda *args: calls.append(1) or factorize(*args))
    mesh = build_structured_unit_square(64)
    ops = []
    workloads.run_newton_n64(ops, mesh,
                             assemble_forms(mesh, MSOL.boundary_value),
                             project_scalar(mesh, MSOL.initial))
    assert workloads.check_ops(record["ops"], ops) == []
    assert len(calls) == record["counts"]["linear_system.factorizations"]
