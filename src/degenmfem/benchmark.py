"""Manufactured-solution benchmark comparing the three schemes.

The prescribed solution on the unit square is

    u(t, x, y) = -1/2 + 16 x (1 - x) y (1 - y) (t + 1/2),

with final time T = 1/2, constant Dirichlet trace -1/2, and the
degenerate storage b(u) = max(u, 0)^(1/2).  The discrete source is the
backward-Euler-consistent time difference

    f_T = (b(u(t_n, x_T)) - b(u(t_{n-1}, x_T))) / tau - lap u(t_n, x_T)

evaluated at cell barycenters; the difference form keeps every
evaluation finite although the pointwise d/dt b(u) is singular on the
free boundary {u = 0}.

For each time-step size a high-accuracy reference solution of the
nonlinear discrete systems is computed first with the Holder L-scheme
(no regularization error) under the increment stopping criterion; all
benchmark runs then stop when the L2 distance of the scalar iterate to
this reference drops below TOL.  One benchmark table maps a scheme over
the (TOL, eps, tau) grid and records total iterations, iterations per
time step, and the convergence flag; a non-converged cell is recorded,
never fatal, while a non-converged reference aborts the experiment.

Grid points of a table are independent once the references exist; the
reference computation per tau is sequential.
"""

import io
import itertools
from dataclasses import dataclass

import numpy as np

from degenmfem.fem import project_scalar
# assemble, factorize and hl_iterate are unused here: perfbench/tracer.py
# looks them up on this module by name and refuses to install without them.
from degenmfem.linear_system import assemble, factorize  # noqa: F401
from degenmfem.mesh import Mesh
from degenmfem.nonlinearity import NonlinearitySpec, RegularizationSpec, b_value
from degenmfem.schemes import (
    SCHEME_KINDS,
    SchemeConfig,
    StoppingCriterion,
    hl_iterate,  # noqa: F401 (see above)
    march,
    run_time_series,
    series_converged,
    total_iterations,
)
from degenmfem.theory import select_L_regularized, select_delta

GRID_TOL = (1e-3, 1e-4, 1e-5)
GRID_EPS = (1e-3, 1e-4, 1e-5)
GRID_TAU = (0.05, 0.025, 0.0125)

CSV_HEADER = "scheme,tol,eps,tau,L,total_iterations,per_step,converged"

# The reference stage: increment threshold, the TOL its starting L is
# selected for, how often a failing step may quadruple L, and the
# iteration cap of each attempt.
REFERENCE_INCREMENT_TOL = 1e-10
REFERENCE_SELECTION_TOL = 1e-5
REFERENCE_ESCALATIONS = 8
REFERENCE_MAX_ITERATIONS = 200_000


class ReferenceConvergenceError(Exception):
    """The reference computation failed to meet the increment criterion."""


@dataclass(frozen=True)
class ManufacturedSolution:
    """The prescribed space-time solution and its data, class constants."""

    final_time = 0.5
    boundary_value = -0.5
    alpha = 0.5

    def exact(self, t, x, y):
        return self.boundary_value + 16.0 * x * (1.0 - x) * y * (1.0 - y) * (t + 0.5)

    def laplacian(self, t, x, y):
        return -32.0 * (t + 0.5) * (x * (1.0 - x) + y * (1.0 - y))

    def initial(self, x, y):
        return self.exact(0.0, x, y)

    def nonlinearity(self) -> NonlinearitySpec:
        return NonlinearitySpec(alpha=self.alpha)


DEFAULT_SOLUTION = ManufacturedSolution()


def source_term(msol: ManufacturedSolution, t_n: float, t_prev: float, x, y):
    """Backward-Euler-consistent source density at a point.

    Requires t_n > t_prev >= 0.
    """
    if not t_n > t_prev >= 0.0:
        raise ValueError("need t_n > t_prev >= 0")
    tau = t_n - t_prev
    spec = msol.nonlinearity()
    db = b_value(spec, msol.exact(t_n, x, y)) - b_value(spec, msol.exact(t_prev, x, y))
    return db / tau - msol.laplacian(t_n, x, y)


def make_source_provider(mesh: Mesh, msol: ManufacturedSolution):
    """Per-cell source densities at barycenters, as the series driver expects."""
    bx = mesh.cell_barycenters[:, 0]
    by = mesh.cell_barycenters[:, 1]

    def provider(t_n, t_prev):
        return np.asarray(source_term(msol, t_n, t_prev, bx, by), dtype=float)

    return provider


def steps_for_tau(msol: ManufacturedSolution, tau: float) -> int:
    n_steps = round(msol.final_time / tau)
    if abs(n_steps * tau - msol.final_time) > 1e-12:
        raise ValueError(f"tau = {tau} does not divide T = {msol.final_time}")
    return n_steps


def compute_reference(mesh, forms, tau, n_steps):
    """High-accuracy solution of the nonlinear discrete systems per step.

    Runs the Holder L-scheme (chosen to avoid regularization error) in
    increment-stopping mode: a step ends once both the absolute sum
    ||du|| + ||dq|| and the relative sum ||du||/||u|| + ||dq||/||q||
    fall below ``REFERENCE_INCREMENT_TOL`` within
    ``REFERENCE_MAX_ITERATIONS`` iterations.  The stabilization L starts
    from the tolerance-driven selection at ``REFERENCE_SELECTION_TOL``;
    see the benchmark notes in the README for why a moderate L paired
    with a tight increment threshold gives a far more accurate oracle
    than a huge L at a loose threshold.

    When a step's exact solution puts a cell value inside (0, 1/(16 L^2)),
    the raw Holder iteration is locally expansive there (b' > 2L) and the
    increments saw-tooth at the b(u)/L scale instead of vanishing; such a
    stalled step is retried with L quadrupled (up to
    ``REFERENCE_ESCALATIONS`` times, by ``schemes.march``), which exits
    the cycling regime while converging to the same fixed point.

    Returns the list of TimeStepResult; raises ReferenceConvergenceError
    if any step fails after all retries (fatal for the whole experiment).
    """
    msol = DEFAULT_SOLUTION
    spec = msol.nonlinearity()
    _, base_l = select_delta(REFERENCE_SELECTION_TOL, tau, spec)
    config = SchemeConfig(
        kind="hl", tau=tau,
        stopping=StoppingCriterion(mode="increment",
                                   tol=REFERENCE_INCREMENT_TOL),
        nonlinearity=spec, L=float(base_l),
        max_iterations=REFERENCE_MAX_ITERATIONS)
    results = march(config, forms, project_scalar(mesh, msol.initial),
                    make_source_provider(mesh, msol), n_steps,
                    escalations=REFERENCE_ESCALATIONS)
    if not series_converged(results, n_steps):
        last_l = config.L * 4.0 ** REFERENCE_ESCALATIONS
        raise ReferenceConvergenceError(
            f"reference run (tau={tau}) failed at step {results[-1].step} "
            f"even with L escalated to {last_l:g}: "
            f"{results[-1].report.failure_reason}")
    return results


@dataclass(frozen=True)
class ExperimentResult:
    """One row of a benchmark table."""

    scheme: str
    tol: float
    eps: float | None
    tau: float
    L: int | None
    total_iterations: int | None
    per_step: float | None
    converged: bool


def scheme_config(kind, tol, tau, eps=None, L=None, reg_kind="linear",
                  shift=0.0):
    """Config of one benchmark run, stopping within ``tol`` of the
    reference.

    Unless ``L`` is given, the hl scheme takes it from the
    tolerance-driven selection and the regularized L-scheme from the
    eps-driven one; Newton takes none.  ``eps``, ``reg_kind`` and
    ``shift`` define the regularization of lreg and newton; a missing
    ``eps``, or an ``eps``, ``shift`` or ``reg_kind`` given to hl, is a
    ValueError.
    """
    spec = DEFAULT_SOLUTION.nonlinearity()
    stopping = StoppingCriterion(mode="against_reference", tol=tol)
    if kind == "hl":
        for flag, given in (("eps", eps is not None), ("shift", shift != 0.0),
                            ("reg_kind", reg_kind != "linear")):
            if given:
                raise ValueError(f"hl does not regularize; it takes no {flag}")
        if L is None:
            _, L = select_delta(tol, tau, spec)
        return SchemeConfig(kind="hl", tau=tau, stopping=stopping,
                            nonlinearity=spec, L=float(L))
    reg = RegularizationSpec(kind=reg_kind, epsilon=eps, base=spec,
                             shift=shift)
    if kind == "lreg" and L is None:
        L = select_L_regularized(eps, spec)
    return SchemeConfig(kind=kind, tau=tau, stopping=stopping,
                        regularization=reg, L=None if L is None else float(L))


def experiment_row(config, series, n_steps):
    """The table row of a series run under ``config``, eps from its
    regularization; a series that did not converge in all ``n_steps``
    steps is an nc row without counts."""
    converged = series_converged(series, n_steps)
    total = total_iterations(series) if converged else None
    return ExperimentResult(
        scheme=config.kind, tol=config.stopping.tol,
        eps=getattr(config.regularization, "epsilon", None), tau=config.tau,
        L=None if config.L is None else int(config.L),
        total_iterations=total,
        per_step=total / n_steps if converged else None,
        converged=converged)


def run_table(kind, mesh, forms, references_by_tau, tols=GRID_TOL,
              epses=GRID_EPS, taus=GRID_TAU):
    """Map one scheme over the benchmark grid.

    ``references_by_tau`` maps each tau to its ``compute_reference``
    series; runs stop against its scalar fields.  The hl scheme has no
    eps axis; its L comes from the tolerance-driven selection, while the
    regularized L-scheme uses the eps-driven value.  Per-cell
    non-convergence is recorded in the result row, never raised.

    Rows are ordered tol-major, then eps, then tau, matching the
    recorded layout.
    """
    if kind not in SCHEME_KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    msol = DEFAULT_SOLUTION
    u0 = project_scalar(mesh, msol.initial)
    source = make_source_provider(mesh, msol)
    eps_axis = [None] if kind == "hl" else epses

    results = []
    for tol, eps, tau in itertools.product(tols, eps_axis, taus):
        n_steps = steps_for_tau(msol, tau)
        config = scheme_config(kind, tol, tau, eps)
        series = run_time_series(
            config, mesh, forms, u0, source, n_steps,
            references=[r.u for r in references_by_tau[tau]])
        results.append(experiment_row(config, series, n_steps))
    return results


def _format_result_fields(r):
    return [
        r.scheme,
        f"{r.tol:.0e}",
        "" if r.eps is None else f"{r.eps:.0e}",
        f"{r.tau:g}",
        "" if r.L is None else str(r.L),
        "" if r.total_iterations is None else str(r.total_iterations),
        "" if r.per_step is None else f"{r.per_step:.6g}",
        "true" if r.converged else "false",
    ]


def results_to_csv(results) -> str:
    """Render rows as deterministic CSV text (nc rows keep empty counts)."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in results:
        out.write(",".join(_format_result_fields(r)) + "\n")
    return out.getvalue()


def write_results_csv(path, results) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(results_to_csv(results))


def render_summary(results, title) -> str:
    """Text table in the recorded layout: one line per (TOL, eps) with
    the tau sweep braced together."""
    taus = []
    for r in results:
        if r.tau not in taus:
            taus.append(r.tau)
    groups = {}
    order = []
    for r in results:
        key = (r.tol, r.eps)
        if key not in groups:
            groups[key] = {}
            order.append(key)
        groups[key][r.tau] = r

    has_eps = any(key[1] is not None for key in order)
    tau_list = ",".join(f"{t:g}" for t in taus)
    lines = [title]
    header = f"{'TOL':>6}  " + (f"{'eps':>6}  " if has_eps else "")
    header += f"tau={{{tau_list}}}  iterations | per step"
    lines.append(header)
    for key in order:
        tol, eps = key
        cells = [groups[key].get(t) for t in taus]
        totals = ",".join(
            "nc" if (c is None or not c.converged) else str(c.total_iterations)
            for c in cells)
        per = ",".join(
            "nc" if (c is None or not c.converged) else f"{c.per_step:.1f}"
            for c in cells)
        row = f"{tol:>6.0e}  "
        if has_eps:
            row += f"{eps:>6.0e}  " if eps is not None else f"{'':>6}  "
        row += f"{{{totals}}} | {{{per}}}"
        lines.append(row)
    return "\n".join(lines) + "\n"
