"""Command-line front end for single solves, benchmark tables, and the
parameter formulas.

Subcommands
-----------
solve   : run one scheme at one (n, tau, steps, tol) configuration,
          stopping against a freshly computed reference; writes a
          one-row CSV and a per-step report.
tables  : reproduce the benchmark tables (1 = newton, 3 = regularized
          L-scheme, 5 = Holder L-scheme) as CSV files plus a text
          summary; references are shared across tables.
theory  : print delta, L, the contraction factor, C(alpha) and the
          accumulated error bound for a (tol, tau) pair, plus the
          regularized-L value when --eps is given.

Exit codes: 0 on success/convergence, 1 on usage errors, 2 when the
requested solve did not converge.  Identical flags produce identical
outputs; the default output directory is taken from the DEGENMFEM_OUT
environment variable when set.
"""

import argparse
import os
import sys
from pathlib import Path

# Set before numpy loads its BLAS, unless the caller chose: the band
# factorizations are too small to gain from threads, and one thread keeps
# reruns byte-identical.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from degenmfem import benchmark
from degenmfem.benchmark import (
    DEFAULT_SOLUTION,
    compute_reference,
    experiment_row,
    make_source_provider,
    render_summary,
    run_table,
    scheme_config,
    write_results_csv,
)
from degenmfem.fem import assemble_forms, project_scalar
from degenmfem.mesh import build_structured_unit_square
from degenmfem.nonlinearity import NonlinearitySpec
from degenmfem.schemes import SCHEME_KINDS, run_time_series, total_iterations
from degenmfem.theory import (
    accumulated_error_bound,
    c_alpha,
    contraction_factor,
    delta_closed_form,
    select_L_regularized,
    select_delta,
)

TABLE_SCHEMES = {"1": "newton", "3": "lreg", "5": "hl"}


class _Parser(argparse.ArgumentParser):
    # Usage errors must exit 1 (2 is reserved for non-convergence).
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _default_out():
    return os.environ.get("DEGENMFEM_OUT", ".")


def build_parser():
    parser = _Parser(prog="degenmfem",
                     description="Iterative-scheme benchmarks for a "
                                 "degenerate parabolic equation")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one scheme configuration")
    ps.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    ps.add_argument("--n", type=int, default=32, help="mesh subdivisions per side")
    ps.add_argument("--tau", type=float, required=True, help="time step size")
    ps.add_argument("--steps", type=int, required=True, help="number of time steps")
    ps.add_argument("--tol", type=float, required=True,
                    help="stopping tolerance against the reference")
    ps.add_argument("--eps", type=float, default=None,
                    help="regularization width (lreg and newton)")
    ps.add_argument("--L", type=float, default=None,
                    help="override the stabilization parameter")
    ps.add_argument("--shift", type=float, default=0.0,
                    help="derivative-shift perturbation weight (default off)")
    ps.add_argument("--reg-kind", choices=("linear", "quadratic"),
                    default="linear")
    ps.add_argument("--out", default=None, help="output directory")

    pt = sub.add_parser("tables", help="reproduce the benchmark tables")
    pt.add_argument("--which", required=True, choices=("1", "3", "5", "all"))
    pt.add_argument("--n", type=int, default=32)
    pt.add_argument("--out", default=None)

    py = sub.add_parser("theory", help="print the parameter formulas")
    py.add_argument("--tol", type=float, required=True)
    py.add_argument("--tau", type=float, required=True)
    py.add_argument("--alpha", type=float, default=0.5)
    py.add_argument("--eps", type=float, default=None)

    return parser


def _run_solve(args) -> int:
    if args.n < 1:
        _usage_error("--n must be >= 1")
    if args.steps < 1:
        _usage_error("--steps must be >= 1")
    msol = DEFAULT_SOLUTION
    # A bad --tau, --tol, --L, --eps or --shift, or one the scheme does
    # not take, is rejected before the reference run.
    try:
        config = scheme_config(args.scheme, args.tol, args.tau, args.eps,
                               args.L, args.reg_kind, args.shift)
    except ValueError as exc:
        _usage_error(str(exc))

    out_dir = Path(args.out if args.out is not None else _default_out())
    out_dir.mkdir(parents=True, exist_ok=True)

    mesh = build_structured_unit_square(args.n)
    forms = assemble_forms(mesh, msol.boundary_value)

    reference = compute_reference(mesh, forms, args.tau, args.steps)

    u0 = project_scalar(mesh, msol.initial)
    source = make_source_provider(mesh, msol)
    series = run_time_series(config, mesh, forms, u0, source, args.steps,
                             references=[r.u for r in reference])
    result = experiment_row(config, args.eps, series, args.steps)
    write_results_csv(out_dir / "solve_result.csv", [result])

    lines = [
        "degenmfem solve report",
        f"scheme = {args.scheme}",
        f"n = {args.n}",
        f"tau = {args.tau:g}",
        f"steps = {args.steps}",
        f"tol = {args.tol:g}",
    ]
    if args.eps is not None:
        lines.append(f"eps = {args.eps:g}")
        lines.append(f"reg_kind = {args.reg_kind}")
        lines.append(f"shift = {args.shift:g}")
    if result.L is not None:
        lines.append(f"L = {result.L}")
    lines.append(f"converged = {'true' if result.converged else 'false'}")
    lines.append(f"total_iterations = {total_iterations(series)}")
    lines.append("")
    lines.append("step  t        iterations  converged  reason")
    for r in series:
        reason = r.report.failure_reason or "-"
        lines.append(f"{r.step:>4}  {r.t:<7g}  {r.report.iterations_used:>10}  "
                     f"{str(r.report.converged).lower():>9}  {reason}")
    report_text = "\n".join(lines) + "\n"
    (out_dir / "solve_report.txt").write_text(report_text)
    print(report_text, end="")

    return 0 if result.converged else 2


def _run_tables(args) -> int:
    if args.n < 1:
        _usage_error("--n must be >= 1")
    out_dir = Path(args.out if args.out is not None else _default_out())
    out_dir.mkdir(parents=True, exist_ok=True)

    msol = DEFAULT_SOLUTION
    mesh = build_structured_unit_square(args.n)
    forms = assemble_forms(mesh, msol.boundary_value)

    wanted = list(TABLE_SCHEMES) if args.which == "all" else [args.which]
    references = {}
    for tau in benchmark.GRID_TAU:
        n_steps = benchmark.steps_for_tau(msol, tau)
        print(f"computing reference for tau = {tau:g} ({n_steps} steps) ...")
        references[tau] = compute_reference(mesh, forms, tau, n_steps)

    summaries = []
    for which in wanted:
        kind = TABLE_SCHEMES[which]
        print(f"running table {which} ({kind}) on the n = {args.n} mesh ...")
        results = run_table(kind, mesh, forms, references)
        write_results_csv(out_dir / f"table{which}.csv", results)
        summaries.append(render_summary(
            results, f"table {which} ({kind}), n = {args.n}"))

    summary_text = "\n".join(summaries)
    (out_dir / "summary.txt").write_text(summary_text)
    print(summary_text, end="")
    return 0


def _run_theory(args) -> int:
    # Compute every line before printing, so a bad flag prints nothing.
    tol, tau = args.tol, args.tau
    try:
        spec = NonlinearitySpec(alpha=args.alpha)
        delta, big_l = select_delta(tol, tau, spec)
        bound = accumulated_error_bound(delta, tau, spec)
        lines = [
            f"tol = {tol:g}, tau = {tau:g}, alpha = {args.alpha:g}",
            f"C(alpha)            = {c_alpha(spec):.6g}",
            f"delta (closed form) = {delta_closed_form(tol, tau, spec):.6g}",
            f"L = ceil(1/delta)   = {big_l}",
            f"delta = 1/L         = {delta:.6g}",
            f"R(delta, tau)       = {contraction_factor(delta, tau):.6g}",
            f"accumulated bound   = {bound:.6g}  (TOL/2 = {tol / 2:.6g})",
        ]
        if args.eps is not None:
            lines.append(
                f"regularized-L value = {select_L_regularized(args.eps, spec)}"
                f"  (eps = {args.eps:g})")
    except ValueError as exc:
        _usage_error(str(exc))
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _run_solve(args)
    if args.command == "tables":
        return _run_tables(args)
    return _run_theory(args)


if __name__ == "__main__":
    sys.exit(main())
