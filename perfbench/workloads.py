"""One benchmark workload, run in a fresh process started by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1

``run.py`` pins the BLAS thread count before this process starts.  The
workloads are the paper's fixed manufactured problem, so ``--seed``
changes no input; it is recorded with the result.

Untraced (``--trace 0``): whole passes of the workload repeat for about
``--seconds`` (``wall_s`` is the median pass).  The mesh, forms and
initial projection are set up ``SETUP_REPS`` times before the first pass
and after each one (``setup_s`` is the fastest of them).  Every pass
checks its results against ``expected.json``.

Traced (``--trace 1``): one untraced pass, then one pass with per-layer
tracing.  Their counts must agree exactly, and the difference in wall
time is the tracing overhead.

The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import degenmfem  # noqa: E402
from degenmfem import benchmark, fem, mesh, schemes  # noqa: E402
from degenmfem.nonlinearity import RegularizationSpec, b_eps  # noqa: E402

from tracer import Tracer  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MSOL = benchmark.DEFAULT_SOLUTION

# Stated tolerances for recorded floating-point results.  The reference
# is converged to increments of 1e-10, so a change that only reorders
# arithmetic moves a discretization error (1e-5 to 1e-3) by far less than
# 1e-8; a wrong solution moves it by far more.
DISC_ERROR_TOL = 1e-8
# Newton stops at increments of 1e-8 and converges quadratically: the
# recorded per-cell balances are about 1e-15, while a step that stopped
# early or solved the wrong system is off by far more than 1e-9.
MASS_BALANCE_TOL = 1e-9

# Self times of the layers, for naming the largest.
SELF_TIMES = ("linear_system.solve_s", "linear_system.factorize_s",
              "linear_system.assemble_s", "fem.norm_s",
              "nonlinearity.storage_s", "schemes.self_s")
# Share of the traced wall time the layers, with the drivers' residual self
# times, must account for; the rest is the benchmark's own code between
# driver calls.  A missed hook does not lower it (its time lands in a
# residual); ``Tracer.check_exercised`` catches that.
ACCOUNTED_MIN = 0.95

# Set-ups timed before the first pass and after each one.  A fixed count
# keeps the allocations up to the end of the first pass, whose peak is
# peak_rss_mb, the same from run to run.
SETUP_REPS = 20


def disc_error(msh, u, t):
    exact = fem.project_scalar(msh, lambda x, y: MSOL.exact(t, x, y))
    return fem.l2_norm_scalar(msh, u - exact)


# Each workload appends one record per op to ``ops`` as it completes, so
# the ops finished before an exception still count.

def reference(msh, forms, tau):
    n_steps = benchmark.steps_for_tau(MSOL, tau)
    return benchmark.compute_reference(msh, forms, tau, n_steps)


def run_table_n32(ops, msh, forms, u0):
    tau = 0.05
    refs = reference(msh, forms, tau)
    ops.append({"op": "reference tau=0.05",
                "converged": [r.report.converged for r in refs],
                "disc_error": [disc_error(msh, r.u, r.t) for r in refs]})
    for kind in ("hl", "newton"):
        rows = benchmark.run_table(kind, msh, forms, {tau: refs},
                                   taus=(tau,))
        for line in benchmark.results_to_csv(rows).splitlines()[1:]:
            ops.append({"op": ",".join(line.split(",")[:4]), "csv": line})


def run_newton_n64(ops, msh, forms, u0):
    tau, n_steps = 0.05, 10
    reg = RegularizationSpec(kind="linear", epsilon=1e-4,
                             base=MSOL.nonlinearity())
    config = schemes.SchemeConfig(
        kind="newton", tau=tau,
        stopping=schemes.StoppingCriterion(mode="increment", tol=1e-8),
        regularization=reg)
    source = benchmark.make_source_provider(msh, MSOL)
    series = schemes.run_time_series(config, msh, forms, u0, source, n_steps)
    u_prev = u0
    for r in series:
        balance = schemes.mass_balance_residual(
            forms, b_eps(reg, r.u), b_eps(reg, u_prev), r.q, tau,
            source(r.t, r.t - tau))
        ops.append({"op": f"step {r.step}",
                    "converged": r.report.converged,
                    "disc_error": disc_error(msh, r.u, r.t),
                    "mass_balance": float(np.abs(balance).max())})
        u_prev = r.u


def run_stall_n11(ops, msh, forms, u0):
    for r in reference(msh, forms, 0.0125):
        ops.append({"op": f"step {r.step}", "converged": r.report.converged,
                    "disc_error": disc_error(msh, r.u, r.t)})


@dataclass(frozen=True)
class Workload:
    n: int
    run: object
    # Layers the workload must reach; a traced pass in which one of them
    # records no calls fails.
    layers: tuple
    # Metric in SELF_TIMES that must be the largest, or None.
    dominant: str | None


COMMON_LAYERS = ("solve", "norm", "storage", "factorize", "assemble",
                 "iterate")
WORKLOADS = {
    "table-n32": Workload(32, run_table_n32,
                          COMMON_LAYERS + ("reference", "table", "series"),
                          "linear_system.solve_s"),
    "newton-n64": Workload(64, run_newton_n64, COMMON_LAYERS + ("series",),
                           "linear_system.factorize_s"),
    "stall-n11": Workload(11, run_stall_n11, COMMON_LAYERS + ("reference",),
                          None),
}


# -- checking -----------------------------------------------------------------

def _close(actual, expected, tol):
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(abs(a - e) <= tol for a, e in zip(actual, expected)))
    return abs(actual - expected) <= tol


def check_ops(expected_ops, actual_ops):
    """Compare one pass with the recorded results.

    Returns one message per failed op.  An op fails when it is missing
    (it raised, or the pass stopped before it) or differs from its record:
    CSV rows and converged flags must be equal, discretization errors and
    mass-balance residuals within the stated tolerances.  An op that is
    not in the record also fails.
    """
    actual_by_name = {op["op"]: op for op in actual_ops}
    failures = []
    for exp in expected_ops:
        name = exp["op"]
        act = actual_by_name.pop(name, None)
        if act is None:
            failures.append(f"{name}: missing")
            continue
        for key, want in exp.items():
            got = act.get(key)
            if key == "disc_error":
                ok = got is not None and _close(got, want, DISC_ERROR_TOL)
            elif key == "mass_balance":
                ok = got is not None and _close(got, want, MASS_BALANCE_TOL)
            else:
                ok = got == want
            if not ok:
                failures.append(f"{name}: {key} is {got!r}, recorded {want!r}")
                break
    failures += [f"{name}: not in the record" for name in actual_by_name]
    return failures


def count_changes(expected_counts, counts):
    """Counts that differ from the record, as messages."""
    return [f"{key} is {counts.get(key)}, recorded {want}"
            for key, want in expected_counts.items()
            if counts.get(key) != want]


# -- running ------------------------------------------------------------------

def set_up(n, times):
    """Time ``SETUP_REPS`` set-ups, adding to ``times``; returns the last."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        msh = mesh.build_structured_unit_square(n)
        t1 = time.perf_counter()
        forms = fem.assemble_forms(msh, MSOL.boundary_value)
        t2 = time.perf_counter()
        u0 = fem.project_scalar(msh, MSOL.initial)
        t3 = time.perf_counter()
        times["mesh"].append(t1 - t0)
        times["forms"].append(t2 - t1)
        times["total"].append(t3 - t0)
    return msh, forms, u0


def run_pass(workload, setup, detail):
    """One pass of the workload under a tracer.

    Returns the op records, the tracer (whose wall time runs from the
    first call to the last result) and the exception an op raised, if
    any, as text.
    """
    tracer = Tracer(detail)
    ops = []
    error = None
    with tracer:
        try:
            workload.run(ops, *setup)
        except Exception as exc:  # the ops not yet recorded count as failed
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
    return ops, tracer, error


def aslr_off():
    """Whether this process runs without address-space randomization."""
    path = Path("/proc/self/personality")
    return path.exists() and bool(int(path.read_text(), 16) & 0x0040000)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "aslr_off": aslr_off(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(passes, times, rss_mb):
    """Metrics of an untraced run, as {name: (value, unit)}.

    ``rss_mb`` is the peak resident memory up to the end of the first pass.
    """
    return {
        "wall_s": (statistics.median(t.wall_s for _, t, _ in passes), "s"),
        "setup_s": (min(times["total"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def layer_metrics(tracer, untraced_wall, times):
    """Per-layer metrics of a traced pass, as {name: (value, unit)}."""
    calls, secs = tracer.layer_totals()
    counts = tracer.counts()
    iterations = counts["schemes.iterations"]
    ref_iterations = counts["benchmark.reference_iterations"]
    accounted = sum(secs[k] for k in ("solve", "norm", "storage", "factorize",
                                      "assemble", "schemes_self",
                                      "benchmark_self"))
    metrics = {
        "mesh.build_s": (min(times["mesh"]), "s"),
        "fem.assemble_forms_s": (min(times["forms"]), "s"),
        "fem.norm_calls": (calls["norm"], "count"),
        "fem.norm_s": (secs["norm"], "s"),
        "nonlinearity.storage_calls": (calls["storage"], "count"),
        "nonlinearity.storage_s": (secs["storage"], "s"),
        "linear_system.solve_calls": (calls["solve"], "count"),
        "linear_system.solve_s": (secs["solve"], "s"),
        "linear_system.factorize_calls": (calls["factorize"], "count"),
        "linear_system.factorize_s": (secs["factorize"], "s"),
        "linear_system.factor_nnz": (tracer.factor_nnz, "count"),
        "linear_system.assemble_calls": (calls["assemble"], "count"),
        "linear_system.assemble_s": (secs["assemble"], "s"),
        "linear_system.singular": (sum(tracer.singular.values()), "count"),
    }
    metrics.update((k, (v, "count")) for k, v in counts.items()
                   if k.startswith("schemes."))
    metrics.update({
        "schemes.iterate_s": (secs["iterate_span"], "s"),
        "schemes.self_s": (secs["schemes_self"], "s"),
        "schemes.us_per_iteration":
            (1e6 * secs["iterate_span"] / max(iterations, 1), "us"),
        "benchmark.reference_s": (secs["reference_span"], "s"),
        "benchmark.reference_iterations": (ref_iterations, "count"),
        "benchmark.reference_escalations":
            (counts["benchmark.reference_escalations"], "count"),
        # 1 when there is no reference: nothing was wasted.
        "benchmark.reference_useful_frac":
            (counts["benchmark.reference_useful_iterations"] / ref_iterations
             if ref_iterations else 1.0, "ratio"),
        "benchmark.table_s.hl": (secs["table_span.hl"], "s"),
        "benchmark.table_s.newton": (secs["table_span.newton"], "s"),
        "benchmark.self_s": (secs["benchmark_self"], "s"),
        "trace_overhead_frac": (tracer.wall_s / untraced_wall - 1.0, "ratio"),
        "trace_accounted_frac": (accounted / tracer.wall_s, "ratio"),
    })
    return metrics


def consistency_failures(tracer, counts):
    """Traced counters that disagree with the counts from the reports."""
    calls, _ = tracer.layer_totals()
    expected_solves = (counts["schemes.iterations"]
                       - tracer.singular["factorize"])
    checks = [
        ("linear_system.factorize_calls", calls["factorize"],
         counts["linear_system.factorizations"]),
        ("linear_system.assemble_calls", calls["assemble"],
         counts["linear_system.factorizations"]),
        ("linear_system.solve_calls", calls["solve"], expected_solves),
    ]
    return [f"{name} is {got}, the reports give {want}"
            for name, got, want in checks if got != want]


def stress_warnings(name, workload, metrics):
    """Say when a workload no longer stresses the layer it was chosen for,
    or when time outside the drivers takes more than its share."""
    value = {key: v for key, (v, _) in metrics.items()}
    warnings = []
    if workload.dominant is not None:
        largest = max(SELF_TIMES, key=value.get)
        if largest != workload.dominant:
            warnings.append(f"{largest} is the largest layer, not "
                            f"{workload.dominant}")
    if name == "stall-n11":
        escalations = value["benchmark.reference_escalations"]
        useful = value["benchmark.reference_useful_frac"]
        if escalations != 1 or not 0.25 <= useful <= 0.40:
            warnings.append(f"{escalations} L escalations and useful "
                            f"fraction {useful:.3f}; chosen for 1 and 0.32")
    if value["trace_accounted_frac"] < ACCOUNTED_MIN:
        warnings.append(f"layers and drivers account for only "
                        f"{value['trace_accounted_frac']:.3f} of the traced "
                        f"wall time")
    return warnings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its results as the "
                             "expected ones in expected.json")
    args = parser.parse_args(argv)

    if not Path(degenmfem.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported degenmfem from {degenmfem.__file__}, not "
              f"from this checkout", file=sys.stderr)
        return 2

    name, workload = args.workload, WORKLOADS[args.workload]
    # The machine's speed drifts over seconds to minutes, so set-ups are
    # timed before the first pass and after every pass, and setup_s is the
    # fastest of all of them: a slow stretch cannot raise it unless it
    # covers the whole run.
    times = {"mesh": [], "forms": [], "total": []}
    setup = set_up(workload.n, times)

    if args.record:
        ops, tracer, error = run_pass(workload, setup, detail=False)
        if error is not None:
            print(f"error: not recorded, {error}", file=sys.stderr)
            return 1
        record = (json.loads(EXPECTED_PATH.read_text())
                  if EXPECTED_PATH.exists() else {})
        record[name] = {"ops": ops, "counts": tracer.counts()}
        EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n")
        print(f"recorded {len(ops)} ops of {name} in {EXPECTED_PATH.name}",
              file=sys.stderr)
        return 0

    expected = json.loads(EXPECTED_PATH.read_text())[name]
    passes = []  # (ops, tracer, error)
    if args.trace:
        passes.append(run_pass(workload, setup, detail=False))
        passes.append(run_pass(workload, setup, detail=True))
    else:
        # Another pass starts only if it should end less than half a pass
        # after --seconds, so a run overshoots by at most about that.
        start = time.perf_counter()
        while True:
            passes.append(run_pass(workload, setup, detail=False))
            if len(passes) == 1:
                # The number of passes depends on the machine's speed,
                # and each one adds allocator history.
                rss_mb = peak_rss_mb()
            set_up(workload.n, times)
            typical = statistics.median(t.wall_s for _, t, _ in passes)
            if time.perf_counter() - start + typical / 2 >= args.seconds:
                break

    failures, errors = [], []
    attempted = 0
    counts = passes[0][1].counts()
    for i, (ops, tracer, error) in enumerate(passes, start=1):
        failures += [f"pass {i}: {msg}"
                     for msg in check_ops(expected["ops"], ops)]
        attempted += len({op["op"] for op in expected["ops"] + ops})
        if error is not None:
            errors.append(f"pass {i}: raised {error}")
        # Counts and results must repeat exactly from pass to pass.
        if i > 1:
            errors += [f"pass {i}: {msg}"
                       for msg in count_changes(counts, tracer.counts())]
            if ops != passes[0][0]:
                errors.append(f"pass {i}: results differ from pass 1")
    notices = count_changes(expected["counts"], counts)

    if args.trace:
        tracer = passes[1][1]
        errors += consistency_failures(tracer, counts)
        tracer.check_exercised(workload.layers)
        metrics = layer_metrics(tracer, passes[0][1].wall_s, times)
        notices += stress_warnings(name, workload, metrics)
    else:
        metrics = end_to_end_metrics(passes, times, rss_mb)
    failed = len(failures)

    for msg in failures:
        print(f"FAILED {name} {msg}", file=sys.stderr)
    for msg in errors:
        print(f"ERROR {name} {msg}", file=sys.stderr)
    for msg in notices:
        print(f"WARNING {name} {msg}", file=sys.stderr)
    shown = dict(metrics, ops=(attempted, "count"), ops_failed=(failed, "count"))
    for key, (value, unit) in shown.items():
        print(f"{name}  {key} = {value:.6g} {unit}")
    print(f"{name}  {len(passes)} passes, {len(times['total'])} set-ups")
    detail = {"workload": name, "seed": args.seed, "trace": args.trace,
              "pass_wall_s": [t.wall_s for _, t, _ in passes],
              "setup_reps": len(times["total"]),
              "counts": counts, "warnings": notices, "errors": errors,
              "environment": environment()}
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
