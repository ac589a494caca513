"""Digests of the benchmark's time series, to compare checkouts bit for bit.

    python3 tools/series_digest.py [CHECKOUT ...] [--n 5,33,48,64,65]

For each n, three series of the manufactured problem at tau = 0.05 run
with increment stopping: Newton with the ``newton-n64`` workload's
configuration (linear regularization, tol 1e-8, 10 steps) at eps 1e-3
and 1e-4, and hl with the L of TOL 1e-3 (tol 1e-6, 3 steps), which
condenses the skeleton on levels past n = 32.  Then, as in the tables,
the ``compute_reference`` series at tau = 0.05 (10 steps), and lreg and
Newton at TOL 1e-4 and eps 1e-3 stopping against it.  Each line gives the
sha256 of every step's ``u``, of every ``q``, of the iteration counts, of
the convergence flags and failure reasons, and of the error histories,
the first 16 hex digits of each.

Without a checkout the series run on the ``degenmfem`` this script's
repository holds.  Each checkout given runs them in a process of its own,
on its ``src``; with two or more, every line is compared with the first
checkout's and the exit code is 1 if any differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("u", "q", "iterations", "flags", "errors")


def _digest(parts):
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else repr(part).encode())
    return sha.hexdigest()[:16]


def series_digests(ns):
    """The source file of the importable ``degenmfem`` and its digests,
    {"series n": {field: digest}}."""
    import degenmfem
    from degenmfem import benchmark, fem, mesh, schemes
    from degenmfem.nonlinearity import RegularizationSpec
    from degenmfem.theory import select_delta

    msol = benchmark.DEFAULT_SOLUTION
    spec = msol.nonlinearity()
    tau = 0.05
    configs = {f"newton-eps{eps:g}": (schemes.SchemeConfig(
        kind="newton", tau=tau,
        stopping=schemes.StoppingCriterion(mode="increment", tol=1e-8),
        regularization=RegularizationSpec(kind="linear", epsilon=eps,
                                          base=spec)), 10)
        for eps in (1e-3, 1e-4)}
    configs["hl"] = (schemes.SchemeConfig(
        kind="hl", tau=tau,
        stopping=schemes.StoppingCriterion(mode="increment", tol=1e-6),
        nonlinearity=spec, L=float(select_delta(1e-3, tau, spec)[1])), 3)
    n_steps = benchmark.steps_for_tau(msol, tau)
    against = {f"{kind}-ref": benchmark.scheme_config(kind, 1e-4, tau, 1e-3)
               for kind in ("lreg", "newton")}
    out = {}
    for n in ns:
        msh = mesh.build_structured_unit_square(n)
        forms = fem.assemble_forms(msh, msol.boundary_value)
        u0 = fem.project_scalar(msh, msol.initial)
        source = benchmark.make_source_provider(msh, msol)
        runs = {name: schemes.run_time_series(config, msh, forms, u0, source,
                                              steps)
                for name, (config, steps) in configs.items()}
        runs["reference"] = benchmark.compute_reference(msh, forms, tau,
                                                        n_steps)
        fields = [r.u for r in runs["reference"]]
        runs.update((name, schemes.run_time_series(
            config, msh, forms, u0, source, n_steps, references=fields))
            for name, config in against.items())
        for name, series in runs.items():
            reports = [r.report for r in series]
            out[f"{name} n={n}"] = dict(zip(FIELDS, (
                _digest(r.u.tobytes() for r in series),
                _digest(r.q.tobytes() for r in series),
                _digest(r.iterations_used for r in reports),
                _digest((r.converged, r.failure_reason) for r in reports),
                _digest(r.error_history for r in reports))))
    return degenmfem.__file__, out


def run_checkout(checkout, ns):
    """The digests of ``checkout``'s ``src``, from a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    child = subprocess.run(
        [sys.executable, __file__, "--n", ",".join(map(str, ns)), "--json"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(child.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path)
    parser.add_argument("--n", default="5,33,48,64,65",
                        help="comma-separated mesh sizes")
    parser.add_argument("--json", action="store_true",
                        help="print this process's digests as JSON")
    args = parser.parse_args(argv)
    ns = [int(n) for n in args.n.split(",")]

    if not args.checkouts:
        # After PYTHONPATH, which names a checkout's src in its process.
        sys.path.append(str(ROOT / "src"))
        source, digests = series_digests(ns)
        if args.json:
            print(json.dumps([source, digests]))
            return 0
        results = {source: digests}
    else:
        results = dict(run_checkout(c.resolve(), ns) for c in args.checkouts)

    first = next(iter(results.values()))
    differ = False
    for source, digests in results.items():
        print(f"# degenmfem from {source}")
        for key, fields in digests.items():
            same = fields == first[key]
            differ |= not same
            mark = "" if len(results) == 1 else ("  same" if same
                                                 else "  DIFFERS")
            print(f"{key:<22} " + " ".join(
                f"{f}={fields[f]}" for f in FIELDS) + mark)
    if len(results) > 1:
        print("all series identical" if not differ
              else "series differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
