"""Benchmark of degenmfem: runs each workload in a fresh process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--record]

Each workload runs in its own child process (``workloads.py``), one at a
time, with the BLAS thread count pinned to 1, a fixed Python hash seed
and, on Linux, address-space layout randomization off.  The child's output is
passed through, so with one workload the last line of standard output is
that workload's JSON result.  With ``--workload all`` (the default) the
results of every workload, with the machine they ran on, are also written
to ``perfbench/out/results.json`` (``results_trace.json`` with
``--trace 1``).  ``--record`` stores each workload's results as the
expected ones in ``expected.json``.

Run it from the root of a checkout: the program is imported from its
``src/`` directory, and without one the command fails.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table-n32", "newton-n64", "stall-n11")
# With a fixed hash seed and a fixed address-space layout, the child
# allocates almost the same memory on every run: the peak resident memory
# of newton-n64's first pass read 149.02 to 149.08 MB over twenty runs,
# and moved between 139 and 153 MB with either left random.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# A run of one workload must end within 180 s.
CHILD_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Turn off address-space layout randomization for the child."""
    personality = ctypes.CDLL(None, use_errno=True).personality
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def run_child(workload, args):
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.record:
        cmd.append("--record")
    env = dict(os.environ, **PINNED)
    try:
        child = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
            preexec_fn=fixed_layout if sys.platform == "linux" else None)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    if child.returncode != 0:
        print(f"error: {workload} exited with code {child.returncode}",
              file=sys.stderr)
        return None
    return child.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="about how long a run measures, in whole "
                             "passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "degenmfem" / "__init__.py").is_file():
        print(f"error: no degenmfem sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        stdout = run_child(name, args)
        if stdout is None:
            return 1
        if not args.record:
            lines = stdout.splitlines()
            detail = next(line for line in lines if line.startswith("detail "))
            results[name] = {"detail": json.loads(detail[len("detail "):]),
                             "result": json.loads(lines[-1])}

    if args.workload == "all" and not args.record:
        out = HERE / "out" / (
            "results_trace.json" if args.trace else "results.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
