"""Paired benchmark runs of two checkouts, alternating which goes first.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W
                                 --pairs N [--seconds S] [--out FILE]

Each pair runs ``perfbench/run.py --workload W`` once in each checkout,
from that checkout's root and with its own ``perfbench``; the parent goes
first in even pairs and the change in odd ones, so a slow stretch of the
machine falls on both sides alike.  Without ``--seconds`` each run
measures for ``run.py``'s default.  Both checkouts must sit at paths of
the same length: the benchmark's ``wall_s`` and ``peak_rss_mb`` have been
seen to move with it.

The result, printed and written to ``--out`` if given, holds every pair's
results, whether every run was correct, and per end-to-end metric each
side's median and quartiles and the number of pairs in which the change
is better, by the direction ``BENCHMARK.json`` in the change's checkout
gives it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seconds):
    """The JSON result of one ``perfbench/run.py`` run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    child = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                           text=True)
    if child.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited with "
                         f"code {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])


def quartiles(values):
    """Median and the lower and upper quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    """Each side's quartiles and the change's wins per end-to-end metric."""
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric.get("better", "lower") == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        summary[name] = {
            "better": "lower" if lower else "higher",
            "parent": quartiles(values["parent"]),
            "change": quartiles(values["change"]),
            "change_better_in": wins,
            "pairs": len(pairs),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(f"the checkouts' paths differ in length ({sides['parent']}"
                     f", {sides['change']}); the benchmark's memory and time "
                     f"move with it, so put them at paths of equal length")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    end_to_end = json.loads(
        (sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g}"
            f" -> {pair['change']['metrics'][m['name']]['value']:.4g}"
            for m in end_to_end), file=sys.stderr, flush=True)

    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "parent_dir": str(sides["parent"]),
        "change_dir": str(sides["change"]),
        "correct": all(p[side]["correct"] for p in pairs
                       for side in ("parent", "change")),
        "summary": summarize(pairs, end_to_end),
        "pairs": pairs,
    }
    text = json.dumps(result, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
