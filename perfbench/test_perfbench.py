"""Checks of the benchmark's own logic; they run no workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(workloads.EXPECTED_PATH.read_text())
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_a_record(name):
    assert EXPECTED[name]["ops"]
    assert workloads.check_ops(EXPECTED[name]["ops"],
                               EXPECTED[name]["ops"]) == []


@pytest.mark.parametrize("workload, op_index, key, change", [
    ("table-n32", 1, "csv", lambda v: v.replace(",371,", ",372,")),
    ("table-n32", 0, "converged", lambda v: v[:-1] + [False]),
    ("table-n32", 0, "disc_error", lambda v: v[:-1] + [v[-1] + 1e-7]),
    ("newton-n64", 9, "disc_error", lambda v: v * 1.01),
    ("newton-n64", 4, "mass_balance", lambda v: v + 1e-6),
    ("newton-n64", 0, "converged", lambda v: False),
    ("stall-n11", 20, "disc_error", lambda v: v - 1e-7),
])
def test_a_changed_result_is_caught(workload, op_index, key, change):
    actual = copy.deepcopy(EXPECTED[workload]["ops"])
    actual[op_index][key] = change(actual[op_index][key])
    failures = workloads.check_ops(EXPECTED[workload]["ops"], actual)
    assert len(failures) == 1
    assert failures[0].startswith(actual[op_index]["op"] + f": {key}")


def test_a_change_within_tolerance_passes():
    actual = copy.deepcopy(EXPECTED["newton-n64"]["ops"])
    actual[3]["disc_error"] += workloads.DISC_ERROR_TOL / 2
    actual[3]["mass_balance"] += workloads.MASS_BALANCE_TOL / 2
    assert workloads.check_ops(EXPECTED["newton-n64"]["ops"], actual) == []


def test_missing_and_unrecorded_ops_fail():
    ops = EXPECTED["stall-n11"]["ops"]
    actual = ops[:30] + [{"op": "step 99", "converged": True}]
    failures = workloads.check_ops(ops, actual)
    assert len(failures) == len(ops) - 30 + 1
    assert failures[-1] == "step 99: not in the record"


def test_changed_counts_are_named():
    counts = dict(EXPECTED["stall-n11"]["counts"])
    counts["benchmark.reference_escalations"] += 1
    [message] = workloads.count_changes(EXPECTED["stall-n11"]["counts"],
                                        counts)
    assert message.startswith("benchmark.reference_escalations is")


def test_a_moved_name_fails_loudly(monkeypatch):
    from degenmfem import schemes

    monkeypatch.delattr(schemes, "solve")
    with pytest.raises(tracer.TracerError, match="degenmfem.schemes.solve"):
        tracer.Tracer(detail=True).install()


def test_install_restores_every_name():
    from degenmfem import benchmark, schemes

    before = (schemes.solve, schemes.hl_iterate, benchmark.hl_iterate)
    with tracer.Tracer(detail=True):
        assert schemes.solve is not before[0]
    assert (schemes.solve, schemes.hl_iterate, benchmark.hl_iterate) == before


def test_a_layer_without_calls_fails_loudly():
    t = tracer.Tracer(detail=True)
    with t:
        pass
    with pytest.raises(tracer.TracerError, match="degenmfem.schemes.solve"):
        t.check_exercised(("solve",))


def test_metrics_are_the_ones_benchmark_json_lists():
    t = tracer.Tracer(detail=True)
    with t:
        pass
    times = {"mesh": [0.1], "forms": [0.2], "total": [0.3]}
    for metrics, listed in [
            (workloads.end_to_end_metrics([([], t, None)], times, 1.0),
             BENCHMARK["end_to_end"]),
            (workloads.layer_metrics(t, 1.0, times), BENCHMARK["per_layer"])]:
        assert {k: unit for k, (_, unit) in metrics.items()} == \
            {m["name"]: m["unit"] for m in listed}
