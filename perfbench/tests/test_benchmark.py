"""Tests of the benchmark itself: self-time arithmetic, the correctness gate,
and that a traced call's counts repeat exactly.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import aggregate  # noqa: E402
from workloads import WORKLOADS, gate, load_reference  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
COUNT_METRICS = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].endswith(run.COUNT_FIELDS) or m["name"] == "solver.level_steps"
]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", -1, 0.0, 10.0, 0],
        ["solver.solve", 0, 1.0, 9.0, 0],
        ["kernel.fft", 1, 2.0, 3.0, 64],
        ["spectral.inverse_transform", 1, 4.0, 7.0, 0],
        ["kernel.fft", 3, 5.0, 6.0, 64],
    ]
    stats = aggregate(spans)
    assert stats["cli.main"]["self_s"] == pytest.approx(2.0)
    assert stats["solver.solve"]["self_s"] == pytest.approx(4.0)
    assert stats["spectral.inverse_transform"]["self_s"] == pytest.approx(2.0)
    assert stats["kernel.fft"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "amount": 128}
    assert stats["kernel.fft.from.solver"]["self_s"] == pytest.approx(1.0)
    assert stats["kernel.fft.from.spectral"]["self_s"] == pytest.approx(1.0)
    assert run.layer_value("layer.kernel.self_s", stats, 0) == pytest.approx(2.0)
    assert run.layer_value("kernel.fft.bytes_computed", stats, 0) == 128 * 16


def test_every_declared_per_layer_metric_is_measurable():
    stats = aggregate([["cli.main", -1, 0.0, 1.0, 0]])
    for metric in SPEC["per_layer"]:
        if metric["name"] not in ("process.cpu_s", "trace.overhead_s"):
            run.layer_value(metric["name"], stats, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_accepts_reference_and_rejects_perturbations(workload):
    reference = load_reference(workload)["seeds"]["0"]
    assert gate(copy.deepcopy(reference), reference) == []

    if reference["checks"]:
        failing = copy.deepcopy(reference)
        check = next(iter(failing["checks"].values()))
        check["verdict"] = "fail"
        assert gate(failing, reference)
        drifted = copy.deepcopy(reference)
        fits = next(iter(drifted["checks"].values()))["fits"]
        key = next(k for k, v in fits.items() if isinstance(v, float) and v != 0.0)
        fits[key] *= 1 + 1e-6
        assert gate(drifted, reference)
    for name, table in reference["tables"].items():
        drifted = copy.deepcopy(reference)
        rows = drifted["tables"][name]["rows"]
        max(rows, key=lambda row: abs(row[-1]))[-1] *= 1 + 1e-6
        assert gate(drifted, reference), name
        if "l2" in table["columns"]:
            growing = copy.deepcopy(reference)
            c = table["columns"].index("l2")
            growing["tables"][name]["rows"][-1][c] = table["rows"][0][c] * 2
            assert any("l2 increases" in f for f in gate(growing, reference))
    missing = copy.deepcopy(reference)
    missing["files"] = missing["files"][1:]
    assert gate(missing, reference)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    reference = load_reference(workload)
    env = run.child_env()
    counts = []
    for i in range(2):
        call = run.run_call(workload, 0, True, env, tmp_path / f"call-{i}", reference,
                            run.clock() + run.RUN_LIMIT_S)
        assert call.failures == []
        counts.append({name: run.layer_value(name, call.stats, call.level_steps) for name in COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["kernel.fft.calls"] > 0
    assert counts[0]["bilinear.apply_bilinear.calls"] == 0
