"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import layers
import run
import workloads

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(workload, trace, cwd=ROOT, seconds="1"):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())
    table = proc.stdout.splitlines()
    assert any(line.split()[:3] == ["fail_frac", "0", "failed/attempted"] for line in table)
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in table)


UNIT_COUNTS = {
    "analysis-dense": {"census.calls_per_unit": 3},
    "mc-coverage": {"census.calls_per_unit": 2},
    "ci-bootstrap": {"bootstrap.distribution_calls": 2, "census.calls_per_unit": 2 * 100 + 3},
    "ci-sparse-file": {"census.calls_per_unit": 1},
}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_per_layer_metric(workload):
    out = result(bench(workload, 1))
    assert out["correct"] is True and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, value in UNIT_COUNTS[workload].items():
        assert out["metrics"][name]["value"] == value


def test_layer_lists_agree_with_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)


def test_tampered_output_counts_as_failed_not_slow(monkeypatch):
    workload = workloads.WORKLOADS["ci-bootstrap"]
    spawner = run.Spawner()
    try:
        ctx = workloads.Context(ROOT, workload.name, "toy", 0, spawner, run.child_env())
        workload.setup(ctx, False, 0)
        workload.prepare(ctx)
        honest = workload.outputs

        def tampered(ctx, stdout):
            out = honest(ctx, stdout)
            out["report"]["ci_upper"] *= 1.0 + 1e-7
            return out

        monkeypatch.setattr(workload, "outputs", tampered)
        ops = workload.run_ops(ctx, 0, False)
    finally:
        spawner.close()
    assert len(ops) == workloads.MIN_OPS
    assert all(op["problems"] and op["wall_s"] > 0 for op in ops)
    assert "ci_upper" in ops[0]["problems"][0]


def test_checks_tolerance_and_exact_counts():
    assert checks.compare({"a": 1.0, "k": 3}, {"a": 1.0 + 1e-12, "k": 3}) == []
    assert checks.compare({"a": 1.0}, {"a": 1.0 + 1e-8})
    assert checks.compare({"k": 3}, {"k": 4})
    own = {"n": 10, "total": 12, "balanced": 7}
    report = {"n": 10, "V_hat": 12 / 120, "U_hat": 7 / 120}
    assert checks.census_vs_own(report, own) == []
    assert checks.census_vs_own(dict(report, U_hat=8 / 120), own)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, "harness.run_coverage", None, 0, 1, 0.0, 10.0, {"threads": 2}, None],
        [2, "graphon.sample_network", 1, 0, 2, 1.0, 4.0, None, None],
        [3, "inference.confidence_interval", 1, 0, 2, 4.0, 5.0, None, None],
        [4, "inference.sample_moments", 3, 0, 2, 4.0, 4.5, None, "NoTriangleError"],
        [5, "graphon.sample_network", 1, 0, 3, 2.0, 6.0, None, None],
    ]
    m = layers.op_metrics(spans)
    assert m["harness.self_s"] == pytest.approx(10.0 - 5.0)
    assert m["harness.replicates"] == 2
    assert m["harness.dropped_no_triangle"] == 1
    assert m["harness.pool_busy_frac"] == pytest.approx(8.0 / 20.0)
    assert m["inference.report_s"] == pytest.approx(0.5)


def test_fails_without_a_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(NAMES[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
