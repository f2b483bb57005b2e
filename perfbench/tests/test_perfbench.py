"""Tests of the benchmark runner itself: metric names and the checker."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((BENCH / "references.json").read_text())

# One lab sample's operations as this commit computes them.
LAB_OPS = [
    {"name": "infsup_n1", "beta": REFS["lab"]["beta"]["1"]},
    {"name": "kernel_n1", "ratio": 0.19999999999999796, "kernel_dim": 126, "bound": 0.2},
    {"name": "infsup_n2", "beta": REFS["lab"]["beta"]["2"]},
    {"name": "kernel_n2", "ratio": 0.19999999999999601, "kernel_dim": 792, "bound": 0.2},
    {"name": "commute", "d1": 4.739812970070385e-08, "d2": 4.73981297938443e-08,
     "d3": 9.780294417963378e-16},
]


def _spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_metrics_match_benchmark_json():
    assert run.END_TO_END == _spec_units("end_to_end")
    assert run.PER_LAYER == _spec_units("per_layer")
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "lab", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _spec_units(kind)
    assert result["correct"] and result["attempted"] % len(LAB_OPS) == 0


def test_checker_counts_only_the_known_gate_miss():
    verdicts = run.check_sample("lab", 1, LAB_OPS, REFS)
    assert [v["name"] for v in verdicts if v["failed"]] == ["commute"]
    assert not any(v["wrong"] for v in verdicts)
    assert run.gate_margin(verdicts) == pytest.approx(47.39812970070385)


def _failed(workload, ops):
    return [v["name"] for v in run.check_sample(workload, 1, ops, REFS) if v["failed"]]


def test_checker_fails_a_perturbed_beta():
    ops = copy.deepcopy(LAB_OPS)
    ops[2]["beta"] *= 1 + 1e-5
    verdicts = run.check_sample("lab", 1, ops, REFS)
    assert verdicts[2]["failed"] and verdicts[2]["wrong"]
    assert _failed("lab", ops) == ["infsup_n2", "commute"]


def test_checker_fails_a_perturbed_error_total():
    ref = REFS["p-mixed"]["error_total"]["1"]
    ok = [{"name": "solve", "error_total": ref, "sigma_hdiv": 0.1, "u_l2": 0.1, "p_l2": 0.1}]
    assert _failed("p-mixed", ok) == []
    bad = copy.deepcopy(ok)
    bad[0]["error_total"] = ref * (1 + 1e-5)
    assert _failed("p-mixed", bad) == ["solve"]


def test_checker_fails_raised_and_non_finite_operations():
    ops = copy.deepcopy(LAB_OPS)
    ops[0] = {"name": "infsup_n1", "error": "FactorizationBreakdown: residual 1e-7"}
    ops[3]["ratio"] = float("nan")
    verdicts = run.check_sample("lab", 1, ops, REFS)
    assert [v["name"] for v in verdicts if v["wrong"]] == ["infsup_n1", "kernel_n2"]


def test_checker_fails_a_missed_gate():
    ops = copy.deepcopy(LAB_OPS)
    ops[1]["ratio"] = 0.19
    assert _failed("lab", ops) == ["kernel_n1", "commute"]
