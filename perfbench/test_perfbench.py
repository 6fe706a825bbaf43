"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke runs make every workload's calls and output checks at small
sizes, plain and traced, in a few seconds each.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    res = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--smoke")
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


def test_run_without_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench("--workload", "curvelab", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_same_calls(workload):
    first = [c.args for c in workloads.build(workload, 5)]
    assert first == [c.args for c in workloads.build(workload, 5)]


def test_jittered_grid_keeps_endpoints_and_total_length():
    base = workloads.jittered_grid(random.Random(0), 5_000_000, 20)
    for seed in range(1, 20):
        grid = workloads.jittered_grid(random.Random(seed), 5_000_000, 20)
        assert grid[0] == base[0] and grid[-1] == base[-1]
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert abs(sum(grid) - sum(base)) <= 20


def test_safe_prime_has_requested_digits():
    n = workloads.safe_prime(random.Random(3), 12)
    assert len(str(n)) == 12
    assert workloads.is_prime(n) and workloads.is_prime((n - 1) // 2)


T3_OK = "x,empirical,predicted,residual,normalized\n1000000,1033334,1033333.3,0.7,0.05\n"
CURVES_OK = [{"N": 20, "hasse_primes": [17, 19, 23], "expected_m": 0.1, "predicted": 0.1}]


@pytest.mark.parametrize("check, text", [
    (workloads.check_t3, T3_OK.replace("0.05", "1.6")),
    (workloads.check_t3, T3_OK.replace("1033334", "1035000")),
    (workloads.check_t3, "garbage"),
    (lambda t: workloads.check_ratio(t, tol=1e-3), T3_OK.replace("1033334", "1034500")),
    (workloads.check_gap, "x,gap\n4000000,0.06\n"),
    (workloads.check_c2, json.dumps({"value": 0.6601, "tail_bound": 2e-8})),
    (lambda t: workloads.check_curvelab(t, 20, 20),
     json.dumps([dict(CURVES_OK[0], hasse_primes=[17, 37])])),
    (lambda t: workloads.check_curvelab(t, 20, 20),
     json.dumps([dict(CURVES_OK[0], expected_m=0.2)])),
])
def test_checks_reject_wrong_output(check, text):
    assert check(text)


def test_checks_accept_right_output():
    assert workloads.check_t3(T3_OK) is None
    assert workloads.check_curvelab(json.dumps(CURVES_OK), 20, 20) is None


def test_tracer_wraps_every_binding():
    from shiftmean import arith, curveconst

    tracer = spans.Tracer()
    original = arith.multiplicative_table
    try:
        spans.install(tracer, traced=(("arith", "multiplicative_table", "sweep"),))
        assert curveconst.multiplicative_table is not original
        curveconst.mean_order_grid("t2a", [100], c2=curveconst.twin_prime_constant(100))
    finally:
        for name, module in list(sys.modules.items()):
            if name.startswith("shiftmean") and hasattr(module, "multiplicative_table"):
                module.multiplicative_table = original
    assert [s[0] for s in tracer.spans] == ["arith.multiplicative_table"] * 2
    assert spans.uncovered("sweep", [tracer.spans]) == [
        f"{m}.{a}" for m, a, w in spans.TRACED if w == "sweep" and a != "multiplicative_table"]


def test_tracer_fails_loudly_on_a_renamed_function():
    with pytest.raises(LookupError, match="arith.no_such_function"):
        spans.install(spans.Tracer(), traced=(("arith", "no_such_function", "tables"),))


def test_self_time_subtracts_children():
    tree = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    assert spans.self_times(tree) == {"a": 7.0, "b": 2.0, "c": 1.0}
