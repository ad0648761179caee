"""Self-test of the benchmark, at toy sizes.

    python3 -m pytest -q bench/test_bench.py

Runs bench/run.py as a subprocess, the way it is run for real: checks the
result line against BENCHMARK.json, that two traced runs with one seed give
bit-identical work counts, and that the benchmark refuses to run without
the package source.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("train_ref", "eval_gallery", "gradcheck")
# per-layer values that count work rather than time it
EXACT_SUFFIXES = (".calls", ".pairs", ".rows", ".evals", ".accept_ratio", ".skipped_query_ratio")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, trace, seed=7, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc


def result(workload, trace, seed=7):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(res, metrics):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    res = result(workload, trace=0)
    check_schema(res, spec()["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, trace=1), result(workload, trace=1)
    check_schema(first, spec()["per_layer"])
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert any(first["metrics"][k]["value"] for k in exact)
    for key in exact:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_spec_is_well_formed():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("train_ref", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_host_clock_times_units_without_kernel_time():
    from hostclock import HostClock
    def step():
        time.sleep(0.03)
    namespace = {"step": step}
    clock = HostClock()
    clock.mark(namespace, "step", begin=True, finish=True)
    t0 = time.perf_counter()
    clock.start()
    for _ in range(3):
        namespace["step"]()
    clock.stop()
    elapsed = time.perf_counter() - t0
    clock.uninstall()
    assert namespace["step"] is step
    assert len(clock.units) == 3 and all(u > 0 for u in clock.units)
    assert sum(clock.unit_walls) >= 0.09
    assert clock.wall < elapsed  # kernel runs lie between segments


def test_trimmed_mean_drops_one_repeat_at_each_end_from_five():
    from run import trimmed_mean
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    assert trimmed_mean([100.0, 2.0, 3.0, 4.0, 0.0]) == 3.0
    assert list(trimmed_mean([[1.0, 10.0], [3.0, 30.0]])) == [2.0, 20.0]
