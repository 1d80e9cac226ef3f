"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests -q``."""

import json
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: a seed used nowhere while the benchmark was written
HELD_OUT_SEED = 90817

EXACT_SUFFIXES = (".calls", ".cycles", ".escapes", ".seam_fallthroughs", ".holds",
                  ".inversions_per_cycle", ".low_start_unconverged")


def run_bench(root, workload, seed, trace, seconds=0.3):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_passes(result, metric_specs):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metric_specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(run_bench(ROOT, workload, seed=1, trace=0))
    assert_passes(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_every_check(workload):
    assert_passes(result_of(run_bench(ROOT, workload, HELD_OUT_SEED, trace=0)),
                  SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    gen = inputs.GENERATORS[workload]
    first = list(islice(gen(7), 40))
    assert first == list(islice(gen(7), 40))
    assert first != list(islice(gen(8), 40))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_exact_counts_repeat(workload):
    runs = [result_of(run_bench(ROOT, workload, seed=3, trace=1)) for _ in range(2)]
    for result in runs:
        assert_passes(result, SPEC["per_layer"])
    exact = [{k: m["value"] for k, m in r["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
             for r in runs]
    assert exact[0] == exact[1]
    if workload == "landing":
        assert exact[0]["detector.inversions_per_cycle"] == 3.0
        assert exact[0]["simulator.cycles"] > 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("geometry.phase_solution", lambda: time.sleep(0.02))
    outer = tracer.wrap("simulator.sense", lambda: (time.sleep(0.01), inner()))
    outer()
    summary = tracer.summary()
    calls, inclusive, self_ns = summary["simulator.sense"]
    assert calls == 1
    assert self_ns == inclusive - summary["geometry.phase_solution"][1]
    assert self_ns >= 0.01e9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".run-*"))
    proc = run_bench(tmp_path, WORKLOADS[0], seed=1, trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
