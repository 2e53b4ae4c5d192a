"""Tests of the benchmark itself: tracer hygiene, smoke runs, and the result contract."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads
from wrfss import cec2010, constraint_handling, engine, harness, school

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# Disjoint layers whose self times make up the whole traced total, together
# with the tracer's own bookkeeping. gradient.probe_eval.self_s is a subset of
# problem.evaluate_many.self_s and is left out.
LAYER_SELF_TIMES = (
    "problem.evaluate_many.self_s",
    "cec2010.load_problem_s",
    "cec2010.feasible_ratio.self_s",
    "niching.link_formator.self_s",
    "constraint_handling.best_index.self_s",
    "constraint_handling.epsilon_less_arrays.self_s",
    "constraint_handling.normalized_feeding.self_s",
    "constraint_handling.RunningExtremes.update.self_s",
    "school.StepSchedule.at.self_s",
    "engine.self_s",
    "harness.self_s",
)

OWNERS = (harness, engine, cec2010, constraint_handling.RunningExtremes, school.StepSchedule)


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def _assert_same(before, after):
    for b, a in zip(before, after):
        assert a.keys() == b.keys()
        changed = [k for k in b if a[k] is not b[k]]
        assert changed == []


def test_tracer_restores_every_attribute_when_the_block_raises():
    before = _snapshot()
    with pytest.raises(ValueError, match="samples must be >= 1"):
        with spans.Tracer() as tr:
            assert harness.run_batch is not before[0]["run_batch"]
            problem = cec2010.load_problem("C01", source="surrogate").problem
            cec2010.feasible_ratio(problem, 0)
    _assert_same(before, _snapshot())
    assert tr.layers["cec2010.feasible_ratio"].calls == 1
    assert tr._open == []


def test_tracer_restores_what_it_installed_when_installing_fails():
    class Broken(spans.Tracer):
        def _install(self):
            self.patch(harness, "run_batch", lambda f: self.span("harness.run_batch", f))
            raise RuntimeError("install failed")

    before = _snapshot()
    with pytest.raises(RuntimeError, match="install failed"):
        with Broken():
            pass
    _assert_same(before, _snapshot())


@pytest.mark.parametrize("n, expected", [(1, (0, "p90 of n=1, 0 beyond")),
                                         (5, (4, "p90 of n=5, 0 beyond")),
                                         (24, (21, "p90 of n=24, 2 beyond")),
                                         (133, (119, "p90 of n=133, 13 beyond"))])
def test_tail_is_the_nearest_rank_90th_percentile(n, expected):
    assert workloads.tail(list(range(n))[::-1]) == expected


def _run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    record = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    env = record["environment"]
    assert 1 <= record["workers"] <= env["nproc"]
    assert set(env["thread_vars"].values()) == {"1"}
    assert env["data_source"] == "surrogate"
    assert env["python"] and env["numpy"] and env["blas"]

    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])

    if trace:
        total = metrics["trace.total_s"]["value"]
        parts = [metrics[name]["value"] for name in LAYER_SELF_TIMES]
        assert min(parts) >= -1e-9
        accounted = sum(parts) + metrics["trace.bookkeeping_s"]["value"]
        assert accounted == pytest.approx(total, rel=1e-6, abs=1e-9)
    else:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "perfbench")
    proc = _run_bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
