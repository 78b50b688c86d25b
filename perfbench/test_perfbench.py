"""Tests of the benchmark itself, at tiny sizes."""

import json
import logging
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
from irs_swipt.errors import SolverError  # noqa: E402

TINY = {
    "solve-m40": bench.SolveWorkload(n_elements=4, instances=2),
    "solve-m200": bench.SolveWorkload(n_elements=6, instances=2),
    "harvest-t2": bench.HarvestWorkload(trials=1, threads=2, trace_trials=1,
                                        distances=(4.0, 8.0)),
}


def spec_metrics(kind):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_tables_match_benchmark_json():
    assert bench.END_TO_END == spec_metrics("end_to_end")
    assert bench.PER_LAYER == spec_metrics("per_layer")
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_unit(name, trace, capsys):
    doc = bench.run(name, seed=3, seconds=0.0, trace=trace,
                    workload=TINY[name])
    bench.print_result(doc)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for key, metric in result["metrics"].items():
        assert metric["unit"] == expected[key]
        assert math.isfinite(metric["value"])
        if not trace and key != "feasible_frac":
            assert metric["value"] > 0.0, key


def test_quality_repeats_exactly():
    runs = [bench.run("solve-m40", 5, 0.0, False, workload=TINY["solve-m40"])
            for _ in range(2)]
    for key in ("objective_mean", "feasible_frac"):
        a, b = (r["result"]["metrics"][key]["value"] for r in runs)
        assert a == b


def test_corrupted_solution_counts_as_error(monkeypatch):
    solve = bench.solve_with_init

    def over_budget(channels, config, **kwargs):
        report = solve(channels, config, **kwargs)
        report.f = report.f * 2.0
        return report

    monkeypatch.setattr(bench, "solve_with_init", over_budget)
    doc = bench.run("solve-m40", 1, 0.0, False, workload=TINY["solve-m40"])
    assert doc["result"]["correct"] is False
    assert doc["result"]["failed"] == doc["result"]["attempted"] == 2
    assert doc["detail"]["error_frac"] == 1.0
    assert "exceeds the budget" in doc["detail"]["violations"][0]


def test_solver_error_is_a_failed_operation(monkeypatch):
    solve = bench.solve_with_init
    calls = []

    def flaky(channels, config, **kwargs):
        if not kwargs:          # not the set-up warm-up
            calls.append(1)
        if len(calls) == 2 and not kwargs:
            logging.getLogger("irs_swipt.bcd").warning(
                "phase block failed at sweep %d: %s", 1, "injected")
            raise SolverError("injected")
        return solve(channels, config, **kwargs)

    monkeypatch.setattr(bench, "solve_with_init", flaky)
    wl = replace(TINY["solve-m40"], instances=3)
    doc = bench.run("solve-m40", 1, 0.0, False, workload=wl)
    assert doc["result"]["attempted"] == 3
    assert doc["result"]["failed"] == 1
    assert doc["detail"]["raised"] == 1
    assert doc["detail"]["block_failures"] == 1
    assert doc["detail"]["error_frac"] == pytest.approx(1 / 3)


def test_launcher_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-m40",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
