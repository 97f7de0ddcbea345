"""Tests of the benchmark itself, on the quick sizes.

    python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_quick(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_quick_run_passes_checks_and_prints_every_metric(workload, trace):
    proc = run_quick(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = CONFIG["per_layer"] if trace else CONFIG["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }


def test_config_names_the_workloads_and_metrics_the_runner_has():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.QUICK_WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == run.END_TO_END


def test_same_seed_same_graph():
    a = workloads.gnm_edges(30, 60, seed=5)
    assert a == workloads.gnm_edges(30, 60, seed=5)
    assert a != workloads.gnm_edges(30, 60, seed=6)
    assert len(set(a)) == 60 and all(0 <= u < v < 30 for u, v in a)


@pytest.fixture(scope="module")
def halving_run(tmp_path_factory):
    cq = run.import_ccquery()
    w = workloads.QUICK_WORKLOADS["halving-recorded"]
    edges = workloads.gnm_edges(w.n, w.m, seed=2)
    oracle = workloads.make_oracle(cq, w, cq.Graph(w.n, edges))
    path = tmp_path_factory.mktemp("trace") / "trace.txt"
    report = workloads.reconstruct(cq, w, oracle, 2, path)
    return w, edges, oracle, report, path


def test_edge_check_fails_when_a_recovered_edge_is_dropped(halving_run):
    w, edges, oracle, report, _ = halving_run
    assert workloads.check_report(w, edges, report, oracle) == []
    dropped = dataclasses.replace(report, edges=report.edges - {min(report.edges)})
    problems = workloads.check_report(w, edges, dropped, oracle)
    assert problems == ["recovered edges differ: 1 missing, 0 extra"]


def test_reported_failure_fails_the_checks_and_keeps_its_queries(monkeypatch, tmp_path):
    cq = run.import_ccquery()
    w = workloads.QUICK_WORKLOADS["halving-gnm"]
    edges = workloads.gnm_edges(w.n, w.m, seed=2)
    reconstruct = workloads.reconstruct

    def failing(*args):
        return dataclasses.replace(reconstruct(*args), success=False)

    monkeypatch.setattr(workloads, "reconstruct", failing)
    reps = run.Repetitions(cq, w, edges, 2, tmp_path)
    reps.run()
    assert (reps.attempted, reps.failed) == (1, 1)
    assert reps.queries > 0
    assert reps.problems == [f"reconstruction reported failure after {reps.queries} queries"]


def test_trace_check_recomputes_answers(halving_run, tmp_path):
    w, edges, oracle, report, path = halving_run
    counter = workloads.ComponentCounter(w.n, edges)
    total = report.total_queries
    assert workloads.check_trace(path, total, counter, seed=2) == []
    wrong = tmp_path / "wrong.txt"
    with open(path) as src, open(wrong, "w") as dst:
        for line in src:
            fields = line.split()
            fields[2] = str(int(fields[2]) + 1)
            dst.write(" ".join(fields) + "\n")
    assert len(workloads.check_trace(wrong, total, counter, seed=2)) == min(
        workloads.TRACE_SAMPLE_LINES, total
    )


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = run_quick("halving-gnm", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
