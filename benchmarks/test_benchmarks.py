"""Self-tests of the benchmark harness (outside the package's test suite).

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ladder
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spec_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def tiny_run(workload: str, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def fixtures():
    return workloads.load_fixtures(importlib.import_module("pentachain"))


def test_fixtures_regenerate_byte_identical():
    assert ladder.stale_files(ladder.ladder_texts()) == []


def test_rp3_ladder_matches_baseline(fixtures):
    assert fixtures["rp3_t80.tri"]["f_vector"] == [21, 101, 160, 80]


def test_fixture_invariants(fixtures):
    from pentachain import Triangulation, invariant

    for name, entry in fixtures.items():
        tri = Triangulation.from_file(entry["path"])
        assert str(invariant(tri, seed=5).abs_invariant) == entry["abs_invariant"], name


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert spec_units("end_to_end") == run.END_TO_END_UNITS
    layer = tracer.Tracer().metrics(1)
    layer["trace.overhead_ratio"] = layer["fail_ratio"] = 0.0
    assert spec_units("per_layer") == {name: run.unit_of(name) for name in layer}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = tiny_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = spec_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted


def test_forced_wrong_answer_counts_in_fail_ratio(fixtures):
    cli = importlib.import_module("pentachain.cli")
    good = workloads._invariant_op(fixtures["s3_t8.tri"], 7)
    bad = workloads.Op(good.argv, good.expect[:-1] + (("abs_invariant", "64"),))
    refs = []
    records = run.measure(cli, itertools.cycle([(bad,), (good,), (good,)]), 6, 60.0, refs)
    failed, correct = run.tally(records)
    _, extras = run.end_to_end(records, refs, [0.1], [run.REF_NOMINAL_S])
    assert len(refs) == 2 * len(records) == 12
    assert [r.status for r in records[:3]] == ["wrong", "ok", "ok"]
    assert failed == len(records[::3]) and not correct
    assert extras["fail_ratio"] == failed / len(records)


def test_degenerate_sample_is_a_counted_failure():
    cli = importlib.import_module("pentachain.cli")
    # seed 3 draws a five-point sample whose flatness relation is degenerate
    record = run.run_unit(cli, (workloads._pentagon_op(3),), [])
    assert record.status == "degenerate"
    assert run.tally([record]) == (1, True)


def test_traced_replay_matches_and_restores(fixtures):
    cli = importlib.import_module("pentachain.cli")
    originals = [tracer.Tracer._owner(m, a) for m, a, _ in tracer.TARGETS + tracer.COUNTERS]
    before = [owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
              for owner, name in originals]
    units = [(workloads._invariant_op(fixtures["rp3_t20.tri"], 11),),
             (workloads._pentagon_op(1),)]
    records = [run.run_unit(cli, u, []) for u in units]
    replayed, metrics = run.traced_replay(cli, records, [])
    assert [r.output for r in replayed] == [r.output for r in records]
    after = [owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
             for owner, name in originals]
    assert all(a is b for a, b in zip(before, after))
    assert metrics["torsion.invariant_calls"] == 0.5
    assert metrics["exact.eliminations_per_invariant"] >= 15
    assert metrics["pentagon.samples"] == 50


def test_fails_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = tiny_run("pentagon_suite", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
