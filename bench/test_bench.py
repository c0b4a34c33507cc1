"""Tests of the benchmark itself:  python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import tracer
from run import HERE, ROOT, child
from worker import import_heckelab
from workloads import comparable, failed_suites, mismatches

TINY = {"q": 3, "suites": ["models"], "seed": 0}


@pytest.fixture(scope="module")
def tiny_runs():
    deadline = time.monotonic() + 150
    return child("run", TINY, deadline), child("trace", TINY, deadline)


def test_tiny_config_runs_untraced_and_traced(tiny_runs):
    plain, traced = tiny_runs
    assert plain["report"]["pass"] and traced["report"]["pass"]
    assert plain["wall_s"] > 0 and plain["peak_rss_mb"] > 0
    assert 0 < plain["setup_s"] < plain["wall_s"]
    # tracing must not change what is verified
    assert failed_suites(comparable(plain["report"]), traced["report"], 0) == []
    assert traced["absent"] == {}
    layers = traced["layers"]
    assert layers["cli.suite_models.calls"] == 1
    assert layers["models.verify_model.calls"] > 0
    assert layers["gf.FieldCtx.__init__.calls"] == 1
    assert layers["hecke.hecke_mul.term_pairs"] >= layers["hecke.hecke_mul.calls"]


def test_self_times_are_nonnegative_and_within_wall_time(tiny_runs):
    _, traced = tiny_runs
    self_times = {k: v for k, v in traced["layers"].items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) <= traced["wall_s"]
    layers = traced["layers"]
    assert layers["models.verify.hom.total_s"] <= layers["models.verify_model.total_s"]


def test_reference_check_flags_an_altered_report(tiny_runs):
    plain, _ = tiny_runs
    reference = comparable(plain["report"])
    assert failed_suites(reference, plain["report"], 0) == []

    additive = json.loads(json.dumps(plain["report"]))
    additive["suites"][0]["checks"] = {"hom_products": 1}
    assert failed_suites(reference, additive, 0) == []

    altered = json.loads(json.dumps(plain["report"]))
    altered["suites"][0]["details"]["GL2"]["models"] += 1
    assert failed_suites(reference, altered, 0) == ["models"]
    assert mismatches(reference, altered) == ["report.suites[models].details.GL2.models"]

    assert failed_suites(reference, plain["report"], 1) == ["models"]


def test_missing_targets_are_reported_absent(monkeypatch):
    import_heckelab()
    monkeypatch.setattr(tracer, "TARGETS", {"models": ["_renamed_phase"], "nosuch": ["f"]})
    absent = tracer.install(tracer.Tracer())
    assert absent["models._renamed_phase"] == "heckelab.models._renamed_phase not found"
    assert absent["nosuch.f"].startswith("cannot import heckelab.nosuch")


def test_benchmark_json_lists_every_reported_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    reported = set(tracer.Tracer().metrics()) | {"trace.wall_s", "trace.overhead_frac"}
    assert listed == reported


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_q5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
