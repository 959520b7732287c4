"""Tests of the benchmark harness: tiny workloads, span nesting, self time, failures.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import spans

ROOT = harness.ROOT

TINY = {
    "train_small": dict(n_stocks=12, n_days=520),
    "wide_universe": dict(n_stocks=12, n_days=540),
    "replay": dict(n_stocks=12, n_days=540),
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _quiet(_msg):
    pass


def test_benchmark_json_names_the_harness_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    a = tracer.open("pipeline.a")
    b = tracer.open("models.b")
    tracer.close(b)
    c = tracer.open("models.c")
    tracer.close(c)
    tracer.close(a)
    assert [s[3] for s in tracer.spans] == [-1, a, a]
    assert spans.self_times(tracer.spans) == [6.0, 2.0, 2.0]
    layers = spans.layer_metrics(tracer.spans)
    assert layers["pipeline.self_s"] == 6.0
    assert layers["models.self_s"] == 4.0


def _check_nesting(span_list):
    for name, start, end, parent, _attrs in span_list:
        assert end >= start, name
        if parent >= 0:
            p = span_list[parent]
            assert p[1] <= start and end <= p[2], (name, p[0])


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_workload_runs_correct_and_traced(name, tmp_path, monkeypatch):
    captured = {}
    original = harness.run_once

    def keep_traced(prep, rep_dir, traced, deadline):
        rec = original(prep, rep_dir, traced, deadline)
        if traced:
            captured["spans"] = rec["spans"]
        return rec

    monkeypatch.setattr(harness, "run_once", keep_traced)
    workload = dataclasses.replace(harness.WORKLOADS[name], **TINY[name])
    result = harness.measure(workload, seed=3, seconds=0, trace=True,
                             work_dir=str(tmp_path / name), log=_quiet)
    assert result["failed"] == 0, result["repeats"]
    assert result["attempted"] == harness.MIN_REPEATS + 1
    assert result["deterministic"] and result["correct"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())
    assert {m["name"] for m in _spec()["per_layer"]} <= set(result["per_layer"])

    span_list = captured["spans"]
    _check_nesting(span_list)
    selfs = spans.self_times(span_list)
    for i, (name_i, start, end, _parent, _attrs) in enumerate(span_list):
        kids = sum(s[2] - s[1] for s in span_list if s[3] == i)
        assert selfs[i] == pytest.approx((end - start) - kids, abs=1e-9), name_i

    layers = result["per_layer"]
    if workload.command == "run":
        assert layers["models.steps"] > 0
        assert layers["dataset.samples_built"] > 0
        assert layers["autograd.conv1d_valid.bwd_ms"] > 0
    else:
        assert layers["models.steps"] == 0
        assert layers["pipeline.scores_read_s"] > 0
    assert layers["backtest.simulate_calls"] > 0


def test_failing_run_is_counted_not_dropped(tmp_path):
    # max_epochs 0 crashes train_walk_forward's log line with an IndexError.
    base = harness.WORKLOADS["train_small"]
    workload = dataclasses.replace(base, config=dict(base.config, max_epochs=0),
                                   **TINY["train_small"])
    result = harness.measure(workload, seed=3, seconds=0, trace=False,
                             work_dir=str(tmp_path / "fail"), log=_quiet)
    assert result["attempted"] == harness.MIN_REPEATS
    assert result["failed"] == result["attempted"]
    assert result["error_rate"] == 1.0
    assert not result["correct"]
    assert "metrics" not in result
    assert "IndexError" in result["repeats"][0]["children"][0]["stderr"]


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
