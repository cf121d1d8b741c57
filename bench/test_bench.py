"""Reduced-size runs of every workload through the benchmark harness.

Exercises the stages, the output checks and the traced run in seconds; the
full sizes are only run by ``bench/run.py`` itself.
"""

import json
import threading
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads
from dyninv import hybrid

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_STAGE_S", 0.0)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)


def _measure(name, tmp_path, trace, seed=3):
    return run.measure(workloads.WORKLOADS[name].reduced(), seed, 0.0, trace, tmp_path)


def test_benchmark_json_matches_the_harness():
    config = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    for w in config["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == {
        k: u for k, (u, _) in run.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_run(name, tmp_path, quick):
    rec = _measure(name, tmp_path, trace=False)
    assert rec["failed"] == 0, rec["failures"]
    metrics = {k: v for k, (v, _) in rec["metrics"].items()}
    assert list(metrics) == list(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert metrics["total_s"] == pytest.approx(
        sum(metrics[f"{s}_s"] for s in workloads.STAGES))
    again = _measure(name, tmp_path, trace=False)
    assert again["metrics"]["iterations"] == rec["metrics"]["iterations"]
    assert again["metrics"]["rel_error"] == rec["metrics"]["rel_error"]
    prov = rec["provenance"]
    assert prov["seed"] == 3 and prov["n"] > 0 and prov["nnz"] > 0
    assert prov["solver_threads"] >= 1


@pytest.mark.parametrize("name", NAMES)
def test_traced_run(name, tmp_path, quick):
    rec = _measure(name, tmp_path, trace=True)
    assert rec["failed"] == 0, rec["failures"]
    per = {k: v for k, (v, _) in rec["metrics"].items()}
    assert list(per) == list(run.PER_LAYER)
    w = workloads.WORKLOADS[name]
    assert per["trace.overhead"] > 0
    assert per["gengk.step.s"] >= per["gengk.step.self_s"] >= 0
    assert per["hybrid.solve.self_s"] >= 0
    assert per["linop.A.apply.calls"] > 0 and per["linop.R.solve.calls"] > 0
    assert per["problems.generate.s"] > 0 and per["io.bytes_written"] > 0
    assert per["uq.rank"] > 0
    assert (per["hybrid.lambda_evals"] > 0) == (w.strategy != "fixed")
    if w.method == "decoupled":
        assert per["decoupled.subproblems"] == w.reduced().grid[2]
        assert per["decoupled.overlap"] > 0
    else:
        assert per["gengk.steps"] == w.reduced().max_iter
        assert per["decoupled.subproblems"] == 0
    again = _measure(name, tmp_path, trace=True)
    for key in ("gengk.steps", "hybrid.lambda_evals", "hybrid.projected_svd.count",
                "linop.A.apply.calls", "linop.Q.apply.calls"):
        assert again["metrics"][key] == rec["metrics"][key]


def test_failed_check_counts_as_failed(tmp_path, quick, monkeypatch):
    monkeypatch.setattr(workloads, "ORTH_TOL", 0.0)
    rec = _measure("tomo-scale", tmp_path, trace=False)
    assert rec["failed"] == rec["attempted"] >= 1
    assert "orthogonality" in rec["failures"][0]


def test_drifting_count_fails_the_traced_repetition(tmp_path, quick, monkeypatch):
    steps = iter(range(1000))
    layer_metrics = tracing.layer_metrics
    monkeypatch.setattr(tracing, "layer_metrics", lambda tracer: dict(
        layer_metrics(tracer), **{"gengk.steps": next(steps)}))
    rec = run.measure(workloads.WORKLOADS["deblur-optimal"].reduced(), 3, 1.0,
                      True, tmp_path)
    assert len(rec["samples"]["traced"]) >= 2
    assert rec["failed"] == len(rec["samples"]["traced"]) - 1
    assert all("per-layer counts differ" in f for f in rec["failures"])


def test_no_completed_repetition_gives_no_metrics(tmp_path, quick, monkeypatch):
    def broken(*args):
        raise RuntimeError("solver broke")
    monkeypatch.setattr(workloads, "solve", broken)
    rec = _measure("deblur-optimal", tmp_path, trace=False)
    assert rec["failed"] == rec["attempted"] >= 1 and rec["metrics"] == {}


def test_instrument_restores_the_library():
    before = (hybrid.select_lambda, hybrid.ProjectedProblem.__post_init__)
    with tracing.instrument(tracing.Tracer()):
        assert hybrid.select_lambda is not before[0]
    assert (hybrid.select_lambda, hybrid.ProjectedProblem.__post_init__) == before


def test_spans_across_threads_have_parent_and_nonnegative_self_time():
    tracer = tracing.Tracer()
    tracer.recording = True

    def child():
        tracer.call("child", time.sleep, 0.05)

    def parent():
        workers = [threading.Thread(target=child) for _ in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.call("parent", parent)
    spans = {name: [] for name in ("parent", "child")}
    for span in tracer.spans:
        spans[span[3]].append(span)
    (pid, _, ptid, _, p0, p1), = spans["parent"]
    assert [s[1] for s in spans["child"]] == [pid, pid]
    assert len({s[2] for s in spans["child"]} | {ptid}) == 3
    covered = tracing._covered(p0, p1, [(s[4], s[5]) for s in spans["child"]])
    assert 0 <= p1 - p0 - covered < p1 - p0
