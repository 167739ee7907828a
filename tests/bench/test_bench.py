"""Tests of the benchmark under ``bench/``: tracer, golden gate, inputs,
metric declarations, and the entry point's failure mode."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from bench import golden
from bench.child import E2E_METRICS, TRACE_RUN_METRICS
from bench.tracer import SPANS, Tracer, _resolve, layer_metric_names
from bench.workloads import WORKLOADS, Step
from repro.cluster.trainer import Trainer
from repro.fleet import FleetSimulator
from repro.fleet.job import FleetJob
from repro.runner import build_factory

ROOT = Path(__file__).resolve().parents[2]


def _patched_values() -> dict:
    values = {}
    for module, path, _ in SPANS:
        found = _resolve(module, path)
        if found:
            owner, attr, value = found
            values[(module, path)] = (owner, attr, value)
    return values


def test_uninstall_restores_every_patched_attribute():
    before = _patched_values()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _patched_values()
        assert all(patched[k][2] is not before[k][2] for k in before)
    finally:
        tracer.uninstall()
    after = _patched_values()
    assert after.keys() == before.keys()
    assert all(after[k][2] is before[k][2] for k in before)
    assert not tracer.missing


def _fingerprint(result) -> tuple:
    rows = tuple(
        (r.worker, r.iteration, r.fwd_start, r.fwd_end, r.bwd_end)
        for r in result.recorder.iterations
    )
    return result.end_time, result.training_rate(skip=1), rows


def _star(config):
    return _fingerprint(Trainer(config, build_factory("prophet")).run())


def _ring(config):
    config = replace(config, backend="allreduce")
    return _fingerprint(Trainer(config, build_factory("mg-wfbp")).run())


def _fleet(config):
    jobs = [
        FleetJob(name=f"job{j}", config=replace(config, seed=j), strategy=s, arrival=0.01 * j)
        for j, s in enumerate(("prophet", "mxnet-fifo", "bytescheduler"))
    ]
    result = FleetSimulator(
        jobs, core_bandwidth=1.5e8, n_hosts=2, slots_per_host=2, policy="fair"
    ).run()
    return result.events_processed, tuple(
        (r.name, r.placed_at, r.finished_at, r.iteration_s) for r in result.records
    )


@pytest.mark.parametrize("run", [_star, _ring, _fleet], ids=["star", "ring", "fleet"])
def test_traced_run_is_bit_identical(tiny_config, run):
    plain = run(tiny_config)
    with Tracer() as tracer:
        traced = run(tiny_config)
    assert traced == plain
    assert tracer.counts["events"] > 0
    assert tracer.layer_calls("cluster.trainer") > 0
    assert set(tracer.metrics()) == set(layer_metric_names())


def test_self_time_of_a_nested_call_tree():
    now = [0.0]
    tracer = Tracer(spans=(), keep_spans=10, clock=lambda: now[0])

    def leaf():
        now[0] += 2.0

    def mid():
        now[0] += 1.0
        leaf_span()
        now[0] += 3.0

    def top():
        now[0] += 5.0
        mid_span()
        leaf_span()
        now[0] += 0.5

    def failing():
        now[0] += 1.0
        raise ValueError("boom")

    leaf_span = tracer.wrap(leaf, "net.link", "leaf")
    mid_span = tracer.wrap(mid, "sched", "mid")
    top_span = tracer.wrap(top, "sched", "top")
    top_span()
    # top 13.5 s = self 5.5 + mid 6 (self 4 + leaf 2) + leaf 2.
    assert tracer.layer_self_s("sched") == pytest.approx(5.5 + 4.0)
    assert tracer.layer_self_s("net.link") == pytest.approx(4.0)
    assert tracer.layer_calls("sched") == 2
    assert tracer.layer_calls("net.link") == 2
    assert sum(tracer.self_s) == pytest.approx(13.5)
    assert tracer.by_name["top"] == [1, 13.5]
    names = [(s[0], s[4]) for s in tracer.spans]
    assert names == [("top", -1), ("mid", 0), ("leaf", 1), ("leaf", 0)]

    with pytest.raises(ValueError):
        tracer.wrap(failing, "faults", "failing")()
    assert tracer.layer_self_s("faults") == pytest.approx(1.0)
    assert tracer._stack == [] and tracer._open == []


def test_callbacks_belong_to_their_owner_module():
    tracer = Tracer()
    from repro.net.link import _drain_batch
    from repro.sim.engine import Engine

    assert tracer.callback_layer(_drain_batch) == "net.link"
    assert tracer.callback_layer(Engine().run) == "sim.engine"
    assert tracer.callback_layer([].append) == "runner"


def _steps(value, fail=False):
    def fn():
        if fail:
            raise RuntimeError("simulated crash")
        return {"a": {"rate": value, "end": 2.0}, "b": {"rate": 3.0, "end": 4.0}}

    return [Step(("a", "b"), fn)]


def test_golden_gate_flags_perturbed_values_and_raised_runs():
    want = {"a": {"rate": 1.0, "end": 2.0}, "b": {"rate": 3.0, "end": 4.0}}
    assert golden.run_pass(_steps(1.0), want).failed == 0
    assert golden.run_pass(_steps(1.0 + 1e-12), want).failed == 0
    perturbed = golden.run_pass(_steps(1.0 + 1e-6), want)
    assert (perturbed.attempted, perturbed.failed) == (2, 1)
    assert "a: rate=" in perturbed.errors[0]
    raised = golden.run_pass(_steps(1.0, fail=True), want)
    assert (raised.attempted, raised.failed) == (2, 2)
    assert "RuntimeError" in raised.errors[0]
    assert golden.run_pass(_steps(math.nan), None).failed == 1


def test_golden_values_cover_every_run_of_every_workload():
    table = golden.load()
    for name, workload in WORKLOADS.items():
        for seed in golden.GOLDEN_SEEDS:
            runs = [rid for step in workload.steps(workload.inputs(seed)) for rid in step.runs]
            want = golden.expected(table, name, seed)
            assert want is not None and sorted(want) == sorted(runs), (name, seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    inputs = WORKLOADS[name].inputs
    assert repr(inputs(3)) == repr(inputs(3))
    assert repr(inputs(3)) != repr(inputs(4))


def test_emitted_metrics_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = {
        "end_to_end": dict(E2E_METRICS),
        "per_layer": {**layer_metric_names(), **TRACE_RUN_METRICS},
    }
    for kind, names in emitted.items():
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
        assert declared == names, kind
        assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert len(spec["per_layer"]) <= 128


def test_run_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "star-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
