"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

The workloads run here at a reduced size (200 steps, 10 chunks), which
keeps every code path — Spark replay included — but not the timings.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAMES = list(workloads.WORKLOADS)


def small(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, n_steps=w.n_steps // 10, n_chunks=10, checkpoint_every=20)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Lazily computed ``(workload, seed, trace, repeat) -> Result``."""
    cache: dict = {}

    def get(name: str, seed: int, trace: bool, repeat: int = 0):
        key = (name, seed, trace, repeat)
        if key not in cache:
            work = str(tmp_path_factory.mktemp(f"{name}-{seed}-{int(trace)}-{repeat}"))
            cache[key] = workloads.run(small(name), seed, 0.0, trace, work)
        return cache[key]

    return get


def test_benchmark_json_declares_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_metric_names_are_declared(results, name, trace):
    res = results(name, 1, trace)
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(res.metrics) == declared
    assert res.failed == 0 and res.attempted > 0


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_bit_for_bit(results, name):
    a, b = results(name, 3, False), results(name, 3, False, repeat=1)
    assert a.metrics["oracle_calls"] == b.metrics["oracle_calls"]
    assert a.metrics["value_ratio"] == b.metrics["value_ratio"]


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_the_stream(name):
    w = small(name)
    one, again, two = (workloads.make_inputs(w, s) for s in (1, 1, 2))
    assert one.equals(again)
    assert not one.equals(two)


def test_gate_rejects_values_below_the_guarantee():
    w = small("ha-longlife")
    stream = workloads.make_inputs(w, 1)
    good = workloads.tracker_pass(w, stream)
    assert workloads.check_tracker(w, stream, [good])[0] == 0
    bad = dataclasses.replace(good, at_checkpoint={t: 0.0 for t in good.at_checkpoint})
    assert workloads.check_tracker(w, stream, [bad])[0] == len(good.at_checkpoint)
    drift = dataclasses.replace(good, calls=good.calls + 1)
    assert workloads.check_tracker(w, stream, [good, drift])[0] > 0


def test_host_speed_scaling():
    speed = HostSpeed()
    # the host runs slices at twice the reference time: half speed
    speed.starts = [0.0, 0.1, 0.2, 0.3]
    speed.durations = [2 * hostspeed.REF_SLICE_S] * 4
    scaled = speed.scale([0.05, 0.15], [0.1, 0.25])
    # the second interval holds the slice started at 0.2, which is not its own time
    own = np.array([0.05, 0.1 - 2 * hostspeed.REF_SLICE_S])
    assert scaled == pytest.approx(own / 2)


def test_host_speed_samples_while_open():
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * hostspeed.INTERVAL_S:
            pass
        t1 = time.perf_counter()
    assert len(speed.starts) >= 5
    assert 0 < speed.scale([t0], [t1])[0] < 100 * (t1 - t0)


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self, n):
            return [self.inner() for _ in range(n)]

        def inner(self):
            return 1

    orig_outer = Layer.__dict__["outer"]
    tr = Tracer()
    tr.patch(Layer, "outer", "outer")
    tr.patch(Layer, "inner", "inner", lambda t, args, res: t.counts.__setitem__(
        "inner_results", t.counts["inner_results"] + res))
    assert Layer().outer(3) == [1, 1, 1]
    tr.restore()
    assert Layer.__dict__["outer"] is orig_outer
    assert tr.calls("outer") == 1 and tr.calls("inner") == 3
    assert {(p, n) for p, n in tr.spans} == {(None, "outer"), ("outer", "inner")}
    assert tr.self_s("outer") == pytest.approx(tr.total_s("outer") - tr.total_s("inner"))
    assert tr.counts["inner_results"] == 3


def test_run_prints_declared_metrics_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ha-longlife",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ha-longlife",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
