"""The benchmark's own tests.

Run from the repository root (not part of the tier-1 suite, which does
not collect this file)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import shims  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, read_records  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


class FakeClock:
    """Returns the scripted instants in order."""

    def __init__(self, *instants: float) -> None:
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_is_duration_minus_children(tmp_path):
    # root [0, 10] -> A (aggregated) [1, 4] -> B (aggregated) [2, 3]
    #              -> C (recorded) [5, 9]
    tracer = Tracer(str(tmp_path), "t", clock_fn=FakeClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.push("root", True)
    a = tracer.push("A", False)
    assert tracer.is_open("A")
    b = tracer.push("B", False)
    tracer.pop(b)
    tracer.pop(a)
    c = tracer.push("C", True)
    tracer.pop(c)
    tracer.pop(root)

    spans = {s["name"]: s for s in tracer.spans}
    assert spans["root"]["self"] == 10 - 3 - 4
    assert spans["C"]["self"] == 4
    assert spans["C"]["parent"] == spans["root"]["id"]
    assert spans["root"]["parent"] is None
    assert tracer.aggregates[("A", "root")] == [1, 3, 2]
    assert tracer.aggregates[("B", "A")] == [1, 1, 1]


def test_aggregates_sum_calls_and_late_pops_detach(tmp_path):
    tracer = Tracer(str(tmp_path), "t", clock_fn=FakeClock(0, 1, 2, 4, 5, 6, 7, 8, 9, 10))
    root = tracer.push("root", True)
    for _ in range(2):
        tracer.pop(tracer.push("tick", False))
    gen = tracer.push("epoch", True)  # a generator abandoned mid-way ...
    step = tracer.push("step", True)
    tracer.pop(gen)  # ... closes while a later frame is still open
    tracer.pop(step)
    tracer.pop(root)
    assert tracer.aggregates[("tick", "root")] == [2, 2, 2]
    spans = {s["name"]: s for s in tracer.spans}
    assert spans["epoch"]["parent"] is None  # detached, charged to nobody
    assert spans["step"]["parent"] == spans["root"]["id"]
    assert spans["root"]["self"] == 10 - 2 - (9 - 7)
    assert not tracer._stack


def test_reentrant_calls_fold_into_the_outer_span(tmp_path):
    from repro.geometry import Vec2
    from repro.world.layouts import paper_room

    caster = paper_room().raycaster
    tracer = Tracer(str(tmp_path), "t")
    with shims.installed(tracer):
        caster.cast_many(Vec2(1.0, 1.0), [0.0, 1.0, 2.0])  # -> cast_many_list -> hit_distances
    assert [k for k in tracer.aggregates if k[0] == "geometry.cast"] == [("geometry.cast", None)]
    assert tracer.aggregates[("geometry.cast", None)][0] == 1


def test_flush_writes_jsonl(tmp_path):
    tracer = Tracer(str(tmp_path), "run", clock_fn=FakeClock(0, 2))
    tracer.pop(tracer.push("x", True))
    tracer.count("n", 3)
    tracer.flush()
    records = read_records(str(tmp_path), "run")
    assert [r["kind"] for r in records] == ["span", "counter"]
    assert records[0]["pid"] == os.getpid()
    assert records[1]["value"] == 3


def test_shims_restore_every_binding(tmp_path):
    import repro.nn.conv
    import repro.nn.functional
    from repro.vision.ssd import SSDDetector

    original = repro.nn.functional.im2col
    method = SSDDetector.__dict__["forward"]
    with shims.installed(Tracer(str(tmp_path), "t")):
        assert repro.nn.functional.im2col is not original
        assert repro.nn.conv.im2col is repro.nn.functional.im2col
        assert SSDDetector.__dict__["forward"] is not method
    assert repro.nn.functional.im2col is original
    assert repro.nn.conv.im2col is original
    assert SSDDetector.__dict__["forward"] is method


def test_forked_pool_workers_write_their_own_spans(tmp_path):
    from repro.exec import Executor, JobSpec

    jobs = [
        JobSpec(fn="repro.exec.demo:scaled_sum", kwargs={"values": [float(i)], "factor": 2.0})
        for i in range(4)
    ]
    tracer = Tracer(str(tmp_path), "pool")
    with shims.installed(tracer):
        assert Executor(workers=2).run(jobs) == [0.0, 2.0, 4.0, 6.0]
    tracer.flush()
    records = read_records(str(tmp_path), "pool")
    job_pids = {r["pid"] for r in records if r["name"] == "exec.job"}
    assert job_pids and os.getpid() not in job_pids
    assert any(r["name"] == "exec.run" and r["pid"] == os.getpid() for r in records)


def test_layer_metrics_overhead_and_busy_ratio():
    def span(i, name, start, end, parent=None, pid=1):
        return {"kind": "span", "id": i, "name": name, "start": start, "end": end,
                "parent": parent, "pid": pid, "self": end - start}

    records = [
        span(1, "bench.cold", 0.0, 10.0),
        span(2, "exec.run", 0.0, 8.0, parent=1),
        span(3, "exec.job", 1.0, 4.0, parent=2),
        span(4, "exec.job", 4.0, 7.0, parent=2),
        span(1, "exec.job", 0.0, 2.0, pid=2),  # a pool worker's job
        {"kind": "counter", "name": "exec.cache.gets", "pid": 1, "value": 4},
        {"kind": "counter", "name": "exec.cache.hits", "pid": 1, "value": 1},
    ]
    out = layers.layer_metrics(records, workers=2)
    assert out["exec.overhead_s"] == pytest.approx(8.0 - 6.0)
    assert out["exec.pool.busy_ratio"] == pytest.approx((3 + 3 + 2) / (2 * 10.0))
    assert out["exec.cache.hit_ratio"] == 0.25
    assert out["mission.run_s.p50"] == 0.0


def test_segments_scale_by_their_bracketing_probes(monkeypatch):
    instants = iter([10.0, 11.0, 11.5, 13.5, 14.0])
    monkeypatch.setattr(hostspeed, "clock", lambda: next(instants))
    probes = iter([0.004, 0.006, 0.010])
    segments = hostspeed.Segments(probe_fn=lambda: next(probes))
    ref = hostspeed.REFERENCE_S
    assert segments.tick() == pytest.approx(1.0 * ref / 0.005)  # [10, 11]
    assert segments.tick() == pytest.approx(2.0 * ref / 0.008)  # [11.5, 13.5]
    assert segments.raw == pytest.approx(3.0)  # the probes' own time is excluded
    assert segments.normalized == pytest.approx(ref / 0.005 + 2.0 * ref / 0.008)


@pytest.mark.parametrize("workers", [None, 2])
def test_timed_covers_the_whole_call(monkeypatch, workers):
    # Progress ticks close segments only in-process; on a pool the workers
    # keep going while the parent handles progress, so no probe may be cut
    # out of the call's time.
    from repro.exec import Executor, JobSpec

    monkeypatch.setattr(hostspeed, "REFERENCE_S", 1.0)
    probes = []
    monkeypatch.setattr(hostspeed, "probe", lambda: probes.append(1.0) or 1.0)
    sleep_s = 0.15
    jobs = [
        JobSpec(fn="repro.exec.demo:sleepy_echo", kwargs={"value": float(i), "sleep_s": sleep_s})
        for i in range(4)
    ]
    workload = workloads.Workload(seed=0)
    start = time.perf_counter()
    raw, normalized, out = workload.timed(
        "call",
        lambda: Executor(workers=workers).run(jobs, progress=lambda *a: workload.tick()),
    )
    outer = time.perf_counter() - start
    assert out == [0.0, 1.0, 2.0, 3.0]
    rounds = 4 if workers is None else 2
    assert rounds * sleep_s <= raw <= outer
    assert normalized == pytest.approx(raw)  # every probe read 1 s
    assert len(probes) == (1 + 4 + 1 if workers is None else 2)


@pytest.mark.parametrize("guard", sorted(workloads.CAMPAIGN_GUARDS))
def test_campaign_guard_gate_fails_on_zero(monkeypatch, guard):
    values = {k: ref for k, (ref, _) in workloads.CAMPAIGN_GUARDS.items()}
    workload = workloads.CampaignSerial(seed=0)
    monkeypatch.setattr(workload, "guards", lambda: values)
    assert workload.check() == [] and workload.failed == 0
    values[guard] = 0.0
    errors = workload.check()
    assert workload.failed == 1 and guard in errors[0]


def test_benchmark_json_names_every_layer_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    assert BENCHMARK["paths"] == ["perfbench"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]}


@pytest.fixture
def minimal(monkeypatch, tmp_path):
    """Shrink every workload to seconds and keep its output in ``tmp_path``."""
    monkeypatch.setattr(
        workloads,
        "TABLE1_SCALE",
        workloads.quick(
            workloads.TABLE1_SCALE, train_images=8, finetune_images=8, test_images=8,
            pretrain_epochs=1, finetune_epochs=1,
        ),
    )
    monkeypatch.setattr(workloads, "FLIGHT_TIME_S", 2.0)
    monkeypatch.setattr(workloads, "FAMILIES", ("perfect-maze",))
    monkeypatch.setattr(workloads, "PRESETS", ("paper-room",))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "WARM_REPEATS", 2)
    monkeypatch.setattr(run, "OUT", str(tmp_path))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(minimal, workload, trace):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.01, trace=trace)
    stamp, result = run.run(args)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert stamp["machine"]["cpu_count"] and stamp["seed"] == 3
    # At minimal size the quality guards may miss their bands; every
    # other gate must pass.
    assert all("not within a factor" in e for e in stamp["errors"]), stamp["errors"]
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
