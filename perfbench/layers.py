"""Per-layer metrics of one traced iteration, computed from span records.

Times are self times (a layer's span minus its recorded children) summed
over the traced iteration; ``*.p50``/``*.p90`` are percentiles of whole
span durations; counts are call counts. A layer the workload never
reaches reads 0.

The benchmark's own spans ``bench.cold`` and ``bench.warm`` (one per
timed pass, pushed by ``run.py``) are the wall clock the pool busy ratio
is taken against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: Per-layer metric -> (unit, how it is computed from the records).
#: ``self:<span>`` summed self seconds, ``calls:<span>`` call count,
#: ``p50:<span>``/``p90:<span>`` duration percentiles, ``counter:<name>``.
SIMPLE: Tuple[Tuple[str, str, str], ...] = (
    ("nn.conv2d.fwd_s", "s", "self:nn.conv2d.fwd"),
    ("nn.conv2d.bwd_s", "s", "self:nn.conv2d.bwd"),
    ("nn.dwconv.fwd_s", "s", "self:nn.dwconv.fwd"),
    ("nn.dwconv.bwd_s", "s", "self:nn.dwconv.bwd"),
    ("nn.bn.fwd_s", "s", "self:nn.bn.fwd"),
    ("nn.bn.bwd_s", "s", "self:nn.bn.bwd"),
    ("nn.im2col_s", "s", "self:nn.im2col"),
    ("nn.col2im_s", "s", "self:nn.col2im"),
    ("nn.optim.step_s", "s", "self:nn.optim.step"),
    ("vision.forward_s", "s", "self:vision.forward"),
    ("vision.backward_s", "s", "self:vision.backward"),
    ("vision.loss_s", "s", "self:vision.loss"),
    ("vision.predict_s", "s", "self:vision.predict"),
    ("training.epoch_s.p50", "s", "p50:training.epoch"),
    ("datasets.augment_s", "s", "self:datasets.augment"),
    ("datasets.build_s", "s", "self:datasets.build"),
    ("quantization.qat_s", "s", "self:quantization.qat"),
    ("quantization.convert_s", "s", "self:quantization.convert"),
    ("evaluation.map_s", "s", "self:evaluation.map"),
    ("mission.run_s.p50", "s", "p50:mission.run"),
    ("mission.run_s.p90", "s", "p90:mission.run"),
    ("mission.ticks", "count", "calls:drone.step"),
    ("sensors.ranger_s", "s", "self:sensors.ranger"),
    ("geometry.cast_s", "s", "self:geometry.cast"),
    ("geometry.cast.calls", "count", "calls:geometry.cast"),
    ("policies.update_s", "s", "self:policies.update"),
    ("drone.step_s", "s", "self:drone.step"),
    ("mapping.mocap_s", "s", "self:mapping.mocap"),
    ("sensors.camera_s", "s", "self:sensors.camera"),
    ("mission.detect_s", "s", "self:mission.detect"),
    ("exec.jobspec.hash_s", "s", "self:exec.jobspec.hash"),
    ("exec.cache.put_s", "s", "self:exec.cache.put"),
    ("exec.cache.put_bytes", "B", "counter:exec.cache.put_bytes"),
    ("exec.cache.get_s", "s", "self:exec.cache.get"),
    ("sim.record_decode_s", "s", "self:sim.record_decode"),
    ("sim.fleet.block_s.p50", "s", "p50:sim.fleet.block"),
    ("sim.fleet.blocks", "count", "calls:sim.fleet.block"),
    ("geometry.cast_fleet_s", "s", "self:geometry.cast_fleet"),
    ("sim.expand_s", "s", "self:sim.expand"),
    ("exec.failed", "count", "counter:exec.failed"),
    ("exec.retried", "count", "counter:exec.retried"),
)

#: Derived per-layer metrics (see :func:`layer_metrics`).
DERIVED: Tuple[Tuple[str, str], ...] = (
    ("nn.calls", "count"),
    ("exec.overhead_s", "s"),
    ("exec.cache.hit_ratio", "ratio"),
    ("exec.pool.busy_ratio", "ratio"),
)

#: Tracing overhead, filled in by ``run.py`` from its two timed passes.
OVERHEAD: Tuple[Tuple[str, str], ...] = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

UNITS: Dict[str, str] = {
    name: unit for name, unit, *_ in SIMPLE + DERIVED + OVERHEAD
}


class _Index:
    """Self time, call count and durations per span name, plus counters."""

    def __init__(self, records: List[dict]) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans = [r for r in records if r["kind"] == "span"]
        for r in records:
            name = r["name"]
            if r["kind"] == "counter":
                self.counters[name] = self.counters.get(name, 0) + r["value"]
                continue
            self.self_s[name] = self.self_s.get(name, 0.0) + r["self"]
            n = r["count"] if r["kind"] == "agg" else 1
            self.calls[name] = self.calls.get(name, 0) + n
            if r["kind"] == "span":
                self.durations.setdefault(name, []).append(r["end"] - r["start"])

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def percentile(self, name: str, q: float) -> float:
        values = self.durations.get(name)
        return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(records: List[dict], workers: int) -> Dict[str, float]:
    """Every per-layer metric except the tracing overhead ones."""
    idx = _Index(records)
    out: Dict[str, float] = {}
    for name, _, rule in SIMPLE:
        how, _, key = rule.partition(":")
        if how == "self":
            out[name] = idx.self_s.get(key, 0.0)
        elif how == "calls":
            out[name] = idx.calls.get(key, 0)
        elif how == "counter":
            out[name] = idx.counters.get(key, 0)
        else:
            out[name] = idx.percentile(key, float(how[1:]))
    out["nn.calls"] = sum(n for name, n in idx.calls.items() if name.startswith("nn."))
    # Executor.run minus the job bodies it ran in this process.
    runs = {(s["pid"], s["id"]) for s in idx.spans if s["name"] == "exec.run"}
    in_process_jobs = sum(
        s["end"] - s["start"]
        for s in idx.spans
        if s["name"] == "exec.job" and (s["pid"], s["parent"]) in runs
    )
    out["exec.overhead_s"] = idx.total("exec.run") - in_process_jobs
    gets = idx.counters.get("exec.cache.gets", 0)
    out["exec.cache.hit_ratio"] = idx.counters.get("exec.cache.hits", 0) / gets if gets else 0.0
    # Busy: job bodies in any process plus fleet blocks, over the cold passes.
    busy = idx.total("exec.job") + idx.total("sim.fleet.block")
    wall = idx.total("bench.cold")
    out["exec.pool.busy_ratio"] = busy / (workers * wall) if wall else 0.0
    return out


def top_self(records: List[dict], n: int = 12) -> List[Tuple[str, float, int]]:
    """The ``n`` span names with the most self time: ``(name, seconds, calls)``."""
    idx = _Index(records)
    ranked = sorted(idx.self_s.items(), key=lambda kv: -kv[1])[:n]
    return [(name, s, idx.calls[name]) for name, s in ranked]
