"""Unit tests of the observability capture layer: trace, recorder, store."""

import io
import time

import pytest

from repro.errors import ObsError
from repro.exec import ResultCache
from repro.obs import (
    TICK_COLUMNS,
    TRACE_SCHEMA,
    TRACE_SUFFIX,
    FlightRecorder,
    MissionTrace,
    ProgressLine,
    TraceStore,
)
from repro.exec import JobSpec


class _P:
    def __init__(self, x, y):
        self.x = x
        self.y = y


class _State:
    def __init__(self, t, x, y, heading=0.0):
        self.time = t
        self.position = _P(x, y)
        self.heading = heading


class _Estimate(_State):
    pass


class _SetPoint:
    forward = 0.4
    side = 0.0
    yaw_rate = 0.1


class _Reading:
    front = 1.0
    back = 2.0
    left = 0.5
    right = 0.6
    up = 3.0


def small_trace(n=3, kind="explore", detections=()):
    rec = FlightRecorder(kind)
    for i in range(n):
        rec.tick(
            _State(0.02 * (i + 1), 1.0 + 0.01 * i, 1.0),
            _Estimate(0.02 * (i + 1), 1.0 + 0.011 * i, 0.99),
            _SetPoint,
            _Reading,
            0,
        )
        rec.coverage_sample(0.02 * (i + 1), 0.001 * (i + 1))
    for name, cls, t, d in detections:
        rec.detection(name, cls, t, d)
    return rec.finish({"coverage": 0.5, "collisions": 0})


class TestRecorder:
    def test_tick_columns_align(self):
        trace = small_trace(5)
        assert trace.n_ticks == 5
        for column in TICK_COLUMNS:
            assert len(trace.columns[column]) == 5

    def test_phase_timer_accumulates(self, monkeypatch):
        clock = iter(range(100))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
        rec = FlightRecorder("explore")
        policy = rec.timed("policy", lambda reading, estimate: reading)
        assert policy("r", "e") == "r"
        assert policy("r", "e") == "r"
        assert rec.phases["policy"] == 2.0
        trace = rec.finish({})
        assert trace.timings["ticks"] == 0
        assert "policy" in trace.timings["phases"]

    def test_events_recorded(self):
        trace = small_trace(2, kind="search", detections=[("b1", "bottle", 0.04, 1.2)])
        assert trace.detections == [["b1", "bottle", 0.04, 1.2]]


class TestMissionTrace:
    def test_roundtrip_through_bytes(self):
        trace = small_trace()
        again = MissionTrace.from_bytes(trace.to_bytes())
        assert again.telemetry_dict() == trace.telemetry_dict()
        assert again.timings == trace.timings

    def test_fingerprint_ignores_timings(self):
        a = small_trace()
        b = small_trace()
        a.timings = {"ticks": 3, "phases": {"policy": 1.23}}
        b.timings = {"ticks": 3, "phases": {"policy": 9.87}}
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_covers_telemetry(self):
        a = small_trace(3)
        b = small_trace(4)
        assert a.fingerprint() != b.fingerprint()

    def test_serialized_bytes_are_deterministic(self):
        a, b = small_trace(), small_trace()
        a.timings = b.timings = {}
        assert a.to_bytes() == b.to_bytes()

    def test_missing_column_rejected(self):
        columns = {c: [0.0] for c in TICK_COLUMNS if c != "heading"}
        with pytest.raises(ObsError, match="missing telemetry columns"):
            MissionTrace(kind="explore", columns=columns)

    def test_ragged_columns_rejected(self):
        columns = {c: [0.0] for c in TICK_COLUMNS}
        columns["t"] = [0.0, 1.0]
        with pytest.raises(ObsError, match="unequal lengths"):
            MissionTrace(kind="explore", columns=columns)

    def test_schema_mismatch_rejected(self):
        data = small_trace().to_dict()
        data["schema"] = "repro.obs.trace/v0"
        with pytest.raises(ObsError, match="not a"):
            MissionTrace.from_dict(data)

    def test_corrupt_bytes_rejected(self):
        with pytest.raises(ObsError, match="corrupt"):
            MissionTrace.from_bytes(b"not gzip at all")


class TestTraceStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = TraceStore(str(tmp_path))
        h = "ab" * 32
        trace = small_trace()
        path = store.put(h, trace)
        assert path.endswith(TRACE_SUFFIX)
        assert store.has(h)
        assert store.get(h).fingerprint() == trace.fingerprint()

    def test_missing_trace_is_an_error(self, tmp_path):
        store = TraceStore(str(tmp_path))
        with pytest.raises(ObsError, match="no flight trace"):
            store.get("ab" * 32)

    def test_find_resolves_prefixes(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put("ab" * 32, small_trace())
        store.put("cd" * 32, small_trace())
        assert store.find("ab") == "ab" * 32
        assert store.find("ef") is None
        store.put("abab" + "ff" * 30, small_trace())
        with pytest.raises(ObsError, match="ambiguous"):
            store.find("ab")

    def test_stats_and_clear(self, tmp_path):
        store = TraceStore(str(tmp_path))
        store.put("ab" * 32, small_trace())
        stats = store.stats()
        assert stats.traces == 1 and stats.total_bytes > 0
        assert store.clear() == 1
        assert store.stats() == (0, 0, 0)

    def test_traces_invisible_to_result_cache(self, tmp_path):
        # Traces share the directory with the result cache; neither
        # side's inventory or clear() may touch the other's files.
        cache = ResultCache(str(tmp_path))
        job = JobSpec(fn="repro.exec.demo:scaled_sum", kwargs={"values": [1.0]})
        cache.put(job, 1.0)
        store = TraceStore(str(tmp_path))
        store.put(job.content_hash(), small_trace())
        assert cache.stats().entries == 1
        assert store.stats().traces == 1
        assert cache.clear() == 1
        assert store.stats().traces == 1
        assert store.clear() == 1


class TestProgressLine:
    def job(self):
        return JobSpec(fn="repro.exec.demo:scaled_sum", kwargs={"values": [1.0]})

    def test_rewrites_one_line_and_counts(self):
        out = io.StringIO()
        line = ProgressLine("camp", stream=out)
        line(1, 3, self.job(), None, True)
        line(2, 3, self.job(), None, False)
        line(3, 3, self.job(), None, False)
        line.finish()
        text = out.getvalue()
        assert text.count("\r") == 3
        assert text.endswith("\n")
        assert "3/3 jobs (1 cached, 2 executed)" in text
        assert line.hits == 1 and line.executed == 2

    def test_eta_appears_once_something_executed(self):
        out = io.StringIO()
        line = ProgressLine("camp", stream=out)
        line(1, 4, self.job(), None, True)
        assert "ETA" not in out.getvalue()  # cache hits give no basis
        line(2, 4, self.job(), None, False)
        assert "ETA" in out.getvalue()

    def test_finish_without_output_is_silent(self):
        out = io.StringIO()
        ProgressLine("camp", stream=out).finish()
        assert out.getvalue() == ""
