"""Distributed work queue: broker semantics, crash recovery, exactly-once.

The fast tests drive the lease state machine directly through the
broker's ``now=`` clock overrides -- no sleeping, no racing. The
crash-recovery tests then do it for real: worker subprocesses SIGKILLed
mid-lease, a writer SIGKILLed mid-commit, and a concurrent fleet racing
over one queue, with the ``leases`` audit table proving exactly-once
execution.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ExecError
from repro.exec import (
    Broker,
    JobSpec,
    RetryPolicy,
    Worker,
)
from repro.exec.executor import _failure_from_parts
from repro.exec.faults import FAULT_KINDS, FaultPlan, FaultSpec, injected
from repro.sim import Campaign, get_scenario, run_campaign
from repro.sim.runner import campaign_jobs, enqueue_campaign


def sum_job(i=0, label=""):
    return JobSpec(
        fn="repro.exec.demo:scaled_sum",
        kwargs={"values": [1.0, float(i)], "factor": 2.0},
        version="v1",
        label=label,
    )


def echo_job(token, marker_dir, sleep_s=0.0):
    return JobSpec(
        fn="repro.exec.demo:counted_echo",
        kwargs={"token": token, "marker_dir": marker_dir, "sleep_s": sleep_s},
        version="v1",
        label=token,
    )


def transient_failure(job, attempts=1):
    return _failure_from_parts(
        job, attempts=attempts, error_type="TransientJobError",
        message="flaky", transient=True,
    )


def permanent_failure(job, attempts=1):
    return _failure_from_parts(
        job, attempts=attempts, error_type="ExecError",
        message="broken", transient=False,
    )


@pytest.fixture()
def broker(tmp_path):
    with Broker(str(tmp_path / "queue.db")) as b:
        yield b


def _worker_cmd(db, *extra):
    return [
        sys.executable, "-m", "repro.exec", "worker",
        "--broker", db, "--poll", "0.05", "--no-cache", *extra,
    ]


def _wait_for(predicate, timeout_s=20.0, interval_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"timed out waiting for {what}")


class TestBrokerLifecycle:
    def test_submit_lease_complete_roundtrip(self, broker):
        job = sum_job(3, label="three")
        report = broker.submit([job])
        assert (report.submitted, report.duplicates, report.already_done) == (1, 0, 0)
        lease = broker.lease("w1")
        assert lease.content_hash == job.content_hash()
        assert lease.attempt == 0
        assert lease.job.content_hash() == job.content_hash()
        assert lease.job.label == "three"
        assert broker.complete("w1", lease.content_hash, lease.job.run())
        out = broker.outcome(job.content_hash())
        assert out.state == "done"
        assert out.result == 8.0
        assert broker.counts().remaining == 0

    def test_submit_is_idempotent(self, broker):
        job = sum_job(1)
        assert broker.submit([job]).submitted == 1
        assert broker.submit([job]).duplicates == 1
        lease = broker.lease("w1")
        assert broker.submit([job]).duplicates == 1
        broker.complete("w1", lease.content_hash, 4.0)
        assert broker.submit([job]).already_done == 1
        assert broker.counts().total == 1

    def test_lease_on_empty_queue_returns_none(self, broker):
        assert broker.lease("w1") is None

    def test_leases_are_fifo(self, broker):
        jobs = [sum_job(i) for i in range(3)]
        for i, job in enumerate(jobs):
            broker.submit([job], now=100.0 + i)
        got = [broker.lease(f"w{i}").content_hash for i in range(3)]
        assert got == [j.content_hash() for j in jobs]

    def test_extra_side_channel_travels_with_the_spec(self, broker):
        import dataclasses
        job = dataclasses.replace(
            sum_job(2), extra={"trace_dir": "/tmp/traces", "trace_key": "k"}
        )
        broker.submit([job])
        lease = broker.lease("w1")
        assert lease.job.extra == {"trace_dir": "/tmp/traces", "trace_key": "k"}
        assert lease.job.content_hash() == job.content_hash()

    def test_memory_path_rejected(self):
        with pytest.raises(ExecError, match="real database path"):
            Broker(":memory:")

    def test_non_broker_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not sqlite at all" * 100)
        with pytest.raises(ExecError, match="not a broker database"):
            Broker(str(path))

    def test_worker_registry(self, broker):
        broker.register_worker("w1", pid=4242, now=50.0)
        broker.submit([sum_job(1)])
        lease = broker.lease("w1", now=60.0)
        broker.complete("w1", lease.content_hash, 1.0, now=61.0)
        (row,) = broker.workers()
        assert row["worker"] == "w1"
        assert row["pid"] == 4242
        assert row["jobs_done"] == 1
        assert row["last_seen"] == 61.0


class TestLeaseStateMachine:
    def test_expired_lease_is_reclaimed_by_next_lease_call(self, broker):
        broker.submit([sum_job(1)])
        first = broker.lease("dead", lease_s=10.0, now=100.0)
        assert broker.lease("live", now=105.0) is None  # still held
        second = broker.lease("live", now=111.0)  # deadline 110 passed
        assert second is not None
        assert second.content_hash == first.content_hash
        assert second.attempt == 1  # the reclaim is visible to fault keying
        out = broker.outcome(first.content_hash)
        assert out.reclaims == 1

    def test_heartbeat_extends_the_deadline(self, broker):
        broker.submit([sum_job(1)])
        lease = broker.lease("w1", lease_s=10.0, now=100.0)
        assert broker.heartbeat("w1", lease.content_hash, lease_s=10.0, now=108.0)
        assert broker.lease("thief", now=112.0) is None  # extended to 118
        assert broker.lease("thief", now=119.0) is not None

    def test_heartbeat_refused_after_reclaim(self, broker):
        broker.submit([sum_job(1)])
        lease = broker.lease("dead", lease_s=1.0, now=100.0)
        broker.lease("live", now=102.0)
        assert not broker.heartbeat("dead", lease.content_hash, now=103.0)

    def test_late_completion_from_presumed_dead_worker_is_discarded(self, broker):
        broker.submit([sum_job(1)])
        lease = broker.lease("dead", lease_s=1.0, now=100.0)
        release = broker.lease("live", now=102.0)
        # the presumed-dead worker finishes late: refused, nothing stored
        assert not broker.complete("dead", lease.content_hash, 999.0, now=103.0)
        assert broker.outcome(lease.content_hash).state == "leased"
        assert broker.complete("live", release.content_hash, 4.0, now=104.0)
        out = broker.outcome(lease.content_hash)
        assert out.state == "done"
        assert out.result == 4.0
        # exactly one completion ever recorded
        with broker._lock:
            (completions,) = broker._conn.execute(
                "SELECT completions FROM jobs WHERE hash=?", (lease.content_hash,)
            ).fetchone()
        assert completions == 1

    def test_transient_failure_requeues_with_backoff(self, broker):
        job = sum_job(1)
        broker.submit([job], retry=RetryPolicy(max_attempts=3))
        lease = broker.lease("w1", now=100.0)
        state = broker.fail(
            "w1", lease.content_hash, transient_failure(job), retry_delay_s=5.0,
            now=101.0,
        )
        assert state == "requeued"
        assert broker.lease("w1", now=103.0) is None  # backoff window
        retry = broker.lease("w1", now=106.5)
        assert retry is not None
        assert retry.attempt == 1

    def test_permanent_failure_freezes_the_envelope(self, broker):
        job = sum_job(1)
        broker.submit([job], retry=RetryPolicy(max_attempts=3))
        lease = broker.lease("w1")
        assert broker.fail("w1", lease.content_hash, permanent_failure(job)) == "failed"
        out = broker.outcome(job.content_hash())
        assert out.state == "failed"
        failure = out.failure()
        assert failure.error_type == "ExecError"
        assert not failure.transient

    def test_attempt_budget_exhaustion(self, broker):
        job = sum_job(1)
        broker.submit([job], retry=RetryPolicy(max_attempts=2))
        lease = broker.lease("w1", now=100.0)
        assert (
            broker.fail("w1", lease.content_hash, transient_failure(job), now=101.0)
            == "requeued"
        )
        lease = broker.lease("w1", now=102.0)
        assert lease.attempt == 1
        assert (
            broker.fail(
                "w1", lease.content_hash, transient_failure(job, attempts=2),
                now=103.0,
            )
            == "failed"
        )
        out = broker.outcome(job.content_hash())
        assert out.state == "failed"
        assert out.attempts == 2

    def test_fail_after_reclaim_reports_lost(self, broker):
        job = sum_job(1)
        broker.submit([job], retry=RetryPolicy(max_attempts=3))
        broker.lease("dead", lease_s=1.0, now=100.0)
        broker.lease("live", now=102.0)
        state = broker.fail(
            "dead", job.content_hash(), transient_failure(job), now=103.0
        )
        assert state == "lost"

    def test_reclaim_budget_exhaustion_fails_the_job(self, broker):
        job = sum_job(1, label="poison")
        broker.submit([job], max_reclaims=2)
        broker.lease("w1", lease_s=1.0, now=100.0)
        assert broker.reclaim_expired(now=102.0) == 1  # reclaim 1 -> pending
        broker.lease("w2", lease_s=1.0, now=103.0)
        assert broker.reclaim_expired(now=105.0) == 1  # reclaim 2 -> budget gone
        out = broker.outcome(job.content_hash())
        assert out.state == "failed"
        assert out.reclaims == 2
        failure = out.failure()
        assert failure.error_type == "LeaseExpired"
        assert failure.worker_crash
        history = [entry["outcome"] for entry in broker.lease_history(job.content_hash())]
        assert history == ["expired", "expired"]

    def test_requeue_failed_resets_accounting(self, broker):
        job = sum_job(1)
        broker.submit([job])
        lease = broker.lease("w1", now=100.0)
        broker.fail("w1", lease.content_hash, permanent_failure(job), now=101.0)
        assert broker.requeue_failed() == 1
        lease = broker.lease("w1", now=102.0)
        assert lease is not None
        assert lease.attempt == 0
        assert broker.complete("w1", lease.content_hash, 4.0)

    def test_stats_inventory(self, broker):
        jobs = [sum_job(i) for i in range(3)]
        broker.submit(jobs, retry=RetryPolicy(max_attempts=2))
        lease = broker.lease("w1", now=100.0)
        broker.complete("w1", lease.content_hash, 1.0, now=101.0)
        lease = broker.lease("w1", now=102.0)
        broker.fail("w1", lease.content_hash, transient_failure(jobs[1]), now=103.0)
        stats = broker.stats()
        assert stats["jobs"]["total"] == 3
        assert stats["jobs"]["done"] == 1
        assert stats["jobs"]["pending"] == 2
        assert stats["completions"] == 1
        assert stats["failed_attempts"] == 1
        assert stats["leases"] == {"completed": 1, "requeued": 1}
        assert json.dumps(stats)  # artifact-grade: JSON-serializable


class TestWorkerLoop:
    def test_worker_drains_queue_in_process(self, broker, tmp_path):
        jobs = [echo_job(f"t{i}", str(tmp_path / "markers")) for i in range(5)]
        broker.submit(jobs)
        report = Worker(
            broker, worker_id="w1", poll_s=0.01, exit_when_drained=True
        ).run()
        assert report.completed == 5
        assert broker.counts().done == 5
        for job in jobs:
            assert broker.outcome(job.content_hash()).result == job.kwargs["token"]

    def test_worker_serves_cache_hits_without_executing(self, broker, tmp_path):
        from repro.exec import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        job = echo_job("tok", str(tmp_path / "markers"))
        cache.put(job, "tok")
        broker.submit([job])
        report = Worker(
            broker, cache=cache, worker_id="w1", poll_s=0.01,
            exit_when_drained=True,
        ).run()
        assert report.completed == 1
        assert report.cache_hits == 1
        assert not (tmp_path / "markers").exists()  # never executed
        out = broker.outcome(job.content_hash())
        assert out.cached
        assert out.result == "tok"

    def test_worker_requeues_transient_and_reports_permanent(self, broker):
        flaky = JobSpec(
            fn="repro.exec.demo:always_fails",
            kwargs={"message": "nope"},
            version="v1",
            label="hopeless",
        )
        broker.submit([flaky], retry=RetryPolicy(max_attempts=3))
        report = Worker(
            broker, worker_id="w1", poll_s=0.01, exit_when_drained=True
        ).run()
        # ExecError is permanent: one attempt, no requeue
        assert report.failed == 1
        assert report.requeued == 0
        out = broker.outcome(flaky.content_hash())
        assert out.state == "failed"
        assert out.failure().error_type == "ExecError"
        assert out.attempts == 1

    def test_worker_timeout_is_transient_and_requeued(self, broker):
        slow = JobSpec(
            fn="repro.exec.demo:sleepy_echo",
            kwargs={"value": 7.0, "sleep_s": 5.0},
            version="v1",
        )
        broker.submit([slow], retry=RetryPolicy(max_attempts=1))
        report = Worker(
            broker,
            retry=RetryPolicy(max_attempts=1, timeout_s=0.1),
            worker_id="w1",
            poll_s=0.01,
            exit_when_drained=True,
        ).run()
        assert report.failed == 1
        out = broker.outcome(slow.content_hash())
        assert out.state == "failed"
        assert out.failure().timed_out
        assert out.timeouts == 1


class TestCrashRecovery:
    def test_sigkilled_worker_job_is_re_leased_and_completes(self, broker, tmp_path):
        """A worker killed -9 mid-lease loses the job, not the queue."""
        markers = str(tmp_path / "markers")
        job = echo_job("survivor", markers)
        broker.submit([job], retry=RetryPolicy(max_attempts=2))
        env = dict(os.environ)
        # attempt 0 stalls for 60 s inside the job body -- the victim is
        # guaranteed to die mid-lease; the reclaimed attempt 1 is clean.
        env["REPRO_FAULT_PLAN"] = json.dumps(
            {"faults": [{"kind": "delay", "attempt": 0, "delay_s": 60.0}]}
        )
        victim = subprocess.Popen(
            _worker_cmd(broker.path, "--lease", "1", "--worker-id", "victim"),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(
                lambda: broker.counts().leased == 1, what="victim to lease the job"
            )
            victim.kill()  # SIGKILL: no heartbeats ever again
            victim.wait(timeout=10)
            rescue = Worker(
                broker, worker_id="rescuer", poll_s=0.05, exit_when_drained=True
            ).run()
        finally:
            if victim.poll() is None:
                victim.kill()
        assert rescue.completed == 1
        out = broker.outcome(job.content_hash())
        assert out.state == "done"
        assert out.result == "survivor"
        assert out.reclaims == 1
        history = broker.lease_history(job.content_hash())
        assert [h["worker"] for h in history] == ["victim", "rescuer"]
        assert [h["outcome"] for h in history] == ["expired", "completed"]
        # the reclaimed execution ran exactly once (victim died pre-body)
        assert len(os.listdir(os.path.join(markers, "survivor"))) == 1

    def test_broker_db_survives_kill9_mid_commit(self, tmp_path):
        """WAL journaling: a writer killed -9 mid-commit corrupts nothing."""
        db = str(tmp_path / "queue.db")
        Broker(db).close()  # create schema first
        writer = subprocess.Popen(
            [
                sys.executable,
                "-c",
                (
                    "from repro.exec import Broker, JobSpec\n"
                    "b = Broker(%r)\n"
                    "i = 0\n"
                    "while True:\n"
                    "    b.submit([JobSpec(fn='repro.exec.demo:scaled_sum',"
                    " kwargs={'values': [1.0, float(i + k)], 'factor': 2.0},"
                    " version='kill9') for k in range(200)])\n"
                    "    i += 200\n"
                )
                % db,
            ],
            env=dict(os.environ),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(
                lambda: Broker(db).counts().pending > 200,
                what="writer to commit some batches",
            )
            os.kill(writer.pid, signal.SIGKILL)
            writer.wait(timeout=10)
        finally:
            if writer.poll() is None:
                writer.kill()
        with Broker(db) as survivor:
            assert survivor.integrity_ok()
            before = survivor.counts()
            assert before.pending > 0
            assert before.leased == 0  # no half-leased wreckage
            # the queue still works end to end
            job = sum_job(10**9)
            assert survivor.submit([job]).submitted == 1
            lease = survivor.lease("after-crash")
            assert lease is not None
            assert survivor.complete("after-crash", lease.content_hash, 0.0)

    def test_worker_finishes_current_job_on_sigterm(self, broker, tmp_path):
        """Graceful shutdown: SIGTERM completes the in-flight job first."""
        markers = str(tmp_path / "markers")
        job = echo_job("graceful", markers, sleep_s=1.5)
        broker.submit([job])
        worker = subprocess.Popen(
            _worker_cmd(broker.path, "--worker-id", "polite"),
            env=dict(os.environ),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            _wait_for(
                lambda: broker.counts().leased == 1, what="worker to lease the job"
            )
            worker.send_signal(signal.SIGTERM)
            stdout, _ = worker.communicate(timeout=30)
        finally:
            if worker.poll() is None:
                worker.kill()
        assert worker.returncode == 0, stdout
        out = broker.outcome(job.content_hash())
        assert out.state == "done"
        assert out.result == "graceful"
        assert out.reclaims == 0  # never expired: the worker finished it


class TestExactlyOnce:
    def test_concurrent_fleet_executes_every_job_exactly_once(self, tmp_path):
        db = str(tmp_path / "queue.db")
        markers = str(tmp_path / "markers")
        n_workers, n_jobs = 4, 24
        jobs = [echo_job(f"job-{i:03d}", markers) for i in range(n_jobs)]
        with Broker(db, lease_s=30.0) as submitter:
            submitter.submit(jobs)

        def drain(worker_id):
            with Broker(db) as b:
                Worker(
                    b, worker_id=worker_id, poll_s=0.01, exit_when_drained=True
                ).run()

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",)) for i in range(n_workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        with Broker(db) as b:
            counts = b.counts()
            assert counts.done == n_jobs
            assert counts.failed == 0
            for job in jobs:
                content_hash = job.content_hash()
                out = b.outcome(content_hash)
                assert out.state == "done"
                assert out.result == job.kwargs["token"]
                # lease uniqueness: exactly one lease ever completed it,
                # and no two leases were live simultaneously
                history = b.lease_history(content_hash)
                assert [h["outcome"] for h in history].count("completed") == 1
                live = [h for h in history if h["outcome"] is None]
                assert live == []
                with b._lock:
                    (completions,) = b._conn.execute(
                        "SELECT completions FROM jobs WHERE hash=?", (content_hash,)
                    ).fetchone()
                assert completions == 1
        # the side-effect ledger agrees: one execution per job, ever
        executed = sorted(os.listdir(markers))
        assert executed == [f"job-{i:03d}" for i in range(n_jobs)]
        for token in executed:
            assert len(os.listdir(os.path.join(markers, token))) == 1


def _smoke_campaign():
    return Campaign(
        name="queue-smoke",
        scenarios=(get_scenario("paper-room"),),
        n_runs=2,
        flight_time_s=5.0,
        seed=11,
    )


class TestCampaignByteIdentity:
    def test_broker_drained_campaign_matches_serial_bytes(self, tmp_path):
        """Acceptance: 3 workers, one SIGKILLed mid-lease, bytes equal."""
        campaign = _smoke_campaign()
        serial = run_campaign(campaign)
        serial_path = serial.save(str(tmp_path / "serial"))

        db = str(tmp_path / "queue.db")
        with Broker(db) as broker:
            enqueue_campaign(campaign, broker, retry=RetryPolicy(max_attempts=2))
            env = dict(os.environ)
            env["REPRO_FAULT_PLAN"] = json.dumps(
                {"faults": [{"kind": "delay", "attempt": 0, "delay_s": 60.0}]}
            )
            victim = subprocess.Popen(
                _worker_cmd(db, "--lease", "1", "--worker-id", "victim"),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            helpers = []
            try:
                _wait_for(
                    lambda: broker.counts().leased >= 1,
                    what="victim to lease a mission",
                )
                victim.kill()  # mid-lease, mid-job-body
                victim.wait(timeout=10)
                helpers = [
                    subprocess.Popen(
                        _worker_cmd(
                            db, "--exit-when-drained", "--worker-id", f"helper{i}"
                        ),
                        env=dict(os.environ),
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                    for i in range(2)
                ]
                brokered = run_campaign(campaign, broker=broker, wait_timeout_s=120.0)
                for h in helpers:
                    h.wait(timeout=30)
            finally:
                for proc in [victim, *helpers]:
                    if proc.poll() is None:
                        proc.kill()
            stats = broker.stats()
        brokered_path = brokered.save(str(tmp_path / "brokered"))
        assert os.path.basename(serial_path) == os.path.basename(brokered_path)
        with open(serial_path, "rb") as f:
            serial_bytes = f.read()
        with open(brokered_path, "rb") as f:
            brokered_bytes = f.read()
        assert serial_bytes == brokered_bytes
        # the kill really happened and really was recovered from
        assert stats["reclaims"] >= 1
        assert stats["completions"] == len(campaign.missions())
        assert stats["jobs"]["failed"] == 0

    def test_run_campaign_broker_times_out_without_workers(self, tmp_path):
        campaign = _smoke_campaign()
        with Broker(str(tmp_path / "queue.db")) as broker:
            with pytest.raises(ExecError, match="are any workers running"):
                run_campaign(campaign, broker=broker, wait_timeout_s=0.3, poll_s=0.05)

    @pytest.mark.parametrize(
        "knobs, match",
        [
            ({"poll_s": -1.0}, "poll_s must be >= 0"),
            ({"wait_timeout_s": 0.0}, "wait_timeout_s must be > 0"),
        ],
    )
    def test_run_campaign_broker_rejects_bad_poll_knobs(self, tmp_path, knobs, match):
        with Broker(str(tmp_path / "queue.db")) as broker:
            with pytest.raises(ExecError, match=match):
                run_campaign(_smoke_campaign(), broker=broker, **knobs)
            assert broker.counts().total == 0  # refused before submitting

    def test_enqueue_campaign_is_idempotent(self, tmp_path):
        campaign = _smoke_campaign()
        with Broker(str(tmp_path / "queue.db")) as broker:
            first = enqueue_campaign(campaign, broker)
            again = enqueue_campaign(campaign, broker)
        assert first.submitted == len(campaign.missions())
        assert again.submitted == 0
        assert again.duplicates == len(campaign.missions())


@pytest.fixture(scope="module")
def serial_smoke(tmp_path_factory):
    """Fault-free baseline bytes for the smoke campaign, computed once."""
    result = run_campaign(_smoke_campaign())
    path = result.save(str(tmp_path_factory.mktemp("serial")))
    with open(path, "rb") as f:
        return os.path.basename(path), f.read()


class TestFaultMatrix:
    """Every fault kind, injected via $REPRO_FAULT_PLAN into a real
    worker subprocess draining a real campaign -- the saved result file
    must come out byte-identical to the fault-free serial baseline."""

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_campaign_bytes_survive_every_fault_kind(
        self, kind, tmp_path, serial_smoke
    ):
        campaign = _smoke_campaign()
        n_missions = len(campaign.missions())
        db = str(tmp_path / "queue.db")
        fault = {"kind": kind, "attempt": 0}
        if kind == "delay":
            fault["delay_s"] = 0.2
        env = dict(os.environ)
        env["REPRO_FAULT_PLAN"] = json.dumps({"faults": [fault]})
        # cache faults only fire on cache writes, so those runs get a
        # cache; the attempt faults run bare to keep the matrix minimal
        cache_args = (
            ("--cache", str(tmp_path / "cache"))
            if kind.startswith("cache-")
            else ("--no-cache",)
        )
        with Broker(db) as broker:
            enqueue_campaign(campaign, broker, retry=RetryPolicy(max_attempts=3))
            worker = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.exec", "worker",
                    "--broker", db, "--poll", "0.05", "--exit-when-drained",
                    "--worker-id", f"chaos-{kind}", *cache_args,
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            try:
                brokered = run_campaign(
                    campaign, broker=broker,
                    retry=RetryPolicy(max_attempts=3), wait_timeout_s=120.0,
                )
                stdout, _ = worker.communicate(timeout=60)
            finally:
                if worker.poll() is None:
                    worker.kill()
            assert worker.returncode == 0, stdout
            stats = broker.stats()
        baseline_name, baseline_bytes = serial_smoke
        path = brokered.save(str(tmp_path / "out"))
        assert os.path.basename(path) == baseline_name
        with open(path, "rb") as f:
            assert f.read() == baseline_bytes
        assert stats["jobs"]["failed"] == 0
        assert stats["completions"] == n_missions
        if kind in ("raise", "crash"):
            # every mission's attempt 0 really was shot down and retried
            assert stats["failed_attempts"] == n_missions
            assert stats["leases"]["requeued"] == n_missions


def _counters(report):
    return {
        name: getattr(report, name)
        for name in ("total", "executed", "cached", "failed", "retried", "timed_out")
    }


class TestBrokerCollection:
    """What a brokered ``run_campaign`` reports: execution counters and
    the ``(done, total, cached)`` progress sequence.

    Every case is timing-free. Either an in-process worker drains the
    queue before collection starts, or it drains the queue from inside
    the collector's first between-polls sleep (``time.sleep`` is
    patched), so the first poll deterministically sees nothing done.
    """

    @staticmethod
    def _collect(broker, campaign, **kwargs):
        seen = []
        result = run_campaign(
            campaign,
            broker=broker,
            wait_timeout_s=60.0,
            poll_s=0.01,
            exec_progress=lambda done, total, job, payload, cached: seen.append(
                (done, total, cached)
            ),
            **kwargs,
        )
        return result, seen

    @staticmethod
    def _drain_on_first_sleep(monkeypatch, broker, **worker_kwargs):
        reports = []

        def sleep(_seconds):
            if not reports:
                reports.append(
                    Worker(
                        broker, worker_id="w", poll_s=0.01,
                        exit_when_drained=True, **worker_kwargs,
                    ).run()
                )

        monkeypatch.setattr(time, "sleep", sleep)
        return reports

    @staticmethod
    def _saved_bytes(result, directory):
        with open(result.save(str(directory)), "rb") as f:
            return f.read()

    def test_queue_drained_before_collection_counts_as_cached(
        self, tmp_path, serial_smoke
    ):
        campaign = _smoke_campaign()
        with Broker(str(tmp_path / "queue.db")) as broker:
            enqueue_campaign(campaign, broker)
            Worker(broker, worker_id="w", poll_s=0.01, exit_when_drained=True).run()
            result, seen = self._collect(broker, campaign)
        assert _counters(result.execution) == {
            "total": 2, "executed": 0, "cached": 2,
            "failed": 0, "retried": 0, "timed_out": 0,
        }
        assert seen == [(1, 2, True), (2, 2, True)]
        assert self._saved_bytes(result, tmp_path / "out") == serial_smoke[1]

    def test_worker_executions_count_as_executed(
        self, tmp_path, monkeypatch, serial_smoke
    ):
        campaign = _smoke_campaign()
        with Broker(str(tmp_path / "queue.db")) as broker:
            reports = self._drain_on_first_sleep(monkeypatch, broker)
            result, seen = self._collect(broker, campaign)
        assert reports[0].completed == 2 and reports[0].cache_hits == 0
        assert _counters(result.execution) == {
            "total": 2, "executed": 2, "cached": 0,
            "failed": 0, "retried": 0, "timed_out": 0,
        }
        assert seen == [(1, 2, False), (2, 2, False)]
        assert self._saved_bytes(result, tmp_path / "out") == serial_smoke[1]

    def test_worker_cache_hits_count_as_cached(
        self, tmp_path, monkeypatch, serial_smoke
    ):
        from repro.exec import ResultCache

        campaign = _smoke_campaign()
        cache = ResultCache(str(tmp_path / "cache"))
        run_campaign(campaign, cache=cache)
        with Broker(str(tmp_path / "queue.db")) as broker:
            reports = self._drain_on_first_sleep(monkeypatch, broker, cache=cache)
            result, seen = self._collect(broker, campaign)
        assert reports[0].cache_hits == 2
        assert _counters(result.execution) == {
            "total": 2, "executed": 0, "cached": 2,
            "failed": 0, "retried": 0, "timed_out": 0,
        }
        assert seen == [(1, 2, True), (2, 2, True)]
        assert self._saved_bytes(result, tmp_path / "out") == serial_smoke[1]

    def test_keep_going_reports_the_exhausted_mission(self, tmp_path, monkeypatch):
        campaign = _smoke_campaign()
        hashes = [job.content_hash() for job in campaign_jobs(campaign)]
        # mission 0 fails every attempt; mission 1 only its first
        plan = FaultPlan(
            (
                FaultSpec(kind="raise", match=hashes[0], attempt=None),
                FaultSpec(kind="raise", match=hashes[1], attempt=0),
            )
        )
        retry = RetryPolicy(max_attempts=3)
        with injected(plan):
            serial = run_campaign(campaign, retry=retry, keep_going=True)
            with Broker(str(tmp_path / "queue.db")) as broker:
                reports = self._drain_on_first_sleep(monkeypatch, broker)
                result, seen = self._collect(
                    broker, campaign, retry=retry, keep_going=True
                )
        assert (reports[0].completed, reports[0].failed) == (1, 1)
        assert _counters(result.execution) == {
            "total": 2, "executed": 1, "cached": 0,
            "failed": 1, "retried": 3, "timed_out": 0,
        }
        assert seen == [(1, 2, False), (2, 2, False)]
        (failure,) = result.failures
        assert failure["index"] == 0
        assert failure["job_hash"] == hashes[0]
        assert failure["error_type"] == "TransientJobError"
        assert failure["attempts"] == 3
        assert [r.index for r in result.records] == [1]
        assert self._saved_bytes(result, tmp_path / "brokered") == (
            self._saved_bytes(serial, tmp_path / "serial")
        )

    def test_without_keep_going_a_failed_mission_raises(self, tmp_path):
        campaign = _smoke_campaign()
        job = campaign_jobs(campaign)[0]
        plan = FaultPlan(
            (FaultSpec(kind="raise", match=job.content_hash(), permanent=True),)
        )
        with Broker(str(tmp_path / "queue.db")) as broker:
            enqueue_campaign(campaign, broker)
            with injected(plan):
                Worker(
                    broker, worker_id="w", poll_s=0.01, exit_when_drained=True
                ).run()
            with pytest.raises(ExecError, match="keep_going") as info:
                run_campaign(campaign, broker=broker, wait_timeout_s=60.0)
        assert job.label in str(info.value)
