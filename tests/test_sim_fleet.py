"""Fleet-vectorized stepping: bit-identity with the serial mission loop.

The fleet stepper's whole contract is that it is *invisible* in the
results: ``fly_fleet(specs)`` must return records bit-identical to
``fly_mission(spec)`` for every member, on every world. These tests pin
that contract across all preset scenarios, all generated families, both
mission kinds, mixed per-mission configurations (policies, speeds, SSD
widths, flight times), and the degenerate N=1 block -- plus the
execution-layer wiring (``run_campaign(fleet_block=)``) and the
one-time ``MISSION_JOB_VERSION`` bump that re-keyed the mission cache
when per-sensor seed streams landed.
"""

import pytest

from repro import schemas
from repro.errors import ExecError, MissionError
from repro.exec import Broker, JobFailure, ResultCache, RetryPolicy
from repro.exec.faults import FaultPlan, FaultSpec, injected
from repro.sim import Campaign, get_scenario, scenario_names
from repro.sim.campaign import MissionSpec
from repro.sim.fleet import fleet_key, fly_fleet
from repro.sim.generators import get_family
from repro.sim.runner import fly_mission, mission_job, run_campaign

POLICIES = ("pseudo-random", "wall-following", "spiral", "rotate-and-measure")


def _specs(scenario, kind, n, flight_times=None, widths=None):
    """N missions over one scenario, varying every per-mission axis."""
    return [
        MissionSpec(
            index=i,
            scenario=scenario,
            kind=kind,
            policy=POLICIES[i % len(POLICIES)],
            speed=(0.5, 0.75, 0.25)[i % 3],
            ssd_width=(widths[i % len(widths)] if widths else scenario.ssd_width),
            run_idx=i,
            flight_time_s=(flight_times[i] if flight_times else 8.0),
            seed_entropy=4242,
            spawn_key=(5, i),
        )
        for i in range(n)
    ]


def _assert_fleet_matches_serial(specs):
    fleet = fly_fleet(specs)
    for outcome, spec in zip(fleet, specs):
        serial = fly_mission(spec)[0]
        assert outcome.to_dict() == serial.to_dict(), (
            f"fleet diverged from serial on {spec.scenario.name}/"
            f"{spec.policy} run {spec.run_idx}"
        )


@pytest.mark.parametrize("name", scenario_names())
def test_fleet_matches_serial_on_every_preset(name):
    scenario = get_scenario(name)
    _assert_fleet_matches_serial(_specs(scenario, "explore", 3))


@pytest.mark.parametrize(
    "family",
    ["perfect-maze", "random-apartment", "cluttered-warehouse", "scatter-field"],
)
def test_fleet_matches_serial_on_generated_worlds(family):
    scenario = get_family(family).generate(seed=3)
    _assert_fleet_matches_serial(_specs(scenario, "explore", 2, flight_times=[6.0, 6.0]))


def test_fleet_matches_serial_search_mixed_widths():
    """Search missions with per-mission detector operating points.

    Different SSD widths mean different camera frame rates, so the
    members of one block sample frames on *different* tick subsets --
    the fleet must keep a per-mission frame schedule.
    """
    scenario = get_scenario("paper-room")
    specs = _specs(scenario, "search", 3, widths=["1.0", "0.75", "0.5"])
    _assert_fleet_matches_serial(specs)


def test_fleet_early_finish_masking():
    """Shorter missions retire mid-block without disturbing the rest."""
    scenario = get_scenario("paper-room")
    specs = _specs(scenario, "explore", 4, flight_times=[4.0, 12.0, 2.0, 8.0])
    _assert_fleet_matches_serial(specs)


def test_fleet_single_mission_degenerate():
    scenario = get_scenario("paper-room")
    _assert_fleet_matches_serial(_specs(scenario, "explore", 1))


def test_fleet_record_order_follows_spec_order():
    scenario = get_scenario("paper-room")
    specs = _specs(scenario, "explore", 3, flight_times=[8.0, 2.0, 5.0])
    records = fly_fleet(specs)
    assert [r.index for r in records] == [s.index for s in specs]


def test_fleet_empty_block():
    assert fly_fleet([]) == []


def test_fleet_rejects_mixed_worlds():
    a = _specs(get_scenario("paper-room"), "explore", 1)
    b = _specs(get_scenario("apartment"), "explore", 1)
    assert fleet_key(a[0]) != fleet_key(b[0])
    with pytest.raises(MissionError):
        fly_fleet(a + b)


def test_fleet_rejects_mixed_kinds():
    scenario = get_scenario("paper-room")
    specs = _specs(scenario, "explore", 1) + _specs(scenario, "search", 1)
    with pytest.raises(MissionError):
        fly_fleet(specs)


# -- execution-layer wiring -------------------------------------------------


def _campaign(**overrides):
    kwargs = dict(
        name="fleet-test",
        scenarios=(get_scenario("paper-room"),),
        policies=("pseudo-random", "wall-following"),
        n_runs=2,
        flight_time_s=5.0,
        kind="explore",
        seed=11,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_block_byte_identical(workers):
    campaign = _campaign()
    serial = run_campaign(campaign)
    fleet = run_campaign(campaign, fleet_block=8, workers=workers)
    assert fleet.to_json() == serial.to_json()


def test_run_campaign_fleet_block_one_uses_serial_path():
    campaign = _campaign()
    serial = run_campaign(campaign)
    fleet = run_campaign(campaign, fleet_block=1)
    assert fleet.to_json() == serial.to_json()


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_reports_members_individually(workers):
    """Progress and the execution report count missions, not blocks."""
    campaign = _campaign()
    n = len(campaign.missions())
    seen = []
    exec_seen = []

    def progress(done, total, record):
        seen.append((done, total, record.index))

    def exec_progress(done, total, job, payload, cached):
        assert not isinstance(payload, JobFailure)
        exec_seen.append((done, total, cached))

    result = run_campaign(
        campaign,
        fleet_block=3,
        workers=workers,
        progress=progress,
        exec_progress=exec_progress,
    )
    assert [s[0] for s in seen] == list(range(1, n + 1))
    assert all(s[1] == n for s in seen)
    assert len(exec_seen) == n
    assert not any(cached for _, _, cached in exec_seen)
    assert sorted(s[2] for s in seen) == [s.index for s in campaign.missions()]
    report = result.execution
    assert report is not None
    assert report.total == n
    assert report.executed == n
    assert report.cached == 0
    # Per-job wall clocks are the block time amortized per member.
    assert report.job_mean_s > 0.0
    assert report.job_min_s <= report.job_mean_s <= report.job_max_s
    assert report.slowest_label


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_shares_cache_with_serial(tmp_path, workers):
    """Fleet-written cache entries are ordinary per-mission entries."""
    campaign = _campaign()
    n = len(campaign.missions())
    cache = ResultCache(str(tmp_path / "cache"))
    fleet = run_campaign(campaign, fleet_block=4, cache=cache, workers=workers)
    assert fleet.execution.executed == n
    served = run_campaign(campaign, cache=cache, workers=workers)
    assert served.execution.cached == n
    assert served.execution.executed == 0
    assert served.to_json() == fleet.to_json()
    # And the reverse: a fleet run over a warm cache flies nothing.
    refleet = run_campaign(campaign, fleet_block=4, cache=cache, workers=workers)
    assert refleet.execution.cached == n
    assert refleet.execution.executed == 0
    assert refleet.to_json() == fleet.to_json()
    # A fleet run fills the gaps a serial run left, and vice versa.
    cold = ResultCache(str(tmp_path / "cold"))
    first = campaign.missions()[:1]
    cold.put(mission_job(first[0]), fly_mission(first[0])[0].to_dict())
    mixed = run_campaign(campaign, fleet_block=4, cache=cold, workers=workers)
    assert mixed.execution.cached == 1
    assert mixed.execution.executed == n - 1
    assert mixed.to_json() == fleet.to_json()


def _member_hash(campaign, index):
    return mission_job(campaign.missions()[index]).content_hash()


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_permanent_fault_fails_one_member(workers):
    """A block whose member fails permanently re-flies its members alone.

    Only the faulty mission is reported failed, exactly as on the
    per-mission path; its block-mates keep their records.
    """
    campaign = _campaign()
    plan = FaultPlan(
        (
            FaultSpec(
                kind="raise",
                match=_member_hash(campaign, 1),
                attempt=None,
                permanent=True,
            ),
        )
    )
    with injected(plan):
        serial = run_campaign(campaign, keep_going=True)
        fleet = run_campaign(
            campaign, fleet_block=8, workers=workers, keep_going=True
        )
    assert len(serial.failures) == 1
    assert fleet.to_json() == serial.to_json()
    assert fleet.execution.failed == 1
    assert fleet.execution.executed == len(campaign.missions()) - 1


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_transient_fault_retries_block(workers):
    campaign = _campaign()
    plan = FaultPlan(
        (FaultSpec(kind="raise", match=_member_hash(campaign, 2), attempt=0),)
    )
    retry = RetryPolicy(max_attempts=2)
    with injected(plan):
        serial = run_campaign(campaign, retry=retry, keep_going=True)
        fleet = run_campaign(
            campaign, fleet_block=8, workers=workers, retry=retry, keep_going=True
        )
    assert not serial.failures
    assert fleet.to_json() == serial.to_json()
    assert fleet.execution.retried == 1
    assert fleet.execution.failed == 0


@pytest.mark.parametrize("workers", [None, 2])
def test_run_campaign_fleet_block_honors_timeout(workers):
    """A block's budget is the per-mission timeout times its members."""
    campaign = _campaign()
    plan = FaultPlan(
        (
            FaultSpec(
                kind="delay", match=_member_hash(campaign, 0), delay_s=2.5
            ),
        )
    )
    retry = RetryPolicy(max_attempts=2, timeout_s=0.5)
    with injected(plan):
        serial = run_campaign(campaign, retry=retry)
        fleet = run_campaign(campaign, fleet_block=4, workers=workers, retry=retry)
    assert serial.execution.timed_out == 1
    assert fleet.execution.timed_out == 1
    assert fleet.execution.retried == 1
    assert fleet.to_json() == serial.to_json()


def test_run_campaign_fleet_rejects_broker(tmp_path):
    with Broker(str(tmp_path / "queue.db")) as broker:
        with pytest.raises(ExecError, match="fleet_block=4.*broker"):
            run_campaign(
                _campaign(), fleet_block=4, broker=broker, wait_timeout_s=5.0
            )
        assert broker.counts().pending == 0


def test_run_campaign_fleet_rejects_record(tmp_path):
    with pytest.raises(ExecError, match="fleet_block=4.*record"):
        run_campaign(
            _campaign(), fleet_block=4, record=True, trace_dir=str(tmp_path)
        )


# -- the one-time cache re-key ----------------------------------------------


def test_mission_job_version_bumped_exactly_once():
    """Per-sensor seed streams re-keyed every cached mission, once.

    The mission job rides its own schema family now; v3 is the
    per-sensor-streams generation. Bumping it again (or sliding it back)
    invalidates every cached mission on disk -- this pin makes that a
    deliberate act.
    """
    assert schemas.MISSION_JOB_VERSION == "repro.sim.mission-job/v3"
    assert schemas.parse(schemas.MISSION_JOB_VERSION) == (
        "repro.sim.mission-job",
        3,
    )


def test_old_cache_entries_are_clean_misses(tmp_path):
    """Pre-bump entries neither serve nor poison the re-keyed jobs."""
    import dataclasses

    spec = _specs(get_scenario("paper-room"), "explore", 1)[0]
    job = mission_job(spec)
    assert job.version == schemas.MISSION_JOB_VERSION
    old_job = dataclasses.replace(job, version="repro.sim.mission-job/v2")
    assert old_job.content_hash() != job.content_hash()
    cache = ResultCache(str(tmp_path / "cache"))
    cache.put(old_job, {"stale": True})
    value, hit = cache.get(job)
    assert not hit
    # The stale entry stays readable under its own (old) identity.
    value, hit = cache.get(old_job)
    assert hit and value == {"stale": True}
