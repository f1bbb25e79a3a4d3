"""CLI entry: list scenarios/families and execute mission campaigns.

Usage:
    python -m repro.sim list
    python -m repro.sim show corridor-maze --map
    python -m repro.sim show perfect-maze --seed 3 --param cols=12 --param rows=8
    python -m repro.sim run --scenario paper-room --runs 2 --flight-time 30
    python -m repro.sim run --family perfect-maze --family-seed 1 2 3 \\
        --param cell_m=1.0 --runs 2 --workers 0 --out results
    python -m repro.sim run --record --progress --out results
    python -m repro.sim replay ab3f --verify
    python -m repro.sim replay results/campaign-cli-ab3f....json
    python -m repro.sim report results/campaign-cli-ab3f....json --out report.html
    python -m repro.sim run --retries 3 --timeout 120 --keep-going --workers 0
    python -m repro.sim run --broker queue.db --enqueue-only --runs 8
    python -m repro.sim run --broker queue.db --runs 8   # wait + collect
    python -m repro.sim cache stats
    python -m repro.sim cache evict --max-bytes 500M --max-age 30d

Campaign runs cache mission results under ``.repro-cache`` (override
with ``--cache-dir`` or ``$REPRO_CACHE_DIR``); re-running an identical
campaign loads every mission from the cache instead of re-flying it.
``--no-cache`` opts out. ``--record`` additionally stores a per-tick
flight trace beside each cache entry; ``replay`` reconstructs recorded
missions from those artifacts (``--verify`` re-flies and asserts
bit-identity) and ``report`` renders a campaign result into HTML.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ExecError, ObsError, SimError
from repro.exec import Broker, RetryPolicy, default_cache_dir, open_cache
from repro.obs import ProgressLine, TraceStore
from repro.obs.store import CACHE_ACTIONS, cache_command
from repro.experiments.reporting import ascii_table
from repro.sim.campaign import Campaign
from repro.sim.generators import (
    GeneratedSpec,
    ascii_layout,
    family_names,
    get_family,
    iter_families,
)
from repro.sim.results import CampaignResult
from repro.sim.runner import enqueue_campaign, run_campaign
from repro.sim.scenario import get_scenario, iter_scenarios


def _cmd_list(_args) -> int:
    rows = []
    for s in iter_scenarios():
        rows.append(
            [
                s.name,
                f"{s.room.width:g} x {s.room.length:g}",
                str(len(s.room.obstacles)),
                str(len(s.objects)),
                s.policy,
                f"{s.cruise_speed:g}",
                s.ssd_width,
                f"{s.flight_time_s:g}",
                s.description,
            ]
        )
    print(
        ascii_table(
            ["scenario", "room [m]", "#obst", "#obj", "policy", "speed", "ssd", "t [s]", "description"],
            rows,
            title="registered scenarios",
        )
    )
    fam_rows = [
        [
            f.name,
            str(len(f.params)),
            ", ".join(p.name for p in f.params),
            f.description,
        ]
        for f in iter_families()
    ]
    print()
    print(
        ascii_table(
            ["family", "#par", "parameters", "description"],
            fam_rows,
            title="registered scenario families (procedural; see `show <family>`)",
        )
    )
    return 0


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SimError(f"--param expects key=value, got {pair!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SimError(f"--param {key}: {value!r} is not a number") from None
    return params


def _show_scenario(s, with_map: bool, room=None) -> None:
    print(f"{s.name}: {s.description}")
    print(f"  room: {s.room.width:g} x {s.room.length:g} m, {len(s.room.obstacles)} obstacles")
    shown = s.room.obstacles[:12]
    for o in shown:
        print(f"    {o.kind:9s} {o.name or '-':18s} params={tuple(round(p, 2) for p in o.params)}")
    if len(s.room.obstacles) > len(shown):
        print(f"    ... and {len(s.room.obstacles) - len(shown)} more")
    print(f"  objects ({len(s.objects)}):")
    for o in s.objects:
        print(f"    {o.name or o.object_class:18s} {o.object_class:8s} at ({o.x:.2f}, {o.y:.2f})")
    start = "platform default" if s.start is None else f"({s.start[0]:.2f}, {s.start[1]:.2f})"
    print(
        f"  defaults: policy={s.policy}, speed={s.cruise_speed:g} m/s, "
        f"ssd={s.ssd_width}, flight={s.flight_time_s:g} s, start={start}, "
        f"noisy={s.noisy}"
    )
    if with_map:
        print()
        print(ascii_layout(s, room=room))


def _cmd_show(args) -> int:
    name = args.scenario
    if name in family_names():
        family = get_family(name)
        print(f"{family.name} (scenario family): {family.description}")
        print(
            ascii_table(
                ["param", "default", "range", "description"],
                [
                    [
                        p.name,
                        f"{p.default:g}",
                        f"[{p.low:g}, {p.high:g}]" + (" int" if p.integer else ""),
                        p.doc,
                    ]
                    for p in family.params
                ],
                title="parameters",
            )
        )
        scenario = family.generate(_parse_params(args.param), seed=args.seed)
        room = scenario.build_room()
        segments = len(room.all_segments())
        print(f"\ninstance (seed {args.seed}): {scenario.name}, {segments} segments")
        _show_scenario(scenario, with_map=not args.no_map, room=room)
        return 0
    _show_scenario(get_scenario(name), with_map=args.map)
    return 0


def _progress(done: int, total: int, record) -> None:
    line = (
        f"[{done}/{total}] {record.scenario}/{record.policy}"
        f"@{record.speed:g} run {record.run_idx}: "
        f"coverage {record.coverage:.0%}"
    )
    if record.kind == "search":
        line += f", detection {record.detection_rate:.0%}"
    print(line, flush=True)


def _summary(result: CampaignResult) -> str:
    value = "detection_rate" if result.campaign["kind"] == "search" else "coverage"
    agg = result.aggregate(("scenario", "policy", "speed", "ssd_width"), value=value)
    rows = [
        [scenario, policy, f"{speed:g}", width, f"{stat.mean:.0%}", f"{stat.std:.0%}", str(stat.n)]
        for (scenario, policy, speed, width), stat in sorted(agg.items())
    ]
    return ascii_table(
        ["scenario", "policy", "speed", "ssd", f"mean {value}", "std", "runs"],
        rows,
        title=f"campaign {result.name!r} ({len(result)} missions)",
    )


def _cmd_cache(args) -> int:
    lines = cache_command(
        args.action, args.cache_dir or default_cache_dir(),
        max_bytes=args.max_bytes, max_age=args.max_age,
    )
    print("\n".join(lines))
    return 0


def _cmd_replay(args) -> int:
    from repro.obs.replay import replay_mission, replay_target_hashes

    cache_dir = args.cache_dir or default_cache_dir()
    hashes = replay_target_hashes(args.target, cache_dir)
    verified = 0
    for content_hash in hashes:
        outcome = replay_mission(content_hash, cache_dir, verify=args.verify)
        print(outcome.summary(), flush=True)
        if outcome.verified:
            verified += 1
    if args.verify:
        print(f"{verified}/{len(hashes)} missions re-flown bit-identical")
    else:
        print(f"{len(hashes)} recorded missions consistent with the cache")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import write_report
    from repro.sim.results import CampaignResult as _CR

    result = _CR.load(args.result)
    cache_dir = args.cache_dir or default_cache_dir()
    path = write_report(result, args.out, cache_dir=cache_dir)
    print(f"report written to {path} ({len(result)} missions)")
    return 0


def _cmd_run(args) -> int:
    scenarios = tuple(get_scenario(name) for name in args.scenario or ())
    params = _parse_params(args.param)
    generated = tuple(
        GeneratedSpec.create(family, params, seed)
        for family in args.family or ()
        for seed in args.family_seed
    )
    # Default to the paper room only when neither axis was *requested*;
    # an explicitly emptied axis (e.g. `--family x --family-seed` with
    # zero values) must surface the campaign error, not silently fly a
    # different world.
    if not args.scenario and not args.family:
        scenarios = (get_scenario("paper-room"),)
    campaign = Campaign(
        name=args.name,
        scenarios=scenarios,
        policies=tuple(args.policy or ()),
        speeds=tuple(args.speed or ()),
        ssd_widths=tuple(args.width or ()),
        n_runs=args.runs,
        flight_time_s=args.flight_time,
        kind=args.kind,
        seed=args.seed,
        generated=generated,
    )
    fleet_block = args.fleet_block
    fleet = fleet_block is not None and fleet_block > 1
    for flag, used in (("--broker", args.broker), ("--record", args.record)):
        if fleet and used:
            raise SimError(f"--fleet-block {fleet_block} cannot be combined with {flag}")
    total = len(campaign.missions())
    workers = args.workers
    cache = open_cache(args.cache_dir, enabled=not args.no_cache)
    pool = None if workers is None or workers == 1 else f"pool({workers or 'auto'})"
    if args.broker:
        mode = f"broker({args.broker})"
    elif fleet:
        mode = f"fleet(block={fleet_block})" + (f" on {pool}" if pool else "")
    else:
        mode = pool or "serial"
    print(
        f"campaign {campaign.name!r}: {total} missions, {mode}, "
        f"hash {campaign.campaign_hash()[:12]}",
        flush=True,
    )
    retry = RetryPolicy(
        max_attempts=args.retries,
        backoff_s=args.retry_backoff,
        timeout_s=args.timeout,
    )
    if args.enqueue_only:
        if not args.broker:
            raise SimError("--enqueue-only needs --broker")
        with Broker(args.broker) as broker:
            report = enqueue_campaign(
                campaign, broker, record=args.record, retry=retry,
                trace_dir=cache.directory if (args.record and cache) else None,
            )
            counts = broker.counts()
        print(
            f"enqueued {report.submitted} missions "
            f"({report.duplicates} already queued, {report.already_done} "
            f"already done); queue: {counts.pending} pending, "
            f"{counts.leased} leased, {counts.done} done, "
            f"{counts.failed} failed"
        )
        print(
            f"drain with: python -m repro.exec worker --broker {args.broker}"
        )
        return 0
    progress_line = (
        ProgressLine(f"campaign {campaign.name!r}") if args.progress else None
    )
    start = time.perf_counter()
    broker = Broker(args.broker) if args.broker else None
    try:
        result = run_campaign(
            campaign,
            workers=workers,
            progress=None if (args.quiet or args.progress) else _progress,
            cache=None if broker is not None else cache,
            record=args.record,
            trace_dir=cache.directory if (args.record and cache) else None,
            exec_progress=progress_line,
            retry=retry,
            keep_going=args.keep_going,
            broker=broker,
            poll_s=args.poll,
            wait_timeout_s=args.wait_timeout,
            fleet_block=fleet_block,
        )
    finally:
        if broker is not None:
            broker.close()
        if progress_line is not None:
            progress_line.finish()
    elapsed = time.perf_counter() - start
    print()
    if result.records:
        print(_summary(result))
    rate = len(result) / elapsed if elapsed > 0 else float("inf")
    print(f"\n{len(result)} missions in {elapsed:.1f} s ({rate:.2f} missions/s)")
    if cache is not None and result.execution is not None:
        report = result.execution
        note = " -- all missions loaded from cache" if report.executed == 0 else ""
        print(
            f"cache: {report.cached}/{report.total} hits, "
            f"{report.executed} executed ({cache.directory}){note}"
        )
        timings = report.timings_summary()
        if timings:
            print(timings)
    if result.execution is not None and (
        result.execution.retried or result.execution.timed_out
    ):
        print(
            f"fault tolerance: {result.execution.retried} retries, "
            f"{result.execution.timed_out} timeouts"
        )
    for failure in result.failures:
        print(
            f"FAILED mission {failure['index']} ({failure['label']}): "
            f"{failure['error_type']}: {failure['message']} "
            f"[{failure['attempts']} attempt(s)]"
        )
    if args.record:
        trace_dir = cache.directory if cache is not None else default_cache_dir()
        tstats = TraceStore(trace_dir).stats()
        print(
            f"traces: {tstats.traces} recorded flights in {trace_dir} "
            f"({tstats.total_bytes / 1e6:.2f} MB)"
        )
    if args.out:
        path = result.save(args.out)
        print(f"results written to {path}")
    return 1 if result.failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list registered scenarios and families"
    ).set_defaults(fn=_cmd_list)

    show = sub.add_parser("show", help="describe one scenario or family in detail")
    show.add_argument("scenario", help="preset name or family name")
    show.add_argument("--map", action="store_true", help="ASCII floor plan (presets)")
    show.add_argument(
        "--no-map", action="store_true", help="skip the ASCII floor plan (families)"
    )
    show.add_argument("--seed", type=int, default=0, help="family instance seed")
    show.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="family parameter override (repeatable)",
    )
    show.set_defaults(fn=_cmd_show)

    run = sub.add_parser("run", help="execute a campaign")
    run.add_argument(
        "--scenario", nargs="*", default=None,
        help="scenario presets to fly (default: paper-room unless --family is given)",
    )
    run.add_argument(
        "--family", nargs="*", default=None,
        help="scenario families to generate worlds from",
    )
    run.add_argument(
        "--family-seed", nargs="*", type=int, default=[0],
        help="generator seeds; each (family, seed) pair becomes one world",
    )
    run.add_argument(
        "--param", action="append", default=None, metavar="KEY=VALUE",
        help="family parameter override applied to every --family (repeatable)",
    )
    run.add_argument("--policy", nargs="*", default=None, help="policies to sweep (default: scenario's)")
    run.add_argument("--speed", nargs="*", type=float, default=None, help="cruise speeds, m/s")
    run.add_argument("--width", nargs="*", default=None, help="SSD width keys, e.g. 1.0 0.75")
    run.add_argument("--runs", type=int, default=1, help="flights per configuration")
    run.add_argument("--flight-time", type=float, default=None, help="override flight time, s")
    run.add_argument("--kind", choices=("search", "explore"), default="search")
    run.add_argument("--seed", type=int, default=0, help="campaign root seed")
    run.add_argument("--workers", type=int, default=None, help="pool size; 0 = all cores; default serial")
    run.add_argument(
        "--fleet-block", type=int, default=None, metavar="N",
        help="step same-world missions in vectorized lock-step blocks of "
        "up to N, one job per block (results byte-identical to serial; "
        "not with --broker/--record)",
    )
    run.add_argument("--name", default="cli", help="campaign name used in the result file")
    run.add_argument("--out", default=None, help="directory for the JSON result (default: don't persist)")
    run.add_argument("--quiet", action="store_true", help="suppress per-mission progress lines")
    run.add_argument(
        "--progress", action="store_true",
        help="live single-line progress (done/total, hits vs executed, ETA) "
        "instead of per-mission lines",
    )
    run.add_argument(
        "--record", action="store_true",
        help="store a per-tick flight trace beside each mission's cache "
        "entry (re-flies cached missions whose trace is missing)",
    )
    run.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    run.add_argument(
        "--no-cache", action="store_true",
        help="always re-fly missions; neither read nor write the result cache",
    )
    run.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per mission (1 = no retries); only transient "
        "failures (crashed workers, timeouts, flaky I/O) are retried",
    )
    run.add_argument(
        "--retry-backoff", type=float, default=0.0, metavar="S",
        help="base backoff between attempts, doubling each retry (deterministic)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget per mission; an overrunning "
        "pooled mission's worker is killed and the attempt retried",
    )
    run.add_argument(
        "--keep-going", action="store_true",
        help="a mission that exhausts its attempts is reported as failed "
        "in the result instead of aborting the campaign",
    )
    run.add_argument(
        "--broker", default=None, metavar="PATH",
        help="shard the campaign through a queue database instead of "
        "executing in-process: missions are enqueued (idempotently) and "
        "`python -m repro.exec worker` daemons drain them; results are "
        "byte-identical to a serial run",
    )
    run.add_argument(
        "--enqueue-only", action="store_true",
        help="with --broker: submit the missions and exit without "
        "waiting (re-run without this flag to wait and collect)",
    )
    run.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="with --broker: seconds between outcome polls",
    )
    run.add_argument(
        "--wait-timeout", type=float, default=None, metavar="S",
        help="with --broker: give up after this long without the queue "
        "draining (default: wait forever)",
    )
    run.set_defaults(fn=_cmd_run)

    replay = sub.add_parser(
        "replay",
        help="reconstruct recorded missions from their trace artifacts",
    )
    replay.add_argument(
        "target",
        help="job content hash (prefix ok) or path to a saved campaign "
        "result file (replays every mission of the campaign)",
    )
    replay.add_argument(
        "--verify", action="store_true",
        help="re-fly each mission and assert bit-identity with the stored "
        "trace and record",
    )
    replay.add_argument(
        "--cache-dir", default=None,
        help="cache/trace directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    replay.set_defaults(fn=_cmd_replay)

    report = sub.add_parser(
        "report", help="render a saved campaign result into an HTML report"
    )
    report.add_argument("result", help="path to a saved campaign result JSON")
    report.add_argument(
        "--out", default="campaign-report.html", help="output HTML path"
    )
    report.add_argument(
        "--cache-dir", default=None,
        help="cache/trace directory the trace-backed panels load from",
    )
    report.set_defaults(fn=_cmd_report)

    cache = sub.add_parser(
        "cache", help="inspect, clear or evict from the result cache"
    )
    cache.add_argument("action", choices=CACHE_ACTIONS)
    cache.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="evict: byte budget for entries + paired traces, oldest-used "
        "evicted first (accepts k/M/G suffixes, e.g. 500M)",
    )
    cache.add_argument(
        "--max-age", default=None, metavar="AGE",
        help="evict: drop entries last used longer ago than this "
        "(accepts s/m/h/d suffixes, e.g. 30d)",
    )
    cache.set_defaults(fn=_cmd_cache)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ExecError, ObsError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
