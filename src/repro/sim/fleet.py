"""Fleet-vectorized mission stepping: N same-world missions per tick.

PR 2 vectorized *within* a control tick (one drone's Multi-ranger beams
per kernel call); this module vectorizes *across missions*. A fleet
block holds the state of N missions that share one world and one drone
configuration as structure-of-arrays ``(N,)`` numpy arrays -- positions,
velocities, estimator state, setpoints -- plus an ``(N, cells)`` visited
mask, and advances all of them in lock-step: one multi-origin raycast
(:meth:`~repro.geometry.raycast.RayCaster.cast_fleet`) resolves every
drone's beams per refresh, and the dynamics, sensor-noise and estimator
updates are single vectorized expressions per tick. Only the genuinely
per-mission, branchy pieces stay scalar: the policy state machines, the
sparse camera-frame/detection events, and collision resolution on the
rare blocked tick.

The contract is **bit-identity**: a fleet-stepped mission produces
exactly the :class:`~repro.sim.results.MissionRecord` the serial
:func:`~repro.sim.runner.fly_mission` produces, for every preset and
generated world (pinned by ``tests/test_sim_fleet.py``). Three
properties make that possible:

- *Per-sensor seed streams.* Each sensor owns a spawned
  ``SeedSequence`` child (see :class:`~repro.drone.crazyflie.Crazyflie`)
  whose position depends only on the tick / refresh count, so a
  mission's entire noise tape can be pre-drawn as one block per sensor
  and indexed by tick.
- *A shared time base.* Missions in a block share the control period,
  so the accumulated time sequence -- and with it the ToF-refresh,
  mocap and (per-mission) camera-frame schedules -- is computed once
  with the same float operations the serial loop performs.
- *Lane-deterministic numpy.* Elementwise numpy arithmetic evaluates
  the same IEEE operation per lane as the scalar expression it
  replaces, so matching the serial code operator-for-operator yields
  bit-identical floats (``np.cos``/``np.sin``/``np.fmod``/``np.clip``
  equal their ``math`` counterparts elementwise; ``np.exp`` and
  ``np.hypot`` do not, which is why the response constants and the
  distance accumulation stay scalar).

Missions that finish early (shorter ``flight_time_s``) are masked out:
their lanes get hover setpoints and stop contributing policy, coverage
or detection work; their records are snapshotted at their own final
tick.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, cast

import numpy as np

from repro.drone.controller import VelocityController
from repro.drone.crazyflie import CrazyflieConfig
from repro.drone.dynamics import CRAZYFLIE_RADIUS_M, DroneDynamics, DroneState
from repro.drone.state_estimator import EstimatedState
from repro.errors import MissionError
from repro.geometry.vec import TWO_PI, Vec2, normalize_angle
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MOCAP_RATE_HZ
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.closed_loop import SearchResult
from repro.mission.detector_model import CalibratedDetectorModel
from repro.mission.explorer import ExplorationResult
from repro.mission.loop import CameraSearch
from repro.policies import ExplorationPolicy, PolicyConfig, make_policy
from repro.seeding import spawn_streams
from repro.sensors.camera import HimaxCamera
from repro.sensors.flowdeck import FlowDeck
from repro.sensors.imu import Gyro
from repro.sensors.multiranger import BEAM_ANGLES, RangerReading
from repro.sensors.tof import VL53L1X_MAX_RANGE_M, VL53L1X_RATE_HZ
from repro.sim.campaign import MissionSpec
from repro.sim.results import MissionRecord


def _normalize_angles(angles: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.geometry.vec.normalize_angle`.

    Same expression lane-for-lane (``np.fmod`` equals ``math.fmod``
    elementwise), so each entry is bit-identical to the scalar wrap.
    """
    wrapped = np.fmod(angles + math.pi, TWO_PI)
    wrapped[wrapped <= 0.0] += TWO_PI
    wrapped -= math.pi
    return wrapped


def fleet_key(spec: MissionSpec) -> tuple:
    """Grouping key: missions sharing it can ride one fleet block."""
    return (spec.scenario.content_hash(), spec.kind)


def fly_fleet(specs: Sequence[MissionSpec]) -> List[MissionRecord]:
    """Fly a block of same-world missions in lock-step.

    Args:
        specs: missions sharing one scenario (hence one world, start
            pose and drone configuration) and one kind. Policies,
            speeds, operating points, seeds and flight times may differ
            per mission.

    Returns:
        One :class:`~repro.sim.results.MissionRecord` per spec, in spec
        order, each bit-identical to ``fly_mission(spec)[0]``.

    Raises:
        MissionError: when the specs do not share a (world, kind), or a
            flight time is non-positive.
    """
    if not specs:
        return []
    kind = specs[0].kind
    key = fleet_key(specs[0])
    for spec in specs[1:]:
        if fleet_key(spec) != key:
            raise MissionError(
                "a fleet block must share one (world, kind); got "
                f"{fleet_key(spec)} vs {key}"
            )
    for spec in specs:
        if spec.flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")

    scenario = specs[0].scenario
    room = scenario.build_room()
    caster = room.raycaster
    config = scenario.drone_config() or CrazyflieConfig()
    noisy = config.noisy
    start = scenario.start_position()
    if start is None:
        start = Vec2(1.0, 1.0)
    heading0 = scenario.start_heading if kind == "explore" else 0.0
    # Same validation (and same exception) as the serial drone assembly.
    DroneDynamics(
        room=room,
        state=DroneState(position=start, heading=heading0),
        velocity_tau=config.velocity_tau,
        yaw_tau=config.yaw_tau,
    )

    n = len(specs)
    dt = 1.0 / config.control_rate_hz
    n_steps = [int(round(spec.flight_time_s / dt)) for spec in specs]
    n_max = max(n_steps)

    # -- shared schedules ---------------------------------------------------
    # One pass computes the exact float time sequence of the serial loop
    # (t accumulates by repeated addition) and, from it, the ToF-refresh
    # and mocap gates every lane shares.
    tof_period = 1.0 / VL53L1X_RATE_HZ
    mocap_period = 1.0 / MOCAP_RATE_HZ
    times_pre: List[float] = []
    times_post: List[float] = []
    refresh: List[bool] = []
    mocap_dt: List[float] = []  # sample dt per tick; -1.0 = no sample
    t = 0.0
    last_tof = -math.inf
    have_reading = False
    last_mocap: Optional[float] = None
    for _ in range(n_max):
        times_pre.append(t)
        if not have_reading or t - last_tof >= tof_period - 1e-9:
            refresh.append(True)
            last_tof = t
            have_reading = True
        else:
            refresh.append(False)
        t = t + dt
        times_post.append(t)
        if last_mocap is not None and t - last_mocap < mocap_period - 1e-9:
            mocap_dt.append(-1.0)
        else:
            mocap_dt.append(mocap_period if last_mocap is not None else 0.0)
            last_mocap = t
    r_total = sum(refresh)

    # -- per-mission setup --------------------------------------------------
    policies: List[ExplorationPolicy] = []
    readings: List[Optional[RangerReading]] = [None] * n
    searches: List[CameraSearch] = []
    objects = scenario.build_objects() if kind == "search" else []
    camera = HimaxCamera(batched=config.batched_sensors)
    scale = np.ones(n, dtype=np.float64)
    bias = np.zeros(n, dtype=np.float64)
    flow_z = np.empty((n, n_max, 3), dtype=np.float64) if noisy else None
    gyro_z = np.empty((n, n_max), dtype=np.float64) if noisy else None
    drop_u = np.empty((n, r_total, 4), dtype=np.float64) if noisy else None
    tof_z = np.empty((n, r_total, 4), dtype=np.float64) if noisy else None
    for j, spec in enumerate(specs):
        seed = spec.seed_sequence()
        if kind == "explore":
            drone_stream, policy_stream = spawn_streams(seed, 2)
        else:
            drone_stream, policy_stream, detector_stream = spawn_streams(seed, 3)
            op = spec.operating_point()
            searches.append(
                CameraSearch(
                    camera.observe,
                    caster,
                    objects,
                    CalibratedDetectorModel(op),
                    np.random.default_rng(detector_stream),
                    op.fps,
                )
            )
        policy = make_policy(spec.policy, PolicyConfig(cruise_speed=spec.speed))
        policy.reset(policy_stream)
        policies.append(policy)
        if noisy:
            assert flow_z is not None and gyro_z is not None
            assert drop_u is not None and tof_z is not None
            # Same spawn order as Crazyflie.__init__, and the same init
            # draws: constructing the deck objects on the live generator
            # consumes the calibration draws (flow scale, gyro bias)
            # exactly as the serial drone does, then the remaining tape
            # is pulled as one block per stream.
            flow_stream, gyro_stream, drop_stream, noise_stream = spawn_streams(
                drone_stream, 4
            )
            flow_gen = np.random.default_rng(flow_stream)
            scale[j] = FlowDeck(
                velocity_noise_std=config.odometry_noise_std, rng=flow_gen
            ).scale
            flow_z[j] = flow_gen.standard_normal(3 * n_max).reshape(n_max, 3)
            gyro_gen = np.random.default_rng(gyro_stream)
            bias[j] = Gyro(noise_std=config.gyro_noise_std, rng=gyro_gen).bias
            gyro_z[j] = gyro_gen.standard_normal(n_max)
            drop_u[j] = np.random.default_rng(drop_stream).random((r_total, 4))
            tof_z[j] = np.random.default_rng(noise_stream).standard_normal(
                (r_total, 4)
            )

    # -- shared world / occupancy setup ------------------------------------
    grid0 = OccupancyGrid(room, start=start)
    ncells = grid0.n_cells
    reach_cells = grid0.reachable_cells
    gnx, gny = grid0.nx, grid0.ny
    cell = grid0.cell_size
    reach_flat = grid0.reachable_mask.ravel().astype(np.int64)
    width, length = room.width, room.length

    mounts = np.array(
        [normalize_angle(a) for a in BEAM_ANGLES.values()], dtype=np.float64
    )
    max_range = VL53L1X_MAX_RANGE_M
    tof_noise_std = config.tof_noise_std
    tof_dropout = config.tof_dropout_prob
    vel_noise_std = config.odometry_noise_std
    gyro_noise_std = config.gyro_noise_std
    controller = VelocityController()
    vmax = controller.max_speed
    wmax = controller.max_yaw_rate
    alpha_v = 1.0 - math.exp(-dt / config.velocity_tau)
    alpha_w = 1.0 - math.exp(-dt / config.yaw_tau)
    margin = CRAZYFLIE_RADIUS_M

    # -- structure-of-arrays state ------------------------------------------
    x = np.full(n, start.x, dtype=np.float64)
    y = np.full(n, start.y, dtype=np.float64)
    h = np.full(n, heading0, dtype=np.float64)
    vx = np.zeros(n, dtype=np.float64)
    vy = np.zeros(n, dtype=np.float64)
    wz = np.zeros(n, dtype=np.float64)
    est_x = np.full(n, start.x, dtype=np.float64)
    est_y = np.full(n, start.y, dtype=np.float64)
    est_h = np.full(n, heading0, dtype=np.float64)
    est_vx = np.zeros(n, dtype=np.float64)
    est_vy = np.zeros(n, dtype=np.float64)
    est_wz = np.zeros(n, dtype=np.float64)
    sp_f = np.zeros(n, dtype=np.float64)
    sp_s = np.zeros(n, dtype=np.float64)
    sp_w = np.zeros(n, dtype=np.float64)
    visited = np.zeros((n, ncells), dtype=bool)
    vcount = np.zeros(n, dtype=np.int64)
    vreach = np.zeros(n, dtype=np.int64)
    cov_hist = np.zeros((n, n_max), dtype=np.float64)
    collisions = [0] * n
    distance = [0.0] * n
    records: List[Optional[MissionRecord]] = [None] * n

    active = list(range(n))
    act = np.arange(n, dtype=np.intp)
    r = 0  # refresh row index, shared by every lane

    def _snapshot(i: int) -> MissionRecord:
        spec = specs[i]
        n_i = n_steps[i]
        sampled = [kk for kk in range(n_i) if mocap_dt[kk] >= 0.0]
        series = CoverageSeries.from_arrays(
            np.array([times_post[kk] for kk in sampled], dtype=np.float64),
            cov_hist[i, sampled],
        )
        # The same fields the scalar loop reports (repro.mission.loop.fly).
        flown = {
            "coverage": int(vreach[i]) / reach_cells,
            "series": series,
            "collisions": collisions[i],
            "distance_flown_m": distance[i],
            "samples": None,
            "coverage_raw": int(vcount[i]) / ncells,
            "reachable_cells": reach_cells,
            "grid_cells": ncells,
        }
        if kind == "explore":
            # The grid itself is never consumed by the record mapping;
            # the fleet keeps only the counters.
            explo = ExplorationResult(
                grid=cast(OccupancyGrid, None),
                flight_time_s=spec.flight_time_s,
                **flown,
            )
            return MissionRecord.from_exploration(spec, explo)
        events = searches[i].events()
        search = SearchResult(
            detection_rate=len(events) / len(objects),
            events=events,
            frames_processed=searches[i].frames,
            **flown,
        )
        return MissionRecord.from_search(spec, search)

    for k in range(n_max):
        # -- Multi-ranger refresh (shared 20 Hz schedule) -------------------
        if refresh[k]:
            beams = _normalize_angles(h[act][:, None] + mounts[None, :])
            dirx = np.cos(beams)
            diry = np.sin(beams)
            hits = caster.cast_fleet(
                np.repeat(x[act], 4),
                np.repeat(y[act], 4),
                dirx.ravel(),
                diry.ravel(),
                max_range,
            ).reshape(len(active), 4)
            true_d = np.minimum(hits, max_range)
            if noisy:
                assert drop_u is not None and tof_z is not None
                vals = np.where(
                    drop_u[act, r, :] < tof_dropout,
                    max_range,
                    np.clip(
                        true_d + tof_noise_std * tof_z[act, r, :],
                        0.0,
                        max_range,
                    ),
                )
            else:
                vals = true_d
            for j, i in enumerate(active):
                front, left, back, right = vals[j].tolist()
                readings[i] = RangerReading(
                    front=front, back=back, left=left, right=right, up=max_range
                )
            r += 1

        # -- policy evaluation (scalar state machines) ----------------------
        est_t = times_pre[k]
        for i in active:
            estimate = EstimatedState(
                position=Vec2(est_x[i], est_y[i]),
                heading=est_h[i],
                vx_body=est_vx[i],
                vy_body=est_vy[i],
                yaw_rate=est_wz[i],
                time=est_t,
            )
            reading = readings[i]
            assert reading is not None
            setpoint = policies[i].update(reading, estimate)
            f_ = setpoint.forward
            s_ = setpoint.side
            w_ = setpoint.yaw_rate
            if not (
                -vmax <= f_ <= vmax
                and -vmax <= s_ <= vmax
                and -wmax <= w_ <= wmax
            ):
                f_ = max(-vmax, min(vmax, f_))
                s_ = max(-vmax, min(vmax, s_))
                w_ = max(-wmax, min(wmax, w_))
            sp_f[i] = f_
            sp_s[i] = s_
            sp_w[i] = w_

        # -- dynamics (vectorized; scalar only on blocked lanes) ------------
        vx_n = vx + alpha_v * (sp_f - vx)
        vy_n = vy + alpha_v * (sp_s - vy)
        wz_n = wz + alpha_w * (sp_w - wz)
        h_n = _normalize_angles(h + wz_n * dt)
        ch = np.cos(h_n)
        sh = np.sin(h_n)
        dx_a = (ch * vx_n - sh * vy_n) * dt
        dy_a = (sh * vx_n + ch * vy_n) * dt
        tx = x + dx_a
        ty = y + dy_a
        free = room.is_free_many(tx, ty, margin)
        x_n = np.where(free, tx, x)
        y_n = np.where(free, ty, y)
        if not free.all():
            for i in np.flatnonzero(~free).tolist():
                if n_steps[i] <= k:
                    # Masked-out lane drifting after its mission ended:
                    # park it; its record is already snapshotted.
                    vx_n[i] = 0.0
                    vy_n[i] = 0.0
                    continue
                sx = float(x[i])
                sy = float(y[i])
                new_pos = Vec2(sx + float(dx_a[i]), sy)
                if not room.is_free(new_pos, margin):
                    new_pos = Vec2(sx, sy + float(dy_a[i]))
                    if not room.is_free(new_pos, margin):
                        new_pos = Vec2(sx, sy)
                collisions[i] += 1
                actual_x = (new_pos.x - sx) / dt
                actual_y = (new_pos.y - sy) / dt
                c_ = float(ch[i])
                s_c = float(sh[i])
                vx_n[i] = c_ * actual_x + s_c * actual_y
                vy_n[i] = -s_c * actual_x + c_ * actual_y
                x_n[i] = new_pos.x
                y_n[i] = new_pos.y

        # -- estimator (vectorized flow/gyro fusion) ------------------------
        if noisy:
            assert flow_z is not None and gyro_z is not None
            meas_vx = scale * vx_n + vel_noise_std * flow_z[:, k, 0]
            meas_vy = scale * vy_n + vel_noise_std * flow_z[:, k, 1]
            gyro_meas = wz_n + bias + gyro_noise_std * gyro_z[:, k]
        else:
            meas_vx = vx_n
            meas_vy = vy_n
            gyro_meas = wz_n
        est_h = _normalize_angles(est_h + gyro_meas * dt)
        ech = np.cos(est_h)
        esh = np.sin(est_h)
        est_x = est_x + (ech * meas_vx - esh * meas_vy) * dt
        est_y = est_y + (esh * meas_vx + ech * meas_vy) * dt
        est_vx = meas_vx
        est_vy = meas_vy
        est_wz = gyro_meas

        # -- mocap / occupancy (vectorized scatter) -------------------------
        if mocap_dt[k] >= 0.0:
            px = x_n[act]
            py = y_n[act]
            in_room = (px >= 0.0) & (px <= width) & (py >= 0.0) & (py <= length)
            if in_room.any():
                rows = act[in_room]
                ix = np.clip((px[in_room] / cell).astype(np.int64), 0, gnx - 1)
                iy = np.clip((py[in_room] / cell).astype(np.int64), 0, gny - 1)
                idx = iy * gnx + ix
                fresh = ~visited[rows, idx]
                if fresh.any():
                    new_rows = rows[fresh]
                    new_idx = idx[fresh]
                    visited[new_rows, new_idx] = True
                    vcount[new_rows] += 1
                    vreach[new_rows] += reach_flat[new_idx]
            cov_hist[act, k] = vreach[act] / reach_cells

        # -- per-lane tail: distance, sparse camera frames ------------------
        t_post = times_post[k]
        for i in active:
            distance[i] += math.hypot(x_n[i] - x[i], y_n[i] - y[i])
            if searches and t_post + 1e-9 >= searches[i].next_frame_s:
                searches[i].frame(
                    DroneState(
                        position=Vec2(x_n[i], y_n[i]),
                        heading=h_n[i],
                        vx_body=vx_n[i],
                        vy_body=vy_n[i],
                        yaw_rate=wz_n[i],
                        time=t_post,
                    )
                )

        x, y, h = x_n, y_n, h_n
        vx, vy, wz = vx_n, vy_n, wz_n

        # -- early-finish masking -------------------------------------------
        done_now = [i for i in active if n_steps[i] == k + 1]
        if done_now:
            for i in done_now:
                records[i] = _snapshot(i)
                sp_f[i] = 0.0
                sp_s[i] = 0.0
                sp_w[i] = 0.0
            active = [i for i in active if n_steps[i] > k + 1]
            if not active:
                break
            act = np.array(active, dtype=np.intp)

    out = []
    for i, record in enumerate(records):
        assert record is not None, f"mission {i} never finished"
        out.append(record)
    return out
