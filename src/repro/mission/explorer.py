"""Exploration-only mission runner (paper Sec. IV-B).

Runs one policy in one room for a fixed flight time (3 minutes in the
paper), tracking the drone with the simulated mocap system and reporting
coverage statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.drone.crazyflie import Crazyflie, CrazyflieConfig
from repro.errors import MissionError
from repro.geometry.vec import Vec2
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MotionCaptureTracker
from repro.mapping.occupancy import OccupancyGrid
from repro.mission.loop import final_summary, fly
from repro.obs import FlightRecorder, MissionTrace
from repro.policies.base import ExplorationPolicy
from repro.seeding import SeedLike, spawn_streams
from repro.world.room import Room

#: Flight time of every run in the paper's evaluation, seconds.
DEFAULT_FLIGHT_TIME_S = 180.0


@dataclass
class ExplorationResult:
    """Outcome of one exploration flight.

    ``coverage`` is normalized by the grid cells *reachable* from the
    start pose (free space connected to it), so a perfect sweep reports
    1.0 on any world; ``coverage_raw`` keeps the historical
    visited-over-all-cells fraction, which undercounts on worlds whose
    grid has cells inside obstacles or sealed pockets.
    """

    coverage: float  #: fraction of reachable free-space cells visited, [0, 1]
    grid: OccupancyGrid  #: final occupancy grid
    series: CoverageSeries  #: coverage over time
    collisions: int  #: control ticks with blocked motion
    flight_time_s: float  #: simulated flight duration
    distance_flown_m: float  #: integrated path length
    samples: list = None  #: mocap trajectory (:class:`TrackedSample` list)
    coverage_raw: float = 0.0  #: fraction of all grid cells visited, [0, 1]
    reachable_cells: int = 0  #: grid cells reachable from the start pose
    grid_cells: int = 0  #: total grid cells (the coverage_raw denominator)


class ExplorationMission:
    """Flies one policy in a room for a fixed duration.

    Args:
        room: the environment.
        policy: an exploration policy (will be ``reset`` per run).
        flight_time_s: duration of each run.
        start: start position; defaults to (1, 1) m.
        start_heading: initial heading, rad.
        drone_config: platform configuration (noise, control rate).
        record: when True, capture a per-tick flight trace; after
            :meth:`run` it is available as :attr:`last_trace`. The
            simulated flight is bit-identical with and without
            recording (the trace is observation, not intervention).
    """

    def __init__(
        self,
        room: Room,
        policy: ExplorationPolicy,
        flight_time_s: float = DEFAULT_FLIGHT_TIME_S,
        start: Optional[Vec2] = None,
        start_heading: float = 0.0,
        drone_config: Optional[CrazyflieConfig] = None,
        record: bool = False,
    ):
        if flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")
        self.room = room
        self.policy = policy
        self.flight_time_s = flight_time_s
        self.start = start
        self.start_heading = start_heading
        self.drone_config = drone_config
        self.record = record
        self.last_trace: Optional[MissionTrace] = None

    def run(self, seed: SeedLike = None) -> ExplorationResult:
        """Execute one flight and return its statistics.

        Args:
            seed: ``None``, an integer, or a
                :class:`~numpy.random.SeedSequence`. Sensor noise and the
                policy RNG get independent spawned child streams, making
                the run fully reproducible (also under the parallel
                campaign runner).
        """
        drone_stream, policy_stream = spawn_streams(seed, 2)
        drone = Crazyflie(
            self.room,
            start=self.start,
            heading=self.start_heading,
            config=self.drone_config,
            seed=drone_stream,
        )
        self.policy.reset(policy_stream)
        tracker = MotionCaptureTracker(self.room, start=drone.state.position)
        recorder = FlightRecorder("explore") if self.record else None
        flown = fly(drone, self.policy, tracker, self.flight_time_s, recorder=recorder)
        result = ExplorationResult(
            grid=tracker.grid, flight_time_s=self.flight_time_s, **flown
        )
        if recorder is not None:
            self.last_trace = recorder.finish(
                final_summary(flown, flight_time_s=self.flight_time_s)
            )
        return result
