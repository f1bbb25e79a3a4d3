"""Closed-loop search mission: exploration + object detection (Sec. IV-C).

The exploration policy runs on the (simulated) STM32 at the control rate
while the detector consumes camera frames at its own onboard throughput,
mirroring the paper's host-accelerator split where the two tasks do not
interact. The mission reports the *detection rate*: the fraction of the
placed target objects detected at least once during the flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.drone.crazyflie import Crazyflie, CrazyflieConfig
from repro.errors import MissionError
from repro.geometry.vec import Vec2
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MotionCaptureTracker
from repro.mission.detector_model import DetectionChannel, DetectorOperatingPoint
from repro.mission.loop import CameraSearch, DetectionEvent, final_summary, fly
from repro.obs import FlightRecorder, MissionTrace
from repro.policies.base import ExplorationPolicy
from repro.seeding import SeedLike, spawn_streams
from repro.world.objects import SceneObject
from repro.world.room import Room


@dataclass
class SearchResult:
    """Outcome of one closed-loop run.

    ``coverage`` is normalized by the grid cells reachable from the
    start pose (see :class:`~repro.mission.explorer.ExplorationResult`);
    ``coverage_raw`` keeps the historical all-cells fraction.
    """

    detection_rate: float  #: detected objects / placed objects
    events: List[DetectionEvent] = field(default_factory=list)
    coverage: float = 0.0  #: fraction of reachable free-space cells visited
    series: Optional[CoverageSeries] = None
    frames_processed: int = 0
    collisions: int = 0
    distance_flown_m: float = 0.0  #: integrated path length
    samples: Optional[list] = None  #: mocap trajectory for visualization
    coverage_raw: float = 0.0  #: fraction of all grid cells visited
    reachable_cells: int = 0  #: grid cells reachable from the start pose
    grid_cells: int = 0  #: total grid cells (the coverage_raw denominator)

    def time_to_full_detection(self) -> Optional[float]:
        """Time of the last first-detection if every object was found."""
        if self.detection_rate < 1.0 or not self.events:
            return None
        return max(e.time_s for e in self.events)


class ClosedLoopMission:
    """Runs exploration and detection concurrently for one flight.

    Args:
        room: the environment.
        objects: target objects placed in the room.
        policy: exploration policy.
        channel: detection channel (calibrated model or rendered CNN).
        operating_point: deployed SSD variant; its ``fps`` paces the
            camera frames.
        flight_time_s: run duration (180 s in the paper).
        start: drone start position.
        drone_config: platform configuration.
        record: when True, capture a per-tick flight trace; after
            :meth:`run` it is available as :attr:`last_trace`. The
            simulated flight is bit-identical with and without
            recording (the trace is observation, not intervention).
    """

    def __init__(
        self,
        room: Room,
        objects: Sequence[SceneObject],
        policy: ExplorationPolicy,
        channel: DetectionChannel,
        operating_point: DetectorOperatingPoint,
        flight_time_s: float = 180.0,
        start: Optional[Vec2] = None,
        drone_config: Optional[CrazyflieConfig] = None,
        record: bool = False,
    ):
        if not objects:
            raise MissionError("a search mission needs at least one object")
        if flight_time_s <= 0.0:
            raise MissionError("flight time must be positive")
        names = [o.name for o in objects]
        if len(set(names)) != len(names):
            raise MissionError("object names must be unique")
        self.room = room
        self.objects = list(objects)
        self.policy = policy
        self.channel = channel
        self.operating_point = operating_point
        self.flight_time_s = flight_time_s
        self.start = start
        self.drone_config = drone_config
        self.record = record
        self.last_trace: Optional[MissionTrace] = None

    def run(self, seed: SeedLike = None) -> SearchResult:
        """Execute one flight; fully reproducible given ``seed``.

        Args:
            seed: ``None``, an integer, or a
                :class:`~numpy.random.SeedSequence` (how the campaign
                engine hands each mission its own independent stream).
                The sensor, policy and detector RNGs are spawned as
                independent child streams, so results are bit-identical
                whether the mission runs serially or in a worker process.
        """
        drone_stream, policy_stream, detector_stream = spawn_streams(seed, 3)
        drone = Crazyflie(
            self.room, start=self.start, config=self.drone_config, seed=drone_stream
        )
        self.policy.reset(policy_stream)
        search = CameraSearch(
            drone.camera.observe,
            self.room.raycaster,
            self.objects,
            self.channel,
            np.random.default_rng(detector_stream),
            self.operating_point.fps,
        )
        tracker = MotionCaptureTracker(self.room, start=drone.state.position)
        recorder = FlightRecorder("search") if self.record else None
        flown = fly(drone, self.policy, tracker, self.flight_time_s, search, recorder)
        events = search.events()
        result = SearchResult(
            detection_rate=len(events) / len(self.objects),
            events=events,
            frames_processed=search.frames,
            **flown,
        )
        if recorder is not None:
            self.last_trace = recorder.finish(
                final_summary(
                    flown,
                    detection_rate=result.detection_rate,
                    flight_time_s=self.flight_time_s,
                    frames_processed=search.frames,
                    n_objects=len(self.objects),
                )
            )
        return result
