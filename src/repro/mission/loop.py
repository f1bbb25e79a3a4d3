"""The scalar control-tick loop that flies every single mission.

Explore and search flights are the same 50 Hz loop: read the
Multi-ranger, let the policy pick a set-point, step the drone, feed the
mocap tracker. A search adds camera work on its own frame schedule, a
:class:`CameraSearch` the caller passes in; the fleet stepper
(:func:`repro.sim.fleet.fly_fleet`) runs the same
:meth:`CameraSearch.frame`, so what counts as a first detection is
decided in one place.

Recording is an argument, not a second loop: with a
:class:`~repro.obs.FlightRecorder`, :func:`fly` times each phase
callable through :meth:`~repro.obs.FlightRecorder.timed` and captures
one telemetry row per tick. An unrecorded tick makes no timing call and
pays one ``recorder is not None`` test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.drone.crazyflie import Crazyflie
from repro.mapping.coverage import CoverageSeries
from repro.mapping.mocap import MotionCaptureTracker
from repro.mission.detector_model import DetectionChannel
from repro.obs import FlightRecorder
from repro.policies.base import ExplorationPolicy
from repro.world.objects import SceneObject


@dataclass(frozen=True)
class DetectionEvent:
    """First successful detection of one object."""

    object_name: str
    object_class: str
    time_s: float
    distance_m: float


class CameraSearch:
    """Camera frames, detection and first detections of one search flight.

    A frame is due once ``t + 1e-9 >= next_frame_s``. Frame times derive
    from the frame index: repeatedly adding the frame period accumulates
    float error over the ~18k ticks of a 180 s flight and slowly drifts
    the camera schedule. ``channel`` is reset for the new flight.
    """

    def __init__(
        self,
        observe: Callable,
        raycaster,
        objects: Sequence[SceneObject],
        channel: DetectionChannel,
        rng: np.random.Generator,
        fps: float,
    ):
        channel.reset()
        self.observe = observe  #: the camera, (raycaster, position, heading, objects)
        self.detect = channel.detect  #: (observations, state, rng) -> detected
        self.raycaster = raycaster
        self.objects = objects
        self.rng = rng
        self.frame_period = 1.0 / fps
        self.frames = 0
        self.next_frame_s = 0.0
        self.found: Dict[str, DetectionEvent] = {}

    def frame(self, state) -> None:
        """Take one frame from ``state`` and keep each first detection."""
        self.frames += 1
        self.next_frame_s = self.frames * self.frame_period
        observations = self.observe(
            self.raycaster, state.position, state.heading, self.objects
        )
        found = self.found
        for obs in self.detect(observations, state, self.rng):
            name = obs.obj.name
            if name not in found:
                found[name] = DetectionEvent(
                    object_name=name,
                    object_class=obs.obj.object_class.value,
                    time_s=state.time,
                    distance_m=obs.distance_m,
                )

    def events(self) -> List[DetectionEvent]:
        """First detections in time order."""
        return sorted(self.found.values(), key=lambda e: e.time_s)

    def record(self, recorder: FlightRecorder) -> None:
        """Time camera and detector calls into ``recorder``; log each frame."""
        self.observe = recorder.timed("camera", self.observe)
        detect = recorder.timed("detect", self.detect)

        def logged_detect(observations, state, rng):
            recorder.frame(state.time, len(observations))
            return detect(observations, state, rng)

        self.detect = logged_detect


def fly(
    drone: Crazyflie,
    policy: ExplorationPolicy,
    tracker: MotionCaptureTracker,
    flight_time_s: float,
    search: Optional[CameraSearch] = None,
    recorder: Optional[FlightRecorder] = None,
) -> Dict[str, Any]:
    """Fly ``drone`` under ``policy`` for ``flight_time_s``.

    ``search`` adds a search mission's camera work (``None`` explores
    only); ``recorder`` captures telemetry and phase timings.

    Returns:
        The fields every flight result reports: coverage, series,
        collisions, distance_flown_m, samples, coverage_raw,
        reachable_cells and grid_cells.
    """
    read, update, step, observe = (
        drone.read_ranger,
        policy.update,
        drone.step,
        tracker.observe,
    )
    if recorder is not None:
        read = recorder.timed("ranger", read)
        update = recorder.timed("policy", update)
        step = recorder.timed("step", step)
        observe = recorder.timed("mocap", observe)
        if search is not None:
            search.record(recorder)
    dynamics = drone.dynamics
    series = CoverageSeries()
    distance = 0.0
    last_pos = drone.state.position
    for _ in range(int(round(flight_time_s / drone.dt))):
        reading = read()
        estimate = drone.estimated_state
        setpoint = update(reading, estimate)
        state = step(setpoint)
        distance += state.position.distance_to(last_pos)
        last_pos = state.position
        if observe(state):
            series.append(state.time, tracker.coverage())
        if search is not None and state.time + 1e-9 >= search.next_frame_s:
            search.frame(state)
        if recorder is not None:
            recorder.tick(state, estimate, setpoint, reading, dynamics.collision_count)
    if recorder is not None:
        for t, value in zip(series.times.tolist(), series.coverage.tolist()):
            recorder.coverage_sample(t, value)
        if search is not None:
            for e in search.found.values():
                recorder.detection(
                    e.object_name, e.object_class, e.time_s, e.distance_m
                )
    return {
        "coverage": tracker.coverage(),
        "series": series,
        "collisions": dynamics.collision_count,
        "distance_flown_m": distance,
        "samples": tracker.samples,
        "coverage_raw": tracker.coverage_raw(),
        "reachable_cells": tracker.reachable_cells,
        "grid_cells": tracker.grid.n_cells,
    }


def final_summary(flown: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
    """A trace's ``final`` section: the scalar fields of ``flown``, plus ``extra``."""
    scalars = {k: v for k, v in flown.items() if k not in ("series", "samples")}
    return {**scalars, **extra}
