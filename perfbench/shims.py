"""Span shims around the public functions of each layer.

:data:`TARGETS` maps every layer span name to the functions it wraps.
:func:`installed` swaps each target for a wrapper that records a span
on a :class:`~spans.Tracer` and restores the originals on exit. Module
functions are replaced in the defining module *and* in every loaded
``repro`` module that imported the same object by name
(``from repro.nn.functional import im2col``), so no call site escapes.

Nothing under ``src/`` changes: the shims live here and are only
installed by the benchmark's traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from typing import Callable, Iterator, List, Tuple

from spans import Tracer

#: Span kinds: ``agg`` sums and counts per (name, parent); ``full`` keeps
#: one record per call; ``gen`` is a full span from a generator's first
#: item to its exhaustion; ``cm`` times a context manager's enter and
#: exit (not the body it guards).
AGG, FULL, GEN, CM = "agg", "full", "gen", "cm"

#: (span name, kind, targets as ``module:attr`` or ``module:Class.attr``).
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # -- nn / vision / training / datasets / quantization / evaluation
    ("nn.conv2d.fwd", AGG, ("repro.nn.conv:Conv2d.forward",)),
    ("nn.conv2d.bwd", AGG, ("repro.nn.conv:Conv2d.backward",)),
    ("nn.dwconv.fwd", AGG, ("repro.nn.conv:DepthwiseConv2d.forward",)),
    ("nn.dwconv.bwd", AGG, ("repro.nn.conv:DepthwiseConv2d.backward",)),
    ("nn.bn.fwd", AGG, ("repro.nn.norm:BatchNorm2d.forward",)),
    ("nn.bn.bwd", AGG, ("repro.nn.norm:BatchNorm2d.backward",)),
    ("nn.im2col", AGG, ("repro.nn.functional:im2col",)),
    ("nn.col2im", AGG, ("repro.nn.functional:col2im",)),
    ("nn.optim.step", AGG, ("repro.nn.optim:RMSProp.step", "repro.nn.optim:SGD.step")),
    ("vision.forward", AGG, ("repro.vision.ssd:SSDDetector.forward",)),
    ("vision.backward", AGG, ("repro.vision.ssd:SSDDetector.backward",)),
    ("vision.loss", AGG, ("repro.vision.ssd:SSDDetector.compute_loss",)),
    ("vision.predict", AGG, ("repro.vision.ssd:SSDDetector.predict",)),
    ("training.fit", FULL, ("repro.vision.training:Trainer.fit",)),
    ("training.epoch", GEN, ("repro.datasets.base:DetectionDataset.batches",)),
    (
        "datasets.augment",
        AGG,
        (
            "repro.datasets.augment:photometric_augment",
            "repro.datasets.augment:random_crop",
            "repro.datasets.augment:flip_horizontal",
            "repro.datasets.augment:translate_horizontal",
            "repro.datasets.augment:adjust_brightness",
            "repro.datasets.augment:to_grayscale",
        ),
    ),
    (
        "datasets.build",
        FULL,
        (
            "repro.datasets.openimages_like:make_openimages_like",
            "repro.datasets.himax_like:make_himax_like",
            "repro.datasets.augment:rebalance_with_translation",
        ),
    ),
    ("quantization.qat", CM, ("repro.quantization.qat:QATWeightQuantizer.quantized_weights",)),
    ("quantization.convert", FULL, ("repro.quantization.int8:quantize_detector",)),
    ("evaluation.map", FULL, ("repro.evaluation.map:evaluate_map",)),
    # -- mission tick phases
    (
        "mission.run",
        FULL,
        (
            "repro.mission.explorer:ExplorationMission.run",
            "repro.mission.closed_loop:ClosedLoopMission.run",
        ),
    ),
    ("sensors.ranger", AGG, ("repro.drone.crazyflie:Crazyflie.read_ranger",)),
    (
        "geometry.cast",
        AGG,
        (
            "repro.geometry.raycast:RayCaster.hit_distances",
            "repro.geometry.raycast:RayCaster.cast",
            "repro.geometry.raycast:RayCaster.cast_hit",
            "repro.geometry.raycast:RayCaster.cast_many_list",
            "repro.geometry.raycast:RayCaster.line_of_sight",
            "repro.geometry.raycast:RayCaster.line_of_sight_many",
        ),
    ),
    ("geometry.cast_fleet", AGG, ("repro.geometry.raycast:RayCaster.cast_fleet",)),
    ("policies.update", AGG, ("repro.policies.base:ExplorationPolicy.update",)),
    ("drone.step", AGG, ("repro.drone.crazyflie:Crazyflie.step",)),
    ("mapping.mocap", AGG, ("repro.mapping.mocap:MotionCaptureTracker.observe",)),
    ("sensors.camera", AGG, ("repro.sensors.camera:HimaxCamera.observe",)),
    ("mission.detect", AGG, ("repro.mission.detector_model:CalibratedDetectorModel.detect",)),
    # -- execution layer, cache, campaign engine
    ("exec.run", FULL, ("repro.exec.executor:Executor.run",)),
    ("exec.job", FULL, ("repro.exec.jobspec:JobSpec.run",)),
    ("exec.jobspec.hash", AGG, ("repro.exec.jobspec:JobSpec.content_hash",)),
    ("exec.cache.put", AGG, ("repro.exec.cache:ResultCache.put",)),
    ("exec.cache.get", AGG, ("repro.exec.cache:ResultCache.get",)),
    ("sim.record_decode", AGG, ("repro.sim.results:MissionRecord.from_dict",)),
    ("sim.campaign", FULL, ("repro.sim.runner:run_campaign",)),
    ("sim.fleet.block", FULL, ("repro.sim.fleet:fly_fleet",)),
    (
        "sim.expand",
        AGG,
        (
            "repro.sim.generators:GeneratedSpec.realize",
            "repro.sim.campaign:Campaign.missions",
        ),
    ),
)


def _after_cache_put(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("exec.cache.put_bytes", os.path.getsize(result))


def _after_cache_get(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.count("exec.cache.gets")
    if result[1]:
        tracer.count("exec.cache.hits")


def _count_report(tracer: Tracer, report) -> None:
    if report is not None:
        tracer.count("exec.failed", report.failed)
        tracer.count("exec.retried", report.retried)


def _after_executor_run(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    # Inside run_campaign the campaign's own report is counted instead.
    if not tracer.is_open("sim.campaign"):
        _count_report(tracer, args[0].last_report)


def _after_run_campaign(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    _count_report(tracer, result.execution)


#: Extra counters read from a target's arguments and return value.
AFTER = {
    "repro.exec.cache:ResultCache.put": _after_cache_put,
    "repro.exec.cache:ResultCache.get": _after_cache_get,
    "repro.exec.executor:Executor.run": _after_executor_run,
    "repro.sim.runner:run_campaign": _after_run_campaign,
}


def _make_wrapper(fn: Callable, name: str, kind: str, tracer: Tracer, after) -> Callable:
    push, pop, is_open = tracer.push, tracer.pop, tracer.is_open
    full = kind != AGG
    if kind == GEN:

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            frame = push(name, True)
            try:
                yield from fn(*args, **kwargs)
            finally:
                pop(frame)

        return gen_wrapper
    if kind == CM:

        @functools.wraps(fn)
        def cm_wrapper(*args, **kwargs):
            return _TimedContext(fn(*args, **kwargs), name, tracer)

        return cm_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if is_open(name):
            return fn(*args, **kwargs)
        frame = push(name, full)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


class _TimedContext:
    """Times a context manager's ``__enter__`` and ``__exit__`` only."""

    def __init__(self, inner, name: str, tracer: Tracer) -> None:
        self.inner = inner
        self.name = name
        self.tracer = tracer

    def __enter__(self):
        frame = self.tracer.push(self.name, False)
        try:
            return self.inner.__enter__()
        finally:
            self.tracer.pop(frame)

    def __exit__(self, *exc):
        frame = self.tracer.push(self.name, False)
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.pop(frame)


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, raw value)`` of a ``module:[Class.]attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, kind, targets in TARGETS:
            for target in targets:
                owner, attr, raw = _resolve(target)
                after = AFTER.get(target)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        _make_wrapper(raw.__func__, name, kind, tracer, after)
                    )
                else:
                    wrapped = _make_wrapper(raw, name, kind, tracer, after)
                bindings = [(owner, attr)]
                if not isinstance(owner, type):
                    # Every repro module holding the same function by name.
                    bindings += [
                        (mod, key)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name.startswith("repro") and mod is not owner
                        for key, value in list(vars(mod).items())
                        if value is raw
                    ]
                for where, key in bindings:
                    undo.append((where, key, raw))
                    setattr(where, key, wrapped)
        yield
    finally:
        for where, key, original in reversed(undo):
            setattr(where, key, original)
