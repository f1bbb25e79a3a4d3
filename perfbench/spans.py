"""In-memory span recorder for the benchmark's traced runs.

A span is one call across a layer boundary: ``name``, ``start``,
``end``, ``parent`` (id of the enclosing recorded span) and ``pid``.
Coarse boundaries (a mission flight, a fleet block, a cache write) are
kept one record per call. Per-tick and per-batch boundaries (a raycast,
a conv forward) are called hundreds of thousands of times, so they are
*aggregated*: one running ``(count, total, self)`` triple per
``(name, parent name)`` pair instead of a record per call.

Self time is a span's duration minus the time its child spans cover.
Every open frame accumulates the durations of its direct children
(recorded or aggregated); calls in one thread nest, so children never
overlap and their sum is the time they cover.

A re-entrant call of a name that is already open (``cast_many`` calling
``hit_distances``, both ``geometry.cast``) is folded into the outer
span, so counts and times are not doubled.

Everything stays in memory until :meth:`Tracer.flush` writes one JSONL
file per process. A tracer installed before a ``multiprocessing`` fork
resets itself in the child and flushes at the child's exit, so forked
pool workers write their own spans.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import time
from typing import Dict, Iterator, List, Optional, Tuple

clock = time.perf_counter


class Tracer:
    """Span stack, full-span records, aggregates and counters of one process.

    Args:
        out_dir: directory the JSONL files are written to.
        run_id: file-name prefix shared by the parent and its children.
        clock_fn: monotonic clock (tests pass a fake one).
    """

    def __init__(self, out_dir: str, run_id: str, clock_fn=clock) -> None:
        self.out_dir = out_dir
        self.run_id = run_id
        self.clock = clock_fn
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self.aggregates: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.counters: Dict[str, float] = {}
        # Open frames: [name, start, child_time, span_id (0 = aggregated)].
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}
        self._next_id = 1

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry
        # was cleared, so the flush registered here survives to exit.
        self._reset()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    # -- recording -------------------------------------------------------

    def is_open(self, name: str) -> bool:
        return name in self._open

    def push(self, name: str, full: bool) -> list:
        span_id = 0
        if full:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def pop(self, frame: list) -> float:
        """Close ``frame``; returns its duration."""
        end = self.clock()
        name, start, child, span_id = frame
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
            ancestors = stack
        else:  # an abandoned generator closed late: detach, do not nest
            stack.remove(frame)
            ancestors = []
        left = self._open[name] - 1
        if left:
            self._open[name] = left
        else:
            del self._open[name]
        dur = end - start
        parent = ancestors[-1] if ancestors else None
        if parent is not None:
            parent[2] += dur
        if span_id:
            parent_id = None
            for up in reversed(ancestors):
                if up[3]:
                    parent_id = up[3]
                    break
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent_id,
                    "pid": self.pid,
                    "self": dur - child,
                }
            )
        else:
            key = (name, parent[0] if parent is not None else None)
            agg = self.aggregates.get(key)
            if agg is None:
                self.aggregates[key] = [1, dur, dur - child]
            else:
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
        return dur

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- output ----------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Every record of this process, as written to JSONL."""
        for span in self.spans:
            yield {"kind": "span", **span}
        for (name, parent), (n, total, self_s) in sorted(
            self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
        ):
            yield {
                "kind": "agg",
                "name": name,
                "parent": parent,
                "pid": self.pid,
                "count": n,
                "total": total,
                "self": self_s,
            }
        for name, value in sorted(self.counters.items()):
            yield {"kind": "counter", "name": name, "pid": self.pid, "value": value}

    def path(self) -> str:
        return os.path.join(self.out_dir, f"{self.run_id}-{self.pid}.jsonl")

    def flush(self) -> str:
        """Write this process's records as JSONL; returns the path."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = self.path()
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return path


def read_records(out_dir: str, run_id: str) -> List[dict]:
    """All records of one run, from the parent's and any child's file."""
    records: List[dict] = []
    prefix = run_id + "-"
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(prefix) and name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                records.extend(json.loads(line) for line in fh if line.strip())
    return records

