"""On-disk trace store, sharing layout with the result cache.

Traces live *beside* their result-cache entries, keyed by the same job
content hash and sharded the same way::

    <cache-dir>/
        ab/
            ab3f...9c.json            result entry (repro.exec.cache)
            ab3f...9c.trace.json.gz   flight trace  (this module)

The ``.trace.json.gz`` suffix keeps traces invisible to the result
cache's entry scan (which only considers bare ``.json`` files), so
recording never perturbs cache statistics or ``clear()``; symmetric,
:meth:`TraceStore.clear` only removes traces. Writes are atomic
(temp file + ``os.replace``), like cache entries.

:func:`cache_command` is the one implementation of the CLIs' ``cache
stats|clear|evict`` subcommand, which manages both halves of the
directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.errors import ExecError, ObsError
from repro.exec.cache import TRACE_SUFFIX, ResultCache, parse_age, parse_size
from repro.obs.trace import MissionTrace

__all__ = ["TRACE_SUFFIX", "TraceStats", "TraceStore", "cache_command"]

#: Actions of :func:`cache_command`.
CACHE_ACTIONS = ("stats", "clear", "evict")


class TraceStats(NamedTuple):
    """Point-in-time size of the trace side of a cache directory."""

    traces: int  #: number of trace artifacts
    total_bytes: int  #: bytes on disk across them
    orphans: int = 0  #: abandoned ``.tmp-*.gz`` files from crashed writers


@dataclass
class TraceStore:
    """Flight traces on disk, keyed by job content hash.

    Shares a directory with the :class:`~repro.exec.cache.ResultCache`
    so one job hash locates both the scalar result and the telemetry
    behind it.
    """

    directory: str

    def __post_init__(self) -> None:
        if not self.directory:
            raise ObsError("trace store needs a directory")

    # -- paths ------------------------------------------------------------

    def path(self, content_hash: str) -> str:
        """Where the trace for ``content_hash`` lives (existing or not)."""
        if len(content_hash) < 3:
            raise ObsError(f"implausible content hash {content_hash!r}")
        return os.path.join(
            self.directory, content_hash[:2], f"{content_hash}{TRACE_SUFFIX}"
        )

    def has(self, content_hash: str) -> bool:
        """Whether a trace artifact exists for ``content_hash``."""
        return os.path.isfile(self.path(content_hash))

    # -- I/O --------------------------------------------------------------

    def put(self, content_hash: str, trace: MissionTrace) -> str:
        """Store ``trace`` under ``content_hash``; returns the path.

        Atomic via a sibling temp file + ``os.replace``. The temp name
        is derived from the content hash rather than randomized
        (``mkstemp``): the hash already makes it unique per job, two
        writers of the same job write identical telemetry, and skipping
        the secure-name dance keeps ``put`` off the recorded mission's
        overhead budget.
        """
        path = self.path(content_hash)
        shard = os.path.dirname(path)
        os.makedirs(shard, exist_ok=True)
        tmp = os.path.join(shard, f".tmp-{content_hash}.gz")
        try:
            with open(tmp, "wb") as fh:
                fh.write(trace.to_bytes())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):  # pragma: no cover - cleanup path
                os.unlink(tmp)
            raise
        return path

    def get(self, content_hash: str) -> MissionTrace:
        """Load the trace for ``content_hash``.

        Raises:
            ObsError: when no trace exists or the artifact is corrupt.
        """
        path = self.path(content_hash)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise ObsError(
                f"no flight trace for {content_hash[:12]}... "
                f"(expected at {path}); re-run the campaign with --record"
            ) from exc
        return MissionTrace.from_bytes(blob)

    # -- discovery --------------------------------------------------------

    def _trace_files(self):
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(TRACE_SUFFIX) and not name.startswith("."):
                    yield os.path.join(shard_dir, name)

    def _orphan_files(self):
        """Abandoned ``.tmp-*.gz`` files from crashed trace writers."""
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.startswith(".tmp-") and name.endswith(".gz"):
                    yield os.path.join(shard_dir, name)

    def hashes(self) -> List[str]:
        """Content hashes of every stored trace, sorted."""
        return sorted(
            os.path.basename(path)[: -len(TRACE_SUFFIX)]
            for path in self._trace_files()
        )

    def find(self, prefix: str) -> Optional[str]:
        """Resolve a (possibly abbreviated) content hash to a full one.

        Returns ``None`` when no stored trace matches.

        Raises:
            ObsError: when the prefix is ambiguous.
        """
        matches = [h for h in self.hashes() if h.startswith(prefix)]
        if not matches:
            return None
        if len(matches) > 1:
            raise ObsError(
                f"trace hash prefix {prefix!r} is ambiguous: "
                f"{[m[:12] for m in matches]}"
            )
        return matches[0]

    def stats(self) -> TraceStats:
        """Trace count, bytes on disk, and crashed-writer orphan count."""
        traces = 0
        total = 0
        for path in self._trace_files():
            try:
                size = os.path.getsize(path)
            except OSError:  # pragma: no cover - racing deletion
                continue
            traces += 1
            total += size
        orphans = sum(1 for _ in self._orphan_files())
        return TraceStats(traces=traces, total_bytes=total, orphans=orphans)

    def clear(self) -> int:
        """Delete every trace artifact and orphaned temp file; returns
        how many files were removed.

        Result-cache entries in the shared directory are untouched.
        """
        removed = 0
        targets = list(self._trace_files())
        targets.extend(self._orphan_files())
        for path in targets:
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - racing deletion
                continue
        return removed


def cache_command(
    action: str,
    cache_dir: str,
    max_bytes: Optional[str] = None,
    max_age: Optional[str] = None,
) -> List[str]:
    """Run one ``cache stats|clear|evict`` action; returns its report lines.

    Shared by ``python -m repro.sim cache`` and ``python -m
    repro.experiments cache``. ``clear`` removes result entries and
    flight traces alike; ``evict`` takes ``max_bytes`` (``k``/``M``/``G``
    suffixes) and/or ``max_age`` (``s``/``m``/``h``/``d`` suffixes) and
    drops paired traces with their entries.

    Raises:
        ExecError: for an unknown action, or ``evict`` without a budget.
    """
    if action not in CACHE_ACTIONS:
        raise ExecError(
            f"unknown cache action {action!r} ({', '.join(CACHE_ACTIONS)})"
        )
    cache = ResultCache(cache_dir)
    store = TraceStore(cache.directory)
    if action == "clear":
        removed = cache.clear()
        traces = store.clear()
        return [
            f"removed {removed} cached results and {traces} flight traces "
            f"from {cache.directory}"
        ]
    if action == "evict":
        if max_bytes is None and max_age is None:
            raise ExecError("cache evict needs --max-bytes and/or --max-age")
        report = cache.evict(
            max_bytes=None if max_bytes is None else parse_size(max_bytes),
            max_age_s=None if max_age is None else parse_age(max_age),
        )
        return [
            f"evicted {report.removed_entries} entries "
            f"(+{report.removed_traces} paired traces, "
            f"{report.removed_junk} junk files), freed "
            f"{report.freed_bytes / 1e6:.2f} MB; "
            f"{report.remaining_bytes / 1e6:.2f} MB remain in {cache.directory}"
        ]
    stats = cache.stats()
    lines = [
        f"cache {cache.directory}: {stats.entries} results, "
        f"{stats.total_bytes / 1e6:.2f} MB"
    ]
    if stats.orphans or stats.quarantined:
        lines.append(
            f"  junk: {stats.orphans} orphaned temp files, "
            f"{stats.quarantined} quarantined corrupt entries "
            f"(remove with `cache evict` or `cache clear`)"
        )
    for version, count, nbytes in stats.by_version:
        lines.append(f"  {version}: {count} entries, {nbytes / 1e6:.2f} MB")
    tstats = store.stats()
    lines.append(
        f"traces: {tstats.traces} recorded flights, "
        f"{tstats.total_bytes / 1e6:.2f} MB"
    )
    return lines
