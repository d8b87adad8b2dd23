"""Live recovery progress: gauges over the streaming redo scan.

Tracing (:mod:`repro.obs.trace`) records what recovery *did*; this
module reports what it is *doing*, while it runs.  A
:class:`RecoveryProgress` is attached to a machine
(``machine.progress``), the redo paths wrap their record stream in
:meth:`RecoveryProgress.watch`, and an ``on_update`` callback receives
throttled snapshots.  A caller opts in by passing one to
``KVDatabase.cold_start(progress=...)``.

The cost contract mirrors the tracer's: the shared
:data:`NULL_PROGRESS` (``enabled = False``) makes an uninstrumented
pass free — ``watch`` returns the iterator it was given, untouched —
and the live wrapper amortizes its clock reads (one ``monotonic()``
per 64 records), so progress never becomes the thing slowing the
recovery it measures.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Iterator

_CHECK_EVERY = 64  # records between clock reads in watch()


class RecoveryProgress:
    """Counters for one recovery pass, with a throttled update callback.

    ``on_update`` (if given) is called with :meth:`snapshot` dicts: once
    per phase change, at most once per ``min_interval`` seconds during
    the record stream, and once from :meth:`finish`.
    """

    enabled = True

    def __init__(
        self,
        on_update: Callable[[dict], None] | None = None,
        min_interval: float = 0.2,
        label: str = "",
    ):
        self.on_update = on_update
        self.min_interval = min_interval
        self.label = label
        self.phase = "idle"
        self.segments = 0
        self.records = 0
        self.bytes = 0
        self.started_at = time.monotonic()
        self._stats: Any = None
        self._replayed_base = 0
        self._last_fire = 0.0

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> dict:
        """The current gauges as a plain dict."""
        replayed = 0
        if self._stats is not None:
            replayed = self._stats.records_replayed - self._replayed_base
        return {
            "label": self.label,
            "phase": self.phase,
            "segments": self.segments,
            "records": self.records,
            "replayed": replayed,
            "bytes": self.bytes,
            "elapsed_s": time.monotonic() - self.started_at,
        }

    def _fire(self) -> None:
        if self.on_update is not None:
            self._last_fire = time.monotonic()
            self.on_update(self.snapshot())

    def set_phase(self, phase: str) -> None:
        """Enter a named phase (``analysis``/``redo``/``ready``/...)."""
        self.phase = phase
        self._fire()

    def finish(self) -> None:
        """Mark the pass complete and fire a final update."""
        self.set_phase("ready")

    # -- the stream wrapper --------------------------------------------

    def watch(
        self,
        records: Iterable,
        log: Any = None,
        stats: Any = None,
    ) -> Iterator:
        """Wrap a redo record stream, counting as it is consumed.

        Counts records and payload bytes always; segment crossings when
        ``log`` is given (same boundary test as
        :func:`~repro.obs.trace.traced_segments`); replayed records when
        ``stats`` (a :class:`~repro.methods.base.MethodStats`) is given,
        read as a delta from the first watched stream so pre-existing
        counts don't leak in (a page-wise redo watches one stream per
        fetched segment run).
        """
        if stats is not None and self._stats is None:
            self._stats = stats
            self._replayed_base = stats.records_replayed
        end_lsn = -1
        since_check = 0
        for record in records:
            self.records += 1
            self.bytes += record.size_bytes()
            if log is not None and record.lsn > end_lsn:
                end_lsn = log.segment_containing(record.lsn).end_lsn
                self.segments += 1
            yield record
            since_check += 1
            if since_check >= _CHECK_EVERY:
                since_check = 0
                if (
                    self.on_update is not None
                    and time.monotonic() - self._last_fire >= self.min_interval
                ):
                    self._fire()


class NullRecoveryProgress(RecoveryProgress):
    """The disabled progress object: ``watch`` is the identity."""

    enabled = False

    def snapshot(self) -> dict:
        """A static empty snapshot (never fires a callback)."""
        return dict(super().snapshot(), elapsed_s=0.0)

    def set_phase(self, phase: str) -> None:
        """No-op."""

    def finish(self) -> None:
        """No-op."""

    def watch(self, records: Iterable, log: Any = None, stats: Any = None) -> Iterator:
        """Return the stream untouched (zero overhead)."""
        return iter(records)


NULL_PROGRESS = NullRecoveryProgress()
