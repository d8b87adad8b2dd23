"""Structured tracing: typed span/event records over pluggable sinks.

A trace is a sequence of flat dict records, one per line in the
JSON-lines serialization.  Three record types:

- ``span_start`` — opens a span (``id``, ``name``, ``parent``, start
  ``fields``);
- ``span_end`` — closes it (``id``, end ``fields`` merged by readers);
- ``event`` — a point observation attached to the innermost open span
  (``span``) at emission time.

Every record carries a monotonically increasing ``seq`` so traces are
totally ordered and deterministic (no wall-clock dependence — replays
of the same seeded workload produce structurally identical traces).

The cost contract: instrumentation sites throughout the engine, log
manager, cache, and recovery methods guard with ``if tracer.enabled:``
before building any event fields.  The shared :data:`NULL_TRACER`
(``enabled = False``) therefore reduces a disabled site to one
attribute load plus a branch — no allocation, no call.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Iterable, Iterator


class TraceError(RuntimeError):
    """A structural tracing violation (e.g. ending a span twice)."""


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

class NullSink:
    """Discards every record (the sink behind :data:`NULL_TRACER`)."""

    def emit(self, record: dict) -> None:
        """Drop the record."""

    def close(self) -> None:
        """Nothing to release."""


class RingBufferSink:
    """Keeps the newest ``capacity`` records in memory.

    Bounded-memory tracing, read back in the same process (e.g. by
    :class:`repro.obs.timeline.RecoveryTimeline`); a trace that must
    outlive the process goes to a
    :class:`~repro.obs.flightrec.FlightRecorder`.  ``dropped`` counts
    records that fell off the old end.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.records: deque[dict] = deque(maxlen=capacity)
        self.dropped = 0

    def emit(self, record: dict) -> None:
        """Append, evicting the oldest record when full."""
        if len(self.records) == self.capacity:
            self.dropped += 1
        self.records.append(record)

    def close(self) -> None:
        """Nothing to release; records stay readable."""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)


class JsonLinesSink:
    """Serializes each record as one JSON line to a file.

    Values that are not JSON-native are stringified (``default=str``),
    so payload type names, tuples, and the like never break a trace.
    """

    def __init__(self, path: str):
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.records_written = 0

    def emit(self, record: dict) -> None:
        """Write one record as a JSON line."""
        self._fh.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True, default=str)
        )
        self._fh.write("\n")
        self.records_written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class Span:
    """One open span; close it with :meth:`end` (or as a context manager).

    Created only by :meth:`Tracer.span`.  Ending a span pops it from the
    tracer's open-span stack; spans left open at a crash are legal — the
    timeline reader treats an unclosed span as interrupted, which is
    precisely what a crash mid-recovery looks like.
    """

    __slots__ = ("_tracer", "span_id", "name", "_ended")

    def __init__(self, tracer: "Tracer", span_id: int, name: str):
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self._ended = False

    def end(self, **fields: Any) -> None:
        """Close the span, attaching ``fields`` to its ``span_end`` record."""
        if self._ended:
            raise TraceError(f"span {self.name!r} (#{self.span_id}) ended twice")
        self._ended = True
        self._tracer._end_span(self, fields)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._ended:
            self.end()

    def __repr__(self) -> str:
        state = "ended" if self._ended else "open"
        return f"Span(#{self.span_id} {self.name!r}, {state})"


class _NullSpan:
    """The no-op span :data:`NULL_TRACER` hands out (one shared instance)."""

    __slots__ = ()
    span_id = -1
    name = ""

    def end(self, **fields: Any) -> None:
        """No-op."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_SPAN = _NullSpan()


# ----------------------------------------------------------------------
# Tracers
# ----------------------------------------------------------------------

class Tracer:
    """Emits span/event records to a sink; ``enabled`` is True.

    One tracer is threaded through a whole machine (engine, log manager,
    buffer pool, scheduler, methods) so all their records interleave in
    one totally ordered stream.  Emission is atomic under an internal
    lock — ``seq`` assignment and the sink write happen together, so
    concurrent sessions produce a gap-free, duplicate-free sequence (the
    stream's *order* across threads is whatever the lock ordained, which
    is the only total order there is).  The lock is on the enabled path
    only; the ``if tracer.enabled:`` guard still reduces a disabled site
    to one attribute load plus a branch.
    """

    enabled = True

    def __init__(self, sink: Any = None):
        self.sink = sink if sink is not None else RingBufferSink()
        self._seq = 0
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.records_emitted = 0

    # -- emission ------------------------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point event attached to the innermost open span."""
        with self._lock:
            self._emit(
                {
                    "seq": self._seq,
                    "type": "event",
                    "name": name,
                    "span": self._stack[-1] if self._stack else None,
                    "fields": fields,
                }
            )

    def span(self, name: str, **fields: Any) -> Span:
        """Open a span (child of the innermost open span) and return it."""
        with self._lock:
            span_id = self._seq
            self._emit(
                {
                    "seq": self._seq,
                    "type": "span_start",
                    "name": name,
                    "id": span_id,
                    "parent": self._stack[-1] if self._stack else None,
                    "fields": fields,
                }
            )
            self._stack.append(span_id)
        return Span(self, span_id, name)

    def _end_span(self, span: Span, fields: dict) -> None:
        # Out-of-order ends are tolerated (remove wherever it sits): an
        # exception unwinding through nested context managers may close
        # an outer span while an inner one was abandoned by a crash.
        with self._lock:
            if span.span_id in self._stack:
                self._stack.remove(span.span_id)
            self._emit(
                {
                    "seq": self._seq,
                    "type": "span_end",
                    "name": span.name,
                    "id": span.span_id,
                    "fields": fields,
                }
            )

    def _emit(self, record: dict) -> None:
        # Caller holds self._lock: seq advance and sink write are atomic.
        self._seq += 1
        self.records_emitted += 1
        self.sink.emit(record)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the sink (flushing file sinks)."""
        self.sink.close()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(records={self.records_emitted}, "
            f"open_spans={len(self._stack)})"
        )


class NullTracer(Tracer):
    """The disabled tracer: ``enabled`` is False and every method no-ops.

    Instrumentation sites must guard with ``if tracer.enabled:`` — that
    guard is the entire disabled-mode cost.  The overridden methods
    below are belt and braces for unguarded callers (tests, examples):
    they allocate nothing and emit nothing.
    """

    enabled = False

    def __init__(self):
        super().__init__(NullSink())

    def event(self, name: str, **fields: Any) -> None:
        """No-op."""

    def span(self, name: str, **fields: Any) -> _NullSpan:  # type: ignore[override]
        """Return the shared no-op span."""
        return NULL_SPAN

    def close(self) -> None:
        """No-op."""


NULL_TRACER = NullTracer()


# ----------------------------------------------------------------------
# Scan helpers
# ----------------------------------------------------------------------

def traced_segments(tracer: Tracer, log: Any, records: Iterable) -> Iterator:
    """Wrap a log-record stream in per-segment ``recovery.segment`` spans.

    ``records`` is any iterator of :class:`~repro.logmgr.records.LogRecord`
    in LSN order (a streamed suffix, or one fetched segment run).
    Each time the stream crosses into a new log segment, the previous
    segment span is closed and a new one opened carrying the segment's
    LSN range — so per-record ``recovery.record`` events emitted by the
    consumer attach to the segment they belong to, and the timeline can
    report scanned/replayed/skipped per segment.

    Only call when the tracer is enabled; the segment lookup is a bisect
    per segment boundary, not per record.
    """
    span = None
    end_lsn = -1
    try:
        for record in records:
            if record.lsn > end_lsn:
                if span is not None:
                    span.end()
                segment = log.segment_containing(record.lsn)
                end_lsn = segment.end_lsn
                span = tracer.span(
                    "recovery.segment",
                    base_lsn=segment.base_lsn,
                    end_lsn=end_lsn,
                )
            yield record
    finally:
        if span is not None:
            span.end()
