"""Recovery provenance: tracing and metrics for the whole stack.

The Recovery Invariant is a contract between normal operation and
recovery; this package makes every contract-relevant decision
*observable* in production mode instead of only in the sim auditor:

- :mod:`repro.obs.metrics` — a zero-dependency :class:`MetricsRegistry`
  that reads the per-component counters (method stats, scheduler
  stats, log/disk/pool counters) through one namespaced, collision-
  checked snapshot (``method.records_replayed``, ``scheduler.elisions``,
  ``log.forces``, ...), plus the log-bucket :class:`Histogram` behind
  the server's latency quantiles;
- :mod:`repro.obs.trace` — a structured :class:`Tracer` emitting typed
  span/event records to pluggable sinks (JSON-lines file, in-memory
  ring buffer, null), instrumented at every theory-relevant seam:
  engine command execution, WAL append/force, checkpoints, flush/elide/victim
  decisions (with their write-graph reason), and recovery itself as a
  span tree (analysis → per-segment redo → per-record replay; a lazy
  restart's ``recovery.lazy`` span and ``engine.lazy_drained`` event) —
  the one way recovery is observed;
- :mod:`repro.obs.flightrec` — :class:`FlightRecorder`, the sink that
  writes each record straight into a fixed-size ring file, so a
  SIGKILL leaves the final records on disk for ``repro postmortem``;
- :mod:`repro.obs.timeline` — :class:`RecoveryTimeline`, which replays
  a trace into a human-readable account of a crash/recovery run and
  cross-checks its totals against the metrics registry.

Tracing is **off by default and cheap**: the shared :data:`NULL_TRACER`
is a no-op object, and every instrumentation site guards with
``if tracer.enabled:`` so a disabled tracer costs one attribute load
and a branch — no event dict is ever built.
"""

from repro.obs.flightrec import (
    FLIGHT_FILENAME,
    FlightRecorder,
    FlightRecorderError,
    flight_ring_path,
)
from repro.obs.metrics import Histogram, MetricsError, MetricsRegistry
from repro.obs.timeline import RecoveryTimeline, SpanNode, build_span_tree, load_trace
from repro.obs.trace import (
    NULL_TRACER,
    JsonLinesSink,
    NullSink,
    NullTracer,
    RingBufferSink,
    Span,
    Tracer,
    traced_segments,
)

__all__ = [
    "FLIGHT_FILENAME",
    "FlightRecorder",
    "FlightRecorderError",
    "Histogram",
    "JsonLinesSink",
    "MetricsError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullSink",
    "NullTracer",
    "RecoveryTimeline",
    "RingBufferSink",
    "Span",
    "SpanNode",
    "Tracer",
    "build_span_tree",
    "flight_ring_path",
    "load_trace",
    "traced_segments",
]
