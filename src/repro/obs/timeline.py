"""Replaying a trace into a human-readable recovery account.

A trace file (or ring buffer) is a flat, totally ordered record stream;
this module rebuilds its span tree and renders the story a recovery
engineer wants to read: what the engine did, why each page flushed or
was elided (with its write-graph reason), where redo started, and what
every segment of the redo scan decided per record.

:func:`load_trace` parses and *validates* a JSON-lines trace —
malformed lines, unknown record types, events referencing never-opened
spans, and double-closed spans all raise :class:`TraceReadError` — so
"the traced run produced a well-formed trace" is a checkable property,
not an assumption.  Unclosed spans are legal: a crash mid-recovery
leaves exactly that shape, and the timeline reports them as
interrupted.

:class:`RecoveryTimeline` additionally cross-checks: its
:meth:`~RecoveryTimeline.totals` aggregates the per-record redo events,
and the tests assert those equal the engine's
:class:`~repro.obs.metrics.MetricsRegistry` snapshot — the trace and
the counters are two views of one history and must agree.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from typing import Any, Iterable

_RECORD_TYPES = ("span_start", "span_end", "event")


class TraceReadError(ValueError):
    """The trace is malformed (bad JSON, bad structure, bad references)."""


def load_trace(path: str) -> list[dict]:
    """Parse a JSON-lines trace file, validating every record.

    Each line must be a JSON object with an integer ``seq`` and a
    ``type`` of ``span_start``/``span_end``/``event`` carrying that
    type's required keys.  Returns the records in file order.
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceReadError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise TraceReadError(f"{path}:{lineno}: record is not an object")
            _validate_record(record, f"{path}:{lineno}")
            records.append(record)
    return records


def _validate_record(record: dict, where: str) -> None:
    kind = record.get("type")
    if kind not in _RECORD_TYPES:
        raise TraceReadError(f"{where}: unknown record type {kind!r}")
    if not isinstance(record.get("seq"), int):
        raise TraceReadError(f"{where}: missing integer 'seq'")
    if not isinstance(record.get("fields", {}), dict):
        raise TraceReadError(f"{where}: 'fields' is not an object")
    if kind in ("span_start", "span_end"):
        if not isinstance(record.get("id"), int):
            raise TraceReadError(f"{where}: span record missing integer 'id'")
    if kind in ("span_start", "event"):
        if not isinstance(record.get("name"), str):
            raise TraceReadError(f"{where}: record missing 'name'")


class SpanNode:
    """One span of the rebuilt tree: fields, child spans, child events."""

    __slots__ = ("span_id", "name", "fields", "end_fields", "children", "events", "closed")

    def __init__(self, span_id: int, name: str, fields: dict):
        self.span_id = span_id
        self.name = name
        self.fields = fields
        self.end_fields: dict = {}
        self.children: list[SpanNode] = []
        self.events: list[dict] = []
        self.closed = False

    def field(self, key: str, default: Any = None) -> Any:
        """A field value, end fields taking precedence over start fields."""
        if key in self.end_fields:
            return self.end_fields[key]
        return self.fields.get(key, default)

    def walk(self) -> Iterable["SpanNode"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["SpanNode"]:
        """Every descendant span (including self) named ``name``."""
        return [node for node in self.walk() if node.name == name]

    def __repr__(self) -> str:
        state = "closed" if self.closed else "OPEN"
        return (
            f"SpanNode(#{self.span_id} {self.name!r} {state}, "
            f"children={len(self.children)}, events={len(self.events)})"
        )


def build_span_tree(
    records: Iterable[dict], lenient: bool = False
) -> tuple[list[SpanNode], list[dict]]:
    """Rebuild the span forest from a record stream.

    Returns ``(roots, top_events)`` where ``top_events`` are events
    emitted outside any span.  Raises :class:`TraceReadError` on
    references to unknown spans or double closes; leaving spans open is
    allowed (interrupted runs).

    ``lenient=True`` is for *tails* of a trace — a flight ring holds
    only the newest N records, so a span's start may have been
    overwritten while its end or events survive.  In that mode dangling
    references degrade instead of raising: an unknown parent makes the
    span a root, an end for an unknown span synthesizes a closed root
    (so its fields still render), an event for an unknown span becomes
    a top-level event, and a double close merges end fields.
    """
    nodes: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    top_events: list[dict] = []
    for record in records:
        kind = record["type"]
        if kind == "span_start":
            if record["id"] in nodes:
                if lenient:
                    continue  # wrapped duplicate: keep the first sighting
                raise TraceReadError(f"span id {record['id']} opened twice")
            node = SpanNode(record["id"], record["name"], record.get("fields", {}))
            nodes[record["id"]] = node
            parent = record.get("parent")
            if parent is None:
                roots.append(node)
            elif parent in nodes:
                nodes[parent].children.append(node)
            elif lenient:
                roots.append(node)  # parent's start fell off the ring
            else:
                raise TraceReadError(
                    f"span #{record['id']} has unknown parent #{parent}"
                )
        elif kind == "span_end":
            node = nodes.get(record["id"])
            if node is None:
                if not lenient:
                    raise TraceReadError(f"span_end for unknown span #{record['id']}")
                node = SpanNode(record["id"], record.get("name", "?"), {})
                nodes[record["id"]] = node
                roots.append(node)
            if node.closed:
                if not lenient:
                    raise TraceReadError(f"span #{record['id']} closed twice")
                node.end_fields = {**node.end_fields, **record.get("fields", {})}
            else:
                node.closed = True
                node.end_fields = record.get("fields", {})
        else:  # event
            span_id = record.get("span")
            node = nodes.get(span_id) if span_id is not None else None
            if node is not None:
                node.events.append(record)
            elif span_id is None or lenient:
                top_events.append(record)
            else:
                raise TraceReadError(
                    f"event {record.get('name')!r} references unknown "
                    f"span #{span_id}"
                )
    return roots, top_events


def _all_events(roots: list[SpanNode], top_events: list[dict]) -> Iterable[dict]:
    yield from top_events
    for root in roots:
        for node in root.walk():
            yield from node.events


class RecoveryTimeline:
    """A trace, rebuilt and rendered as a recovery story.

    Construct from parsed records, a file
    (:meth:`from_file`), or a live
    :class:`~repro.obs.trace.RingBufferSink` (:meth:`from_sink`).
    """

    def __init__(self, records: Iterable[dict], lenient: bool = False):
        self.records = list(records)
        self.roots, self.top_events = build_span_tree(self.records, lenient=lenient)

    @classmethod
    def from_file(cls, path: str) -> "RecoveryTimeline":
        """Load and validate a JSON-lines trace file."""
        return cls(load_trace(path))

    @classmethod
    def from_sink(cls, sink: Iterable[dict]) -> "RecoveryTimeline":
        """Build from an in-memory sink (e.g. a ring buffer)."""
        return cls(list(sink))

    @classmethod
    def from_flight_ring(cls, ring: Iterable[dict]) -> "RecoveryTimeline":
        """Build leniently from a flight ring (a tail with dangling refs)."""
        return cls(list(ring), lenient=True)

    # -- queries -------------------------------------------------------

    def spans(self, name: str) -> list[SpanNode]:
        """Every span named ``name``, in trace order."""
        found: list[SpanNode] = []
        for root in self.roots:
            found.extend(root.find(name))
        return found

    def recoveries(self) -> list[SpanNode]:
        """The ``recovery`` spans (one per crash/recover cycle traced)."""
        return self.spans("recovery")

    def open_spans(self) -> list[SpanNode]:
        """Every span left unclosed — what the process was doing when it died."""
        found: list[SpanNode] = []
        for root in self.roots:
            found.extend(node for node in root.walk() if not node.closed)
        found.sort(key=lambda node: node.span_id)
        return found

    def events(self, name: str | None = None) -> list[dict]:
        """Every event (optionally filtered by name), in trace order."""
        events = sorted(_all_events(self.roots, self.top_events), key=lambda r: r["seq"])
        if name is None:
            return events
        return [e for e in events if e.get("name") == name]

    # -- aggregation ---------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Trace-derived counters, named to match the metrics registry.

        ``method.records_scanned`` / ``_replayed`` / ``_skipped`` come
        from the per-record redo events; ``cache.flushes`` and
        ``scheduler.elisions`` from the flush-decision events.  For a
        database traced from birth these must equal the corresponding
        keys of its :class:`~repro.obs.metrics.MetricsRegistry`
        snapshot — the cross-check the golden-file test enforces.
        """
        decisions = TallyCounter(
            e["fields"].get("decision") for e in self.events("recovery.record")
        )
        return {
            "method.records_scanned": sum(decisions.values()),
            "method.records_replayed": decisions.get("replayed", 0),
            "method.records_skipped": decisions.get("skipped", 0),
            "cache.flushes": len(self.events("cache.flush")),
            "scheduler.elisions": len(self.events("scheduler.remove_write")),
        }

    def _segment_line(self, segment: SpanNode) -> str:
        decisions = TallyCounter(
            e["fields"].get("decision") for e in segment.events
            if e.get("name") == "recovery.record"
        )
        reasons = TallyCounter(
            e["fields"].get("reason") for e in segment.events
            if e.get("name") == "recovery.record"
            and e["fields"].get("decision") == "skipped"
        )
        scanned = sum(decisions.values())
        parts = [
            f"segment [{segment.field('base_lsn')}..{segment.field('end_lsn')}]:",
            f"scanned={scanned}",
            f"replayed={decisions.get('replayed', 0)}",
            f"skipped={decisions.get('skipped', 0)}",
        ]
        if reasons:
            detail = ", ".join(f"{r}={n}" for r, n in sorted(reasons.items()))
            parts.append(f"(skips: {detail})")
        if not segment.closed:
            parts.append("[interrupted]")
        return " ".join(parts)

    # -- rendering -----------------------------------------------------

    def render(self, max_decisions: int = 12) -> str:
        """The human-readable account, as one multi-line string."""
        lines: list[str] = []
        commands = self.events("engine.command")
        forces = self.events("log.force")
        flushes = self.events("cache.flush")
        elides = self.events("cache.elide")
        blocked = self.events("cache.flush_blocked")
        lines.append(
            f"trace: {len(self.records)} records — "
            f"{len(commands)} commands, {len(forces)} log forces, "
            f"{len(flushes)} page flushes, {len(elides)} elisions, "
            f"{len(blocked)} blocked flush attempts"
        )

        for index, recovery in enumerate(self.recoveries(), start=1):
            header = (
                f"recovery #{index} ({recovery.field('method', '?')}"
                f"{', full scan' if recovery.field('full_scan') else ''}) — "
                f"redo_start={recovery.field('redo_start', '?')} "
                f"scanned={recovery.field('scanned', '?')} "
                f"replayed={recovery.field('replayed', '?')} "
                f"skipped={recovery.field('skipped', '?')}"
            )
            if not recovery.closed:
                header += "  [INTERRUPTED]"
            lines.append(header)
            for analysis in recovery.find("recovery.analysis"):
                detail = ", ".join(
                    f"{k}={v}"
                    for k, v in {**analysis.fields, **analysis.end_fields}.items()
                )
                lines.append(f"  analysis: {detail}")
            for segment in recovery.find("recovery.segment"):
                lines.append("  " + self._segment_line(segment))
        if not self.recoveries():
            lines.append("no recovery spans in this trace")

        decisions = flushes + elides + blocked
        decisions.sort(key=lambda e: e["seq"])
        if decisions:
            lines.append(f"flush decisions ({len(decisions)}):")
            for event in decisions[:max_decisions]:
                fields = event["fields"]
                if event["name"] == "cache.flush":
                    lines.append(
                        f"  install {fields.get('page')} "
                        f"(node #{fields.get('node')}, writes={fields.get('writes')}, "
                        f"lsn={fields.get('lsn')}, blockers clear)"
                    )
                elif event["name"] == "cache.elide":
                    lines.append(
                        f"  elide {fields.get('page')} "
                        f"(node #{fields.get('node')}, {fields.get('reason')})"
                    )
                else:
                    lines.append(
                        f"  blocked {fields.get('page')} "
                        f"(waiting on {fields.get('blockers')})"
                    )
            if len(decisions) > max_decisions:
                lines.append(f"  ... and {len(decisions) - max_decisions} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RecoveryTimeline(records={len(self.records)}, "
            f"recoveries={len(self.recoveries())})"
        )
