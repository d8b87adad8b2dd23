"""Postmortem: join the flight ring with the WAL tail after a crash.

A SIGKILL leaves two independent witnesses on disk: the WAL segment
files (the durable truth — what recovery will replay, torn tail and
all) and the flight ring (the observational truth — the last trace
events the process emitted before it died).  ``repro postmortem <dir>``
reads both **read-only** — no truncation, no recovery, nothing the
tools touch changes what a later cold start will see — and renders one
forensic narrative: the last stable LSN per log (the same number
``logdump`` prints last), any torn tail with its byte offset, the final
events from the ring, and every span the crash left open, rendered
INTERRUPTED via the lenient span-tree builder (a ring holds only a
tail, so dangling span references are expected, not errors).

``collect_postmortem`` returns the structured report (what tests
assert); ``render_postmortem`` turns it into the human account.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.flightrec import FlightRecorder, FlightRecorderError, flight_ring_path
from repro.obs.timeline import RecoveryTimeline


def scan_log_tail(directory) -> dict[str, Any]:
    """Read-only scan of one segment directory's stable suffix.

    Summarizes every archive + segment file with
    :meth:`~repro.logmgr.filelog.SegmentReader.stats` — the same frame
    walk recovery and ``logdump`` use — but never writes: returns the
    record count, the last stable LSN, and any torn tail (file, byte
    offset, reason).  A crash-torn log is data here, not an error; a
    bad header or an LSN hole is reported under ``errors``.
    """
    from repro.logmgr.codec import CodecError
    from repro.logmgr.filelog import log_files, open_segments

    paths = log_files(directory)
    records = 0
    last_lsn: int | None = None
    torn: list[dict[str, Any]] = []
    errors: list[str] = []
    for path, reader, fault in open_segments(paths):
        if fault is not None:
            header_torn, reason = fault
            if header_torn:
                torn.append({"file": path.name, "offset": 0, "reason": reason})
            else:
                errors.append(f"{path.name}: bad header ({reason})")
            continue
        try:
            stats = reader.stats()
        except CodecError as exc:
            errors.append(f"{path.name}: {exc}")
            continue
        if stats.count:
            records += stats.count
            end = reader.base_lsn + stats.count - 1
            last_lsn = end if last_lsn is None else max(last_lsn, end)
        if stats.tear_offset is not None:
            torn.append(
                {
                    "file": path.name,
                    "offset": stats.tear_offset,
                    "reason": stats.tear_reason,
                }
            )
    return {
        "dir": str(Path(directory)),
        "files": len(paths),
        "records": records,
        "last_lsn": last_lsn,
        "torn_tails": torn,
        "errors": errors,
    }


def collect_postmortem(root, ring_path=None, last_events: int = 20) -> dict[str, Any]:
    """Gather the structured postmortem for a log dir or deployment root.

    ``root`` may be a single engine's segment directory or a sharded
    deployment root (holding ``DEPLOY.json``); the flight ring is looked
    up at its canonical location under ``root`` unless ``ring_path``
    overrides it.  Missing pieces degrade (a report with no ring still
    has the WAL tail, and vice versa); only a root with *neither* is an
    error (``ok: False``).
    """
    root = Path(root)
    logs: dict[str, dict[str, Any]] = {}
    if root.is_dir():
        from repro.shard import log_directories

        for label, directory in log_directories(root):
            logs[label or "."] = scan_log_tail(directory)

    ring: dict[str, Any] | None = None
    interrupted: list[dict[str, Any]] = []
    finale: list[dict[str, Any]] = []
    path = Path(ring_path) if ring_path is not None else Path(flight_ring_path(root))
    if path.is_file():
        try:
            recorder = FlightRecorder.open(str(path))
        except (FlightRecorderError, OSError) as exc:
            ring = {"path": str(path), "error": str(exc)}
        else:
            try:
                records = recorder.records()
            finally:
                recorder.close()
            timeline = RecoveryTimeline.from_flight_ring(records)
            for node in timeline.open_spans():
                interrupted.append(
                    {
                        "id": node.span_id,
                        "name": node.name,
                        "fields": dict(node.fields),
                    }
                )
            finale = records[-last_events:]
            ring = {
                "path": str(path),
                "records": len(records),
                "seq_range": (
                    [records[0]["seq"], records[-1]["seq"]] if records else None
                ),
            }
    have_logs = any(log["files"] for log in logs.values())
    return {
        "root": str(root),
        "ok": bool(have_logs or (ring is not None and "error" not in ring)),
        "logs": logs,
        "ring": ring,
        "interrupted_spans": interrupted,
        "final_events": finale,
    }


def _event_line(record: dict) -> str:
    kind = record.get("type", "?")
    name = record.get("name", "?")
    fields = record.get("fields") or {}
    detail = ", ".join(f"{k}={v}" for k, v in sorted(fields.items()))
    marker = {"span_start": "+", "span_end": "-", "event": "."}.get(kind, "?")
    line = f"  {record.get('seq', '?'):>8} {marker} {name}"
    if detail:
        line += f" ({detail})"
    if record.get("truncated"):
        line += " [payload truncated]"
    return line


def render_postmortem(report: dict[str, Any]) -> str:
    """The forensic narrative, as one multi-line string."""
    lines: list[str] = [f"== postmortem: {report['root']} =="]
    for name, log in sorted(report["logs"].items()):
        where = "log" if name == "." else f"log [{name}]"
        if not log["files"]:
            lines.append(f"{where}: no segment files")
            continue
        last = log["last_lsn"] if log["last_lsn"] is not None else "-"
        lines.append(
            f"{where}: {log['records']} stable records in {log['files']} "
            f"file(s), last stable LSN {last}"
        )
        for tear in log["torn_tails"]:
            lines.append(
                f"  torn tail in {tear['file']} at byte {tear['offset']}: "
                f"{tear['reason']} (recovery will truncate here)"
            )
        for error in log["errors"]:
            lines.append(f"  structural error: {error}")

    ring = report["ring"]
    if ring is None:
        lines.append("flight ring: none found")
    elif "error" in ring:
        lines.append(f"flight ring: {ring['path']} unreadable ({ring['error']})")
    else:
        span = (
            f", seq {ring['seq_range'][0]}..{ring['seq_range'][1]}"
            if ring["seq_range"]
            else ""
        )
        lines.append(
            f"flight ring: {ring['records']} surviving records{span} "
            f"({ring['path']})"
        )
        if report["interrupted_spans"]:
            lines.append("spans open at the crash (INTERRUPTED):")
            for node in report["interrupted_spans"]:
                detail = ", ".join(
                    f"{k}={v}" for k, v in sorted(node["fields"].items())
                )
                suffix = f" ({detail})" if detail else ""
                lines.append(
                    f"  span #{node['id']} {node['name']}{suffix}  [INTERRUPTED]"
                )
        else:
            lines.append("no spans were open at the crash")
        if report["final_events"]:
            lines.append(
                f"final {len(report['final_events'])} trace records before death:"
            )
            lines.extend(_event_line(r) for r in report["final_events"])
    return "\n".join(lines)
