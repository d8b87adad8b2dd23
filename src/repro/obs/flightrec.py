"""Crash flight recorder: a bounded, file-backed ring of trace records.

An in-memory trace dies with the process — exactly when its contents
matter most.  The flight recorder is a tracer sink that keeps the
newest trace records in a **fixed-size slot file** in the log directory
so a SIGKILL leaves evidence on disk:

- a 16-byte header (``FREC`` magic, format version, slot size, slot
  count) written once at creation;
- ``n_slots`` fixed-width slots, each framed as
  ``crc32(u32) | length(u32) | seq(u64) | payload`` with the payload
  zero-padded to the slot width.  Record ``i`` lives in slot
  ``i % n_slots``, so the file is a ring that overwrites oldest-first
  and never grows.

Writes are **synchronous and best-effort**: :meth:`FlightRecorder.emit`
encodes the record and lands it with a single ``pwrite`` at its slot
offset, on the emitting thread, with no fsync.  A record emitted before
a SIGKILL is therefore already in the page cache, which survives the
process; a failed ``pwrite`` is counted in ``write_errors`` and never
raised — a broken disk must not take down what it observes.  What a
crash *can* leave is a torn slot, which is why each slot carries its
own CRC: :meth:`FlightRecorder.records` simply drops slots that fail
the check.  A torn or stale slot costs one record of history, never
the file.

Reopening an existing ring (:meth:`FlightRecorder.open`) scans all
slots, validates CRCs, and resumes the sequence after the highest
surviving ``seq`` — so the ring accumulates history across restarts of
the same deployment, and ``repro postmortem`` can read the final
moments of a process that no longer exists.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Iterator

FLIGHT_MAGIC = b"FREC"
FLIGHT_VERSION = 1
FLIGHT_FILENAME = "FLIGHT.ring"

_HEADER = struct.Struct("<4sHxxII")  # magic, version, pad, slot_size, n_slots
_SLOT_FRAME = struct.Struct("<IIQ")  # crc32, payload length, seq


class FlightRecorderError(RuntimeError):
    """The ring file is structurally unusable (bad magic/version/geometry)."""


class FlightRecorder:
    """A fixed-size on-disk ring of JSON trace records — and a tracer sink.

    Create a fresh ring with :meth:`create`, reattach to a survivor with
    :meth:`open`, or do whichever applies with :meth:`attach`, then hand
    it to a :class:`~repro.obs.trace.Tracer`.  :meth:`emit` is
    thread-safe; readers should use :meth:`records` (oldest→newest by
    ``seq``).
    """

    def __init__(self, path: str, fd: int, slot_size: int, n_slots: int, next_seq: int):
        self.path = str(path)
        self._fd = fd
        self.slot_size = slot_size
        self.n_slots = n_slots
        self.next_seq = next_seq
        self.truncated_payloads = 0
        self.write_errors = 0
        self._lock = threading.Lock()
        self._closed = False

    # -- construction --------------------------------------------------

    @classmethod
    def create(cls, path: str, slot_size: int = 512, n_slots: int = 2048) -> "FlightRecorder":
        """Create (or overwrite) a ring file sized ``slot_size * n_slots``."""
        if slot_size < _SLOT_FRAME.size + 2:
            raise FlightRecorderError(f"slot_size {slot_size} too small")
        if n_slots < 1:
            raise FlightRecorderError("n_slots must be at least 1")
        fd = os.open(str(path), os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o644)
        os.pwrite(fd, _HEADER.pack(FLIGHT_MAGIC, FLIGHT_VERSION, slot_size, n_slots), 0)
        # Pre-size the file so every slot offset is a plain overwrite.
        os.ftruncate(fd, _HEADER.size + slot_size * n_slots)
        return cls(path, fd, slot_size, n_slots, next_seq=0)

    @classmethod
    def open(cls, path: str) -> "FlightRecorder":
        """Reattach to an existing ring, resuming after the last good seq."""
        fd = os.open(str(path), os.O_RDWR)
        try:
            slot_size, n_slots = cls._read_header(fd, path)
        except Exception:
            os.close(fd)
            raise
        recorder = cls(path, fd, slot_size, n_slots, next_seq=0)
        survivors = recorder._scan()
        if survivors:
            recorder.next_seq = max(seq for seq, _ in survivors) + 1
        return recorder

    @classmethod
    def attach(cls, path: str, slot_size: int = 512, n_slots: int = 2048) -> "FlightRecorder":
        """Open ``path`` if it is a usable ring, else create a fresh one."""
        if os.path.exists(str(path)):
            try:
                return cls.open(path)
            except (FlightRecorderError, OSError):
                pass  # unusable file: recreate below
        return cls.create(path, slot_size=slot_size, n_slots=n_slots)

    @staticmethod
    def _read_header(fd: int, path: str) -> tuple[int, int]:
        raw = os.pread(fd, _HEADER.size, 0)
        if len(raw) != _HEADER.size:
            raise FlightRecorderError(f"{path}: truncated flight-ring header")
        magic, version, slot_size, n_slots = _HEADER.unpack(raw)
        if magic != FLIGHT_MAGIC:
            raise FlightRecorderError(f"{path}: bad magic {magic!r}")
        if version != FLIGHT_VERSION:
            raise FlightRecorderError(f"{path}: unsupported version {version}")
        if slot_size < _SLOT_FRAME.size + 2 or n_slots < 1:
            raise FlightRecorderError(f"{path}: bad geometry {slot_size}x{n_slots}")
        return slot_size, n_slots

    # -- writing -------------------------------------------------------

    def emit(self, record: dict) -> None:
        """Write one record into the next slot (overwriting the oldest).

        Payloads longer than the slot allows are degraded to a stub that
        keeps the record's identity (``seq``/``type``/``name``) — the
        ring prefers a thin record over a missing one.  A failed write
        costs that record and bumps ``write_errors``; it never raises.
        """
        max_payload = self.slot_size - _SLOT_FRAME.size
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True, default=str
        ).encode("utf-8")
        if len(payload) > max_payload:
            stub = {
                "seq": record.get("seq"),
                "type": record.get("type"),
                "name": record.get("name"),
                "truncated": True,
            }
            if record.get("type") in ("span_start", "span_end"):
                stub["id"] = record.get("id")
                stub["parent"] = record.get("parent")
            else:
                stub["span"] = record.get("span")
            payload = json.dumps(stub, separators=(",", ":")).encode("utf-8")[:max_payload]
            self.truncated_payloads += 1
        with self._lock:
            if self._closed:
                return
            seq = self.next_seq
            self.next_seq += 1
            crc = zlib.crc32(_SLOT_FRAME.pack(0, len(payload), seq)[4:] + payload)
            frame = _SLOT_FRAME.pack(crc, len(payload), seq) + payload
            frame = frame.ljust(self.slot_size, b"\x00")
            offset = _HEADER.size + (seq % self.n_slots) * self.slot_size
            try:
                os.pwrite(self._fd, frame, offset)
            except OSError:
                self.write_errors += 1

    # -- reading -------------------------------------------------------

    def _scan(self) -> list[tuple[int, dict]]:
        survivors: list[tuple[int, dict]] = []
        for index in range(self.n_slots):
            raw = os.pread(self._fd, self.slot_size, _HEADER.size + index * self.slot_size)
            if len(raw) < _SLOT_FRAME.size:
                continue
            crc, length, seq = _SLOT_FRAME.unpack_from(raw)
            if length == 0 or length > self.slot_size - _SLOT_FRAME.size:
                continue
            payload = raw[_SLOT_FRAME.size:_SLOT_FRAME.size + length]
            if zlib.crc32(raw[4:_SLOT_FRAME.size] + payload) != crc:
                continue  # torn slot: one record lost, ring intact
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            if isinstance(record, dict):
                survivors.append((seq, record))
        survivors.sort(key=lambda pair: pair[0])
        return survivors

    def records(self) -> list[dict]:
        """Every surviving record, oldest→newest by ring sequence."""
        with self._lock:
            return [record for _, record in self._scan()]

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records())

    def __len__(self) -> int:
        with self._lock:
            return len(self._scan())

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the file descriptor (idempotent, no fsync by design)."""
        with self._lock:
            if not self._closed:
                self._closed = True
                os.close(self._fd)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({self.path!r}, {self.slot_size}x{self.n_slots}, "
            f"next_seq={self.next_seq})"
        )


def flight_ring_path(log_dir: str) -> str:
    """The canonical flight-ring location for a log directory."""
    return os.path.join(str(log_dir), FLIGHT_FILENAME)
