"""The binary wire format: struct-packed, versioned, CRC-guarded.

A log that survives a crash can only contain *bytes*, so every payload
in :mod:`repro.logmgr.records` has an exact binary encoding here.  The
format is deliberately boring — little-endian ``struct`` packing, no
compression, no pointers — because boring formats are the ones a
recovery scan can trust after a kill -9.

Record frame (what :class:`~repro.logmgr.filelog.FileLogStore` appends
to a segment file)::

    u32 body_length | u32 crc32(body) | body

    body = u8 format_version | u64 lsn | tagged payload | tagged labels

One frame per record, one CRC per record — the per-frame CRC is what
gives the torn-tail rule *record* granularity, so the batched append
path (:func:`encode_window`) keeps it: it packs a whole group-commit
window of frames into one pre-grown ``bytearray`` for one downstream
``write``, byte-identical to concatenated :func:`encode_record`
frames.  What it batches away is everything that made per-record
encoding slow in Python — per-record ``bytes`` allocations, repeated
string/tag encoding (memoized), and per-record syscalls.

The **torn-tail rule**: a frame whose length field runs past the end of
the file, or whose body fails the CRC check, ends the stable log — the
decoder reports the tear and refuses to look further, because bytes
after a torn record are firmware noise, not history.  This is how a
write interrupted mid-``fsync`` is detected and discarded at the next
cold start.  The frame checks that implement it exist once, in
:func:`walk_frames`; :func:`read_frame_at` is one step of that walk, and
every reader of a segment file reaches both through
:class:`~repro.logmgr.filelog.SegmentReader`, which alone decides when a
verified seal (:mod:`repro.logmgr.pageindex`'s sidecar header) lets the
walk skip per-frame CRCs.

Values inside payloads (cell contents, action arguments, label values)
are encoded with a small tagged value codec covering ``None``, bools,
ints, floats, strings, bytes, tuples, lists, and dicts — everything the
engines, the B-tree, and the checkpoint snapshots actually log — plus
the physical tombstone (:data:`~repro.logmgr.records.TOMBSTONE`).  A
payload holding anything else (e.g. an abstract theory
:class:`~repro.core.model.Operation`) raises :class:`CodecError`; such
logs are in-memory-only by construction.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from repro.logmgr.records import (
    CheckpointRecord,
    LogRecord,
    LogicalRedo,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
    TOMBSTONE,
)

FORMAT_VERSION = 1

# Segment-file header: magic, format version, base LSN of the file.
FILE_MAGIC = b"RLOG"
_FILE_HEADER = struct.Struct("<4sBQ")
FILE_HEADER_SIZE = _FILE_HEADER.size

# Frame prefix: body length, CRC32 of the body.
_FRAME_PREFIX = struct.Struct("<II")
FRAME_PREFIX_SIZE = _FRAME_PREFIX.size

_BODY_PREFIX = struct.Struct("<BQ")

# Both prefixes at once — the scan hot loop reads a frame's length,
# CRC, format version, and LSN with a single 17-byte unpack.
_FRAME_AND_BODY_PREFIX = struct.Struct("<IIBQ")

# Per-record framing overhead around the ``payload | labels`` region:
# the 8-byte frame prefix plus the 9-byte ``version | lsn`` body prefix.
# A record's byte count is the length of its encoded frame
# (``LogRecord.size_bytes``); a record read back from a file holds only
# its region, so it counts ``region + RECORD_OVERHEAD`` — the same number.
RECORD_OVERHEAD = FRAME_PREFIX_SIZE + _BODY_PREFIX.size  # 17

# ----------------------------------------------------------------------
# Tags
# ----------------------------------------------------------------------

# Value tags (one byte each).
_V_NONE = 0x00
_V_TRUE = 0x01
_V_FALSE = 0x02
_V_INT = 0x03       # i64
_V_BIGINT = 0x04    # u32 length + signed big-endian bytes
_V_FLOAT = 0x05     # f64
_V_STR = 0x06       # u32 length + utf-8
_V_BYTES = 0x07     # u32 length + raw
_V_TUPLE = 0x08     # u32 count + values
_V_LIST = 0x09      # u32 count + values
_V_DICT = 0x0A      # u32 count + key/value pairs
_V_TOMBSTONE = 0x0B  # records.TOMBSTONE: a physical cell's removal

# Payload tags.
PAYLOAD_PHYSICAL = 0x11
PAYLOAD_PHYSIOLOGICAL = 0x12
PAYLOAD_LOGICAL = 0x13
PAYLOAD_MULTIPAGE = 0x14
PAYLOAD_CHECKPOINT = 0x15

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class CodecError(ValueError):
    """A payload or value the wire format cannot represent (encode side)
    or malformed bytes that are not a clean torn tail (decode side)."""


class TornTail(Exception):
    """A frame failed the length or CRC check: the stable log ends here.

    Carries the byte ``offset`` of the tear and a human ``reason`` —
    the decode loop raises it, and scanners catch it to stop cleanly.
    """

    def __init__(self, offset: int, reason: str):
        super().__init__(f"torn log tail at byte {offset}: {reason}")
        self.offset = offset
        self.reason = reason


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------

def encode_value(value: Any, out: bytearray) -> None:
    """Append the tagged encoding of ``value`` to ``out``.

    Bools are checked before ints (``bool`` is an ``int`` subclass);
    ints outside i64 take the big-int path so checkpoint counters can
    never silently wrap.
    """
    if value is None:
        out += _U8.pack(_V_NONE)
    elif value is True:
        out += _U8.pack(_V_TRUE)
    elif value is False:
        out += _U8.pack(_V_FALSE)
    elif isinstance(value, int):
        if _I64_MIN <= value <= _I64_MAX:
            out += _U8.pack(_V_INT)
            out += _I64.pack(value)
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _U8.pack(_V_BIGINT)
            out += _U32.pack(len(raw))
            out += raw
    elif isinstance(value, float):
        out += _U8.pack(_V_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += _U8.pack(_V_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, bytes):
        out += _U8.pack(_V_BYTES)
        out += _U32.pack(len(value))
        out += value
    elif isinstance(value, tuple):
        out += _U8.pack(_V_TUPLE)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, list):
        out += _U8.pack(_V_LIST)
        out += _U32.pack(len(value))
        for item in value:
            encode_value(item, out)
    elif isinstance(value, dict):
        out += _U8.pack(_V_DICT)
        out += _U32.pack(len(value))
        for key, item in value.items():
            encode_value(key, out)
            encode_value(item, out)
    elif value is TOMBSTONE:
        out += _U8.pack(_V_TOMBSTONE)
    else:
        raise CodecError(
            f"value of type {type(value).__name__!r} has no wire encoding"
        )


def decode_value(buf: bytes, offset: int) -> tuple[Any, int]:
    """Decode one tagged value at ``offset``; returns (value, next offset)."""
    try:
        tag = buf[offset]
    except IndexError:
        raise CodecError(f"value truncated at byte {offset}") from None
    offset += 1
    if tag == _V_NONE:
        return None, offset
    if tag == _V_TRUE:
        return True, offset
    if tag == _V_FALSE:
        return False, offset
    try:
        if tag == _V_INT:
            return _I64.unpack_from(buf, offset)[0], offset + 8
        if tag == _V_FLOAT:
            return _F64.unpack_from(buf, offset)[0], offset + 8
        if tag in (_V_BIGINT, _V_STR, _V_BYTES):
            (length,) = _U32.unpack_from(buf, offset)
            offset += 4
            raw = bytes(buf[offset : offset + length])
            if len(raw) != length:
                raise CodecError(f"value truncated at byte {offset}")
            offset += length
            if tag == _V_BIGINT:
                return int.from_bytes(raw, "big", signed=True), offset
            if tag == _V_STR:
                return raw.decode("utf-8"), offset
            return raw, offset
        if tag in (_V_TUPLE, _V_LIST):
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = decode_value(buf, offset)
                items.append(item)
            return (tuple(items) if tag == _V_TUPLE else items), offset
        if tag == _V_DICT:
            (count,) = _U32.unpack_from(buf, offset)
            offset += 4
            result: dict = {}
            for _ in range(count):
                key, offset = decode_value(buf, offset)
                item, offset = decode_value(buf, offset)
                result[key] = item
            return result, offset
    except struct.error:
        raise CodecError(f"value truncated at byte {offset}") from None
    if tag == _V_TOMBSTONE:
        return TOMBSTONE, offset
    raise CodecError(f"unknown value tag 0x{tag:02x} at byte {offset - 1}")


# ----------------------------------------------------------------------
# Payload codec
# ----------------------------------------------------------------------

def _encode_action(action: PageAction, out: bytearray) -> None:
    encode_value(action.kind, out)
    encode_value(action.args, out)


def _decode_action(buf: bytes, offset: int) -> tuple[PageAction, int]:
    kind, offset = decode_value(buf, offset)
    args, offset = decode_value(buf, offset)
    return PageAction(kind, args), offset


def payload_tag(payload: Any) -> int:
    """The wire tag for ``payload`` (CodecError for unencodable types)."""
    if isinstance(payload, PhysicalRedo):
        return PAYLOAD_PHYSICAL
    if isinstance(payload, PhysiologicalRedo):
        return PAYLOAD_PHYSIOLOGICAL
    if isinstance(payload, LogicalRedo):
        return PAYLOAD_LOGICAL
    if isinstance(payload, MultiPageRedo):
        return PAYLOAD_MULTIPAGE
    if isinstance(payload, CheckpointRecord):
        return PAYLOAD_CHECKPOINT
    raise CodecError(
        f"payload of type {type(payload).__name__!r} has no wire encoding "
        f"(only the §6 record types are durable)"
    )


def encode_payload(payload: Any, out: bytearray) -> None:
    """Append ``u8 tag`` plus the payload body to ``out``."""
    tag = payload_tag(payload)
    out += _U8.pack(tag)
    if tag == PAYLOAD_PHYSICAL:
        encode_value(payload.page_id, out)
        encode_value(payload.cells, out)
        encode_value(payload.whole_page, out)
    elif tag == PAYLOAD_PHYSIOLOGICAL:
        encode_value(payload.page_id, out)
        _encode_action(payload.action, out)
    elif tag == PAYLOAD_LOGICAL:
        encode_value(payload.description, out)
    elif tag == PAYLOAD_MULTIPAGE:
        encode_value(payload.read_page_ids, out)
        out += _U32.pack(len(payload.writes))
        for page_id, actions in payload.writes.items():
            encode_value(page_id, out)
            out += _U32.pack(len(actions))
            for action in actions:
                _encode_action(action, out)
    else:  # PAYLOAD_CHECKPOINT
        encode_value(payload.data, out)


def decode_payload(buf: bytes, offset: int) -> tuple[Any, int]:
    """Decode one tagged payload at ``offset``; returns (payload, next)."""
    try:
        tag = buf[offset]
    except IndexError:
        raise CodecError(f"payload truncated at byte {offset}") from None
    offset += 1
    if tag == PAYLOAD_PHYSICAL:
        page_id, offset = decode_value(buf, offset)
        cells, offset = decode_value(buf, offset)
        whole_page, offset = decode_value(buf, offset)
        return PhysicalRedo(page_id, cells, whole_page), offset
    if tag == PAYLOAD_PHYSIOLOGICAL:
        page_id, offset = decode_value(buf, offset)
        action, offset = _decode_action(buf, offset)
        return PhysiologicalRedo(page_id, action), offset
    if tag == PAYLOAD_LOGICAL:
        description, offset = decode_value(buf, offset)
        return LogicalRedo(description), offset
    if tag == PAYLOAD_MULTIPAGE:
        read_page_ids, offset = decode_value(buf, offset)
        try:
            (n_writes,) = _U32.unpack_from(buf, offset)
        except struct.error:
            raise CodecError(f"payload truncated at byte {offset}") from None
        offset += 4
        writes: dict = {}
        for _ in range(n_writes):
            page_id, offset = decode_value(buf, offset)
            try:
                (n_actions,) = _U32.unpack_from(buf, offset)
            except struct.error:
                raise CodecError(f"payload truncated at byte {offset}") from None
            offset += 4
            actions = []
            for _ in range(n_actions):
                action, offset = _decode_action(buf, offset)
                actions.append(action)
            writes[page_id] = tuple(actions)
        return MultiPageRedo(read_page_ids, writes), offset
    if tag == PAYLOAD_CHECKPOINT:
        data, offset = decode_value(buf, offset)
        return CheckpointRecord(data), offset
    raise CodecError(f"unknown payload tag 0x{tag:02x} at byte {offset - 1}")


# ----------------------------------------------------------------------
# Record frames
# ----------------------------------------------------------------------

def encode_record(record: LogRecord) -> bytes:
    """The full wire frame for ``record`` (prefix + CRC'd body)."""
    body = bytearray(_BODY_PREFIX.pack(FORMAT_VERSION, record.lsn))
    encode_payload(record.payload, body)
    encode_value(record.labels, body)
    return _FRAME_PREFIX.pack(len(body), zlib.crc32(body)) + bytes(body)


def encode_file_header(base_lsn: int) -> bytes:
    """The segment-file header: magic, format version, base LSN."""
    return _FILE_HEADER.pack(FILE_MAGIC, FORMAT_VERSION, base_lsn)


def decode_file_header(buf: bytes) -> int:
    """Validate a segment-file header and return its base LSN."""
    if len(buf) < FILE_HEADER_SIZE:
        raise CodecError("segment file shorter than its header")
    magic, version, base_lsn = _FILE_HEADER.unpack_from(buf, 0)
    if magic != FILE_MAGIC:
        raise CodecError(f"bad segment magic {magic!r}")
    if version != FORMAT_VERSION:
        raise CodecError(f"unsupported segment format version {version}")
    return base_lsn


# ----------------------------------------------------------------------
# Batched window encoding (the append hot path)
# ----------------------------------------------------------------------

# The window encoder is the append hot path: one pass, one pre-sized
# bytearray, one crc32 for the whole window.  Repeated strings (page
# ids, action kinds, keys) dominate real record streams, so their tagged
# encodings are memoized; the caches are bounded and shared process-wide
# (they hold pure functions of their keys, so sharing is safe).
_STR_CACHE: dict[str, bytes] = {}
_PHYSIO_PREFIX_CACHE: dict[str, bytes] = {}
_STR_CACHE_LIMIT = 4096
_CACHED_STR_MAX = 128
_TUPLE_HEADERS = [_U8.pack(_V_TUPLE) + _U32.pack(n) for n in range(9)]
_EMPTY_DICT = _U8.pack(_V_DICT) + _U32.pack(0)
_INT_TAG = _U8.pack(_V_INT)
_PHYSIO_TAG = _U8.pack(PAYLOAD_PHYSIOLOGICAL)
_PHYSICAL_TAG = _U8.pack(PAYLOAD_PHYSICAL)
_LOGICAL_TAG = _U8.pack(PAYLOAD_LOGICAL)


def _cached_str(value: str, cache: dict, prefix: bytes = b"") -> bytes:
    """Memoized ``prefix + tagged-string`` encoding (bounded cache)."""
    raw = value.encode("utf-8")
    encoded = prefix + _U8.pack(_V_STR) + _U32.pack(len(raw)) + raw
    if len(raw) <= _CACHED_STR_MAX:
        if len(cache) >= _STR_CACHE_LIMIT:
            cache.clear()
        cache[value] = encoded
    return encoded


_FRAME_PAD = bytes(FRAME_PREFIX_SIZE)


def encode_window(records) -> bytearray:
    """Encode a dense LSN window of records as one packed byte blob.

    The append hot path: every frame in the window lands in one
    pre-grown ``bytearray`` (one allocation curve, one downstream
    ``write``) instead of one ``bytes`` object per record.  Each record
    still gets its own v1 frame with its own CRC — per-frame CRCs are
    what give the torn-tail rule *record* granularity (a tear inside a
    window must only lose the frames at and after the tear, and the
    surviving prefix must stay appendable without rewriting any frame
    header) — but the framing, tagging, and string encoding are batched
    and memoized, which is where the per-record Python cost actually
    lived.  Output bytes are identical to concatenated
    :func:`encode_record` frames.

    Raises :class:`CodecError` for an unencodable payload or a
    non-dense window (the manager hands over contiguous slices of its
    pending tail, so density is an invariant worth asserting cheaply).
    """
    n = len(records)
    if n == 0:
        raise CodecError("cannot encode an empty window")
    base_lsn = records[0].lsn
    if records[-1].lsn - base_lsn != n - 1:
        raise CodecError(
            f"window is not LSN-dense: [{base_lsn}..{records[-1].lsn}] "
            f"for {n} records"
        )
    out = bytearray()
    ln = len
    sc, pc = _STR_CACHE, _PHYSIO_PREFIX_CACHE
    i64 = _I64.pack
    tuple_headers = _TUPLE_HEADERS
    body_prefix = _BODY_PREFIX.pack
    frame_fixup = _FRAME_PREFIX.pack_into
    crc32 = zlib.crc32
    setter = object.__setattr__
    for record in records:
        frame_start = ln(out)
        out += _FRAME_PAD
        out += body_prefix(FORMAT_VERSION, record.lsn)
        payload = record.payload
        kind_of = type(payload)
        if kind_of is PhysiologicalRedo:
            # tag + page_id, then action kind, then the args tuple —
            # each piece memoized or packed straight into ``out``.
            pid = payload.page_id
            try:
                out += pc[pid]
            except (KeyError, TypeError):
                if type(pid) is str:
                    out += _cached_str(pid, pc, _PHYSIO_TAG)
                else:
                    out += _PHYSIO_TAG
                    encode_value(pid, out)
            action = payload.action
            kind = action.kind
            try:
                out += sc[kind]
            except (KeyError, TypeError):
                if type(kind) is str:
                    out += _cached_str(kind, sc)
                else:
                    encode_value(kind, out)
            args = action.args
            n_args = ln(args)
            if n_args < 9:
                out += tuple_headers[n_args]
            else:
                out += _U8.pack(_V_TUPLE) + _U32.pack(n_args)
            for item in args:
                t = type(item)
                if t is int:
                    try:
                        out += _INT_TAG
                        out += i64(item)
                    except struct.error:
                        del out[-1:]
                        encode_value(item, out)
                elif t is str:
                    try:
                        out += sc[item]
                    except KeyError:
                        out += _cached_str(item, sc)
                else:
                    encode_value(item, out)
        elif kind_of is PhysicalRedo:
            out += _PHYSICAL_TAG
            pid = payload.page_id
            if type(pid) is str:
                try:
                    out += sc[pid]
                except KeyError:
                    out += _cached_str(pid, sc)
            else:
                encode_value(pid, out)
            encode_value(payload.cells, out)
            encode_value(payload.whole_page, out)
        elif kind_of is LogicalRedo:
            out += _LOGICAL_TAG
            encode_value(payload.description, out)
        else:
            encode_payload(payload, out)
        labels = record.labels
        if labels:
            encode_value(labels, out)
        else:
            out += _EMPTY_DICT
        body_start = frame_start + FRAME_PREFIX_SIZE
        body_len = ln(out) - body_start
        frame_fixup(
            out, frame_start, body_len, crc32(memoryview(out)[body_start:])
        )
        # Cache the record's frame size (``LogRecord.size_bytes``)
        # while we have it for free.
        setter(record, "_frame_size", body_len + FRAME_PREFIX_SIZE)
    return out


# ----------------------------------------------------------------------
# The zero-copy frame walker (the one shared scanner)
# ----------------------------------------------------------------------

def _raise_tear(buf, offset: int, end: int, verify_crc: bool):
    """Diagnose a frame too short for the combined 17-byte prefix unpack
    (only possible in the last few bytes of a region), raising the same
    :class:`TornTail` the check-by-check walk would have."""
    if end - offset < FRAME_PREFIX_SIZE:
        raise TornTail(offset, "truncated frame prefix")
    length, crc = _FRAME_PREFIX.unpack_from(buf, offset)
    body_start = offset + FRAME_PREFIX_SIZE
    if end - body_start < length:
        raise TornTail(
            offset, f"frame body truncated ({end - body_start}/{length} bytes)"
        )
    if (
        verify_crc
        and zlib.crc32(memoryview(buf)[body_start : body_start + length]) != crc
    ):
        raise TornTail(offset, "crc mismatch")
    # The combined unpack failed with >= 8 bytes of frame present, so the
    # body stops short of a full record header.
    raise TornTail(offset, "frame body truncated (no record header)")


def walk_frames(buf, offset: int = FILE_HEADER_SIZE, end: int | None = None,
                verify_crc: bool = True, offsets=None):
    """Walk wire frames structurally: yields ``(lsn, body_lo, body_hi)``
    per frame, where ``buf[body_lo:body_hi]`` is the record's
    ``payload | labels`` region (after the frame and body prefixes).
    No record bytes are copied or decoded — the caller slices lazily.

    By default the walk is sequential from ``offset`` to ``end``.  With
    ``offsets`` it instead visits exactly those frame starts — the
    random-access form the per-page redo index relies on: a page's log
    chain is fetched frame by frame without walking, or decoding,
    anything in between.  An offset that is not a frame boundary fails
    the same checks (a stale index entry, treated like damage).

    Raises :class:`TornTail` at a damaged or truncated frame and
    :class:`CodecError` for well-checksummed garbage.  With
    ``verify_crc=False`` (a caller already verified the segment footer)
    the walk trusts length fields and touches only the 17 prefix bytes
    per record.
    """
    mv = memoryview(buf)
    if end is None:
        end = len(buf)
    crc32 = zlib.crc32
    unpack_frame = _FRAME_AND_BODY_PREFIX.unpack_from
    body_prefix_size = _BODY_PREFIX.size
    hops = iter(offsets) if offsets is not None else None
    while True:
        if hops is not None:
            offset = next(hops, None)
            if offset is None:
                return
        elif offset >= end:
            return
        # One 17-byte unpack covers both prefixes (frame + record header).
        # It may read garbage past ``end`` or a short frame — the checks
        # below validate before any of the values are trusted.
        try:
            length, crc, version, lsn = unpack_frame(buf, offset)
        except struct.error:
            _raise_tear(buf, offset, end, verify_crc)
        if end - offset < FRAME_PREFIX_SIZE:
            raise TornTail(offset, "truncated frame prefix")
        body_start = offset + FRAME_PREFIX_SIZE
        if end - body_start < length:
            raise TornTail(
                offset, f"frame body truncated ({end - body_start}/{length} bytes)"
            )
        if verify_crc and crc32(mv[body_start : body_start + length]) != crc:
            raise TornTail(offset, "crc mismatch")
        if length < body_prefix_size:
            raise TornTail(offset, "frame body truncated (no record header)")
        if version != FORMAT_VERSION:
            raise CodecError(
                f"unsupported format version {version} at byte {offset}"
            )
        yield lsn, body_start + body_prefix_size, body_start + length
        offset = body_start + length


def read_frame_at(buf, offset: int, verify_crc: bool = True):
    """Exactly one frame at a known byte ``offset``, as
    ``(lsn, body_lo, body_hi)`` — one step of :func:`walk_frames`, so
    the frame checks exist once."""
    return next(walk_frames(buf, verify_crc=verify_crc, offsets=(offset,)))


_UNSET = object()


class LazyRecord:
    """A log record that defers payload decoding until someone asks.

    Scans that only count, filter by LSN, or peek at the payload *type*
    never pay the tagged-value decode; consumers that do touch
    ``payload``/``labels`` get them decoded once and cached.  The body
    bytes are copied out of the scan buffer at construction, so a
    record outlives the mmap it was read from.

    Equality and hashing match :class:`LogRecord` — ``(lsn, payload)``,
    labels excluded — so mixed comparisons work in either direction
    (``LogRecord.__eq__`` returns NotImplemented for foreign classes,
    which hands control to this one).
    """

    __slots__ = ("lsn", "_body", "_payload", "_labels")

    def __init__(self, lsn: int, body: bytes):
        self.lsn = lsn
        self._body = body
        self._payload = _UNSET
        self._labels = _UNSET

    def _decode(self) -> None:
        body = self._body
        payload, pos = decode_payload(body, 0)
        labels, pos = decode_value(body, pos)
        if pos != len(body):
            raise CodecError(
                f"record LSN {self.lsn} has {len(body) - pos} trailing bytes "
                f"after decode"
            )
        self._payload, self._labels = payload, labels

    @property
    def payload(self) -> Any:
        if self._payload is _UNSET:
            self._decode()
        return self._payload

    @property
    def labels(self) -> dict:
        if self._labels is _UNSET:
            self._decode()
        return self._labels

    @property
    def operation(self) -> Any:
        """The payload under its theory-core name (mirrors LogRecord)."""
        return self.payload

    @property
    def payload_tag(self) -> int:
        """The wire tag of the payload — readable without decoding."""
        return self._body[0]

    def size_bytes(self) -> int:
        """The encoded frame's length: the body plus the frame overhead
        (the same number as :meth:`LogRecord.size_bytes`)."""
        return len(self._body) + RECORD_OVERHEAD

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        try:
            return self.lsn == other.lsn and self.payload == other.payload
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lsn, self.payload))

    def __str__(self) -> str:
        return f"[{self.lsn}] {self.payload}"

    def __repr__(self) -> str:
        return f"LazyRecord(lsn={self.lsn}, {len(self._body)}B)"
