"""The per-page redo index, and the one sidecar file that carries it.

Recovery's eager form decodes the entire stable suffix even when it
needs a single page's history.  This module gives every sealed segment
one sidecar (``<segment>.pages``) mapping ``page_id -> [(offset, lsn),
...]`` — the byte offset of each frame that writes the page — so a cold
start can fetch exactly one page's log chain without decoding unrelated
frames.  Sidecars are written at seal time from the still-resident
records (zero extra reads); segments without one (unsealed tails, every
pre-sidecar directory) are indexed by a single structural scan instead,
so the index is a pure accelerator: same entries either way.

Sidecar layout (version 2)::

    "RPGX" | u8 version | u64 base_lsn | u64 region_len | u32 region_crc
          | u32 payload_len | u32 crc32(payload) | payload

The fixed header is the segment's **seal**: it names the exact bytes the
sidecar describes, and :func:`verify_seal` checks it against a segment
in one C-speed ``crc32`` pass, after which the frame walk trusts length
fields and skips every per-frame CRC.  A missing, stale (the file grew
or shrank since), or damaged sidecar degrades to the per-frame walk and
the rebuild scan: same records, same tears, just slower.  A version-1
sidecar (no ``region_crc``) fails the version check, so a directory
written before the seal moved here reads like a pre-sidecar one.
Sidecars are written without an fsync; losing one costs a slow scan,
never a record.

``payload`` is the tagged-value encoding (the codec's own value format)
of ``(pages, edges)``:

- ``pages``: ``{page_id: packed}`` where ``packed`` is the struct-packed
  (``<q``) flat interleaved ``offset0, lsn0, offset1, lsn1, ...`` list,
  offsets ascending — one bytes value per page, so decoding a sidecar
  costs O(pages), not O(entries).  Checkpoint records
  index under :data:`CHECKPOINT_PAGE` and logical records under
  :data:`LOGICAL_PAGE` (names no data page can collide with), so
  analysis can fetch checkpoints by offset and logical recovery gets a
  single global chain.
- ``edges``: ``[(lsn, read_page_ids, write_page_ids), ...]`` — one entry
  per multi-page (§6.4) record.  These are the only conflict edges
  between chains: a faulted page's ancestry (the chain prefixes it
  depends on, :mod:`repro.methods.lazy`) is worked out from them, so a
  replayed read sees its page at the record's LSN, not its final state.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple

from repro.logmgr.codec import (
    FILE_HEADER_SIZE,
    RECORD_OVERHEAD,
    PAYLOAD_LOGICAL,
    PAYLOAD_MULTIPAGE,
    PAYLOAD_PHYSICAL,
    PAYLOAD_PHYSIOLOGICAL,
    TornTail,
    CodecError,
    decode_payload,
    decode_value,
    encode_value,
    walk_frames,
)
from repro.logmgr.records import (
    CheckpointRecord,
    LogicalRedo,
    MultiPageRedo,
    PhysicalRedo,
    PhysiologicalRedo,
)

PAGES_SUFFIX = ".pages"
PAGES_MAGIC = b"RPGX"
PAGES_VERSION = 2

# Pseudo-pages for record kinds that have no single data page.  Data
# pages are ``data%03d`` (and never start with "@"), so no collision.
CHECKPOINT_PAGE = "@checkpoint"
LOGICAL_PAGE = "@logical"

_PAGES_HEADER = struct.Struct("<4sBQQIII")
PAGES_HEADER_SIZE = _PAGES_HEADER.size

# The LSN of a ``(segment_base, offset, lsn)`` chain entry.
ENTRY_LSN = itemgetter(2)


class SegmentPageIndex(NamedTuple):
    """One segment's page index: where each page's frames live."""

    base_lsn: int
    region_len: int  # frame-region bytes covered (staleness tie)
    pages: dict  # page_id -> flat [offset0, lsn0, offset1, lsn1, ...]
    edges: list  # [(lsn, read_page_ids, write_page_ids), ...]


def _classify_record(record):
    """``(written_page_ids, edge_or_None)`` for one resident record.

    Lazy records are classified by wire tag so a tail scan stays
    decode-free for single-page records (only the page id is decoded);
    multi-page records decode fully (they are rare and carry the edge).
    """
    body = getattr(record, "_body", None)
    if body is not None:
        tag = body[0]
        if tag == PAYLOAD_PHYSIOLOGICAL or tag == PAYLOAD_PHYSICAL:
            return (decode_value(body, 1)[0],), None
        if tag == PAYLOAD_MULTIPAGE:
            payload = record.payload
            return tuple(payload.writes), (
                tuple(payload.read_page_ids),
                tuple(payload.writes),
            )
        if tag == PAYLOAD_LOGICAL:
            return (LOGICAL_PAGE,), None
        return (CHECKPOINT_PAGE,), None
    payload = record.payload
    if isinstance(payload, (PhysiologicalRedo, PhysicalRedo)):
        return (payload.page_id,), None
    if isinstance(payload, MultiPageRedo):
        return tuple(payload.writes), (
            tuple(payload.read_page_ids),
            tuple(payload.writes),
        )
    if isinstance(payload, LogicalRedo):
        return (LOGICAL_PAGE,), None
    if isinstance(payload, CheckpointRecord):
        return (CHECKPOINT_PAGE,), None
    return (), None  # undurable payload (in-memory log only): unindexed


def index_records(base_lsn: int, records: Iterable) -> SegmentPageIndex:
    """Build a segment's page index from its resident records.

    Frame offsets are the running sum of exact frame sizes from the file
    header — ``record.size_bytes()`` *is* the frame length by the byte-
    accounting contract — so this matches what a scan of the file would
    find, without touching the file.  This is the seal-time path: the
    records are still in memory, so indexing costs zero reads.
    """
    pages: dict = {}
    edges: list = []
    offset = FILE_HEADER_SIZE
    for record in records:
        written, edge = _classify_record(record)
        for page_id in written:
            try:
                chain = pages[page_id]
            except KeyError:
                chain = pages[page_id] = []
            chain.append(offset)
            chain.append(record.lsn)
        if edge is not None:
            edges.append((record.lsn, edge[0], edge[1]))
        offset += record.size_bytes()
    return SegmentPageIndex(base_lsn, offset - FILE_HEADER_SIZE, pages, edges)


def index_buffer(
    buf, base_lsn: int, end: int | None = None, verify_crc: bool = True
) -> SegmentPageIndex:
    """Build a segment's page index by scanning its bytes — the fallback
    for unsealed tails and pre-sidecar directories.  One structural walk;
    single-page records decode only their page id, and a torn tail ends
    the index exactly where it ends the log."""
    pages: dict = {}
    edges: list = []
    last = FILE_HEADER_SIZE
    try:
        for lsn, lo, hi in walk_frames(buf, end=end, verify_crc=verify_crc):
            offset = lo - RECORD_OVERHEAD  # frame start, not body start
            tag = buf[lo]
            if tag == PAYLOAD_PHYSIOLOGICAL or tag == PAYLOAD_PHYSICAL:
                written = (decode_value(buf, lo + 1)[0],)
            elif tag == PAYLOAD_MULTIPAGE:
                payload, _ = decode_payload(buf, lo)
                written = tuple(payload.writes)
                edges.append(
                    (lsn, tuple(payload.read_page_ids), tuple(payload.writes))
                )
            elif tag == PAYLOAD_LOGICAL:
                written = (LOGICAL_PAGE,)
            else:
                written = (CHECKPOINT_PAGE,)
            for page_id in written:
                try:
                    chain = pages[page_id]
                except KeyError:
                    chain = pages[page_id] = []
                chain.append(offset)
                chain.append(lsn)
            last = hi
    except TornTail:
        pass
    return SegmentPageIndex(base_lsn, last - FILE_HEADER_SIZE, pages, edges)


def encode_page_index(index: SegmentPageIndex, region_crc: int) -> bytes:
    """The sidecar bytes for one segment: its seal (``index.base_lsn``,
    ``index.region_len`` and the frame region's CRC) and its page index.

    Each page's flat ``[offset, lsn, ...]`` list is struct-packed into
    one bytes value rather than encoded int by int: a restart decodes a
    sidecar in O(pages), not O(entries) — measured as the difference
    between a lazy analysis dominated by sidecar decoding and one
    dominated by the (unavoidable) chain fold.
    """
    payload = bytearray()
    packed = {
        page_id: struct.pack(f"<{len(flat)}q", *flat)
        for page_id, flat in index.pages.items()
    }
    encode_value((packed, index.edges), payload)
    return (
        _PAGES_HEADER.pack(
            PAGES_MAGIC,
            PAGES_VERSION,
            index.base_lsn,
            index.region_len,
            region_crc,
            len(payload),
            zlib.crc32(payload),
        )
        + bytes(payload)
    )


def _header(blob: bytes | None) -> tuple | None:
    """The unpacked fixed header; None if short or of another version."""
    if blob is None or len(blob) < PAGES_HEADER_SIZE:
        return None
    header = _PAGES_HEADER.unpack_from(blob, 0)
    if header[0] != PAGES_MAGIC or header[1] != PAGES_VERSION:
        return None
    return header


def verify_seal(buf, base_lsn: int, header: bytes | None) -> int | None:
    """The end of the frame region when the sidecar ``header`` seals
    exactly this segment buffer (base LSN, region length, region CRC in
    one C-speed pass); else None, and the caller walks every frame."""
    fields = _header(header)
    if fields is None:
        return None
    _magic, _version, sealed_base, region_len, region_crc, _plen, _pcrc = fields
    end = FILE_HEADER_SIZE + region_len
    if sealed_base != base_lsn or end != len(buf):
        return None
    if zlib.crc32(memoryview(buf)[FILE_HEADER_SIZE:end]) != region_crc:
        return None
    return end


def parse_page_index(blob: bytes | None) -> SegmentPageIndex | None:
    """Decode a sidecar blob's page index; None for anything absent,
    damaged, or from another version (callers fall back to the rebuild
    scan).  The seal is :func:`verify_seal`'s business."""
    fields = _header(blob)
    if fields is None:
        return None
    _magic, _version, base_lsn, region_len, _region_crc, payload_len, crc = fields
    payload = blob[PAGES_HEADER_SIZE : PAGES_HEADER_SIZE + payload_len]
    if len(payload) != payload_len or zlib.crc32(payload) != crc:
        return None
    try:
        (packed, edges), _ = decode_value(payload, 0)
    except (CodecError, ValueError, struct.error, IndexError, OverflowError):
        # A CRC can match damaged bytes that were re-checksummed (or the
        # damage can live in the checksum's own preimage space); decode
        # failures of any shape mean the same thing as a bad CRC here.
        return None
    if not isinstance(packed, dict) or not isinstance(edges, list):
        return None
    pages: dict = {}
    for page_id, blob in packed.items():
        # 16 bytes per (offset, lsn) entry; anything else is damage.
        if not isinstance(blob, bytes) or len(blob) % 16:
            return None
        pages[page_id] = list(struct.unpack(f"<{len(blob) // 8}q", blob))
    return SegmentPageIndex(base_lsn, region_len, pages, edges)


class PageRedoIndex:
    """The per-page redo index over a whole log: every page's chain of
    ``(segment_base, offset, lsn)`` triples, in LSN order, plus the
    multi-page edges a faulted page's ancestry follows.

    Built segment by segment (oldest first) by
    :meth:`~repro.logmgr.manager.LogManager.page_index`, filtered to
    entries at or above a start LSN, so lazy recovery holds exactly the
    suffix it can ever replay.
    """

    def __init__(self, start_lsn: int = 0):
        self.start_lsn = start_lsn
        self._chains: dict = {}  # page_id -> [(base, offset, lsn), ...]
        self._edges: list = []  # (lsn, reads, writes)
        self.segments_indexed = 0
        self.sidecars_used = 0
        self.scans = 0

    def add_segment(self, index: SegmentPageIndex, from_sidecar: bool = False) -> None:
        """Fold one segment's index in.  Segments must arrive oldest
        first; within a segment the flat lists are offset-ascending, so
        chains stay globally LSN-sorted with no sort.

        The fold is the one unavoidable O(entries) step of a lazy
        analysis, so it runs through C-level ``zip``: a chain's LSNs
        ascend, so one look at the first LSN decides whether the whole
        chain passes the start filter (the common case — ``start_lsn``
        is at most the checkpoint, and most segments sit above it).
        """
        start = self.start_lsn
        base = index.base_lsn
        chains = self._chains
        for page_id, flat in index.pages.items():
            if not flat:
                continue
            if flat[1] >= start:  # ascending LSNs: the whole chain passes
                entries = list(zip(repeat(base), flat[0::2], flat[1::2]))
            else:
                entries = [
                    (base, flat[position], flat[position + 1])
                    for position in range(0, len(flat), 2)
                    if flat[position + 1] >= start
                ]
                if not entries:
                    continue
            chain = chains.get(page_id)
            if chain is None:
                chains[page_id] = entries
            else:
                chain.extend(entries)
        for lsn, reads, writes in index.edges:
            if lsn >= start:
                self._edges.append((lsn, reads, writes))
        self.segments_indexed += 1
        if from_sidecar:
            self.sidecars_used += 1
        else:
            self.scans += 1

    # -- queries -----------------------------------------------------------

    def pages(self) -> list:
        """Indexed page ids (pseudo-pages included), sorted."""
        return sorted(self._chains)

    def data_pages(self) -> list:
        """Indexed real data pages (pseudo-pages excluded), sorted."""
        return sorted(p for p in self._chains if not p.startswith("@"))

    def cursor(self, page_id: str, start_lsn: int = 0) -> tuple[list, int]:
        """The page's own chain (not a copy) and the position of its
        first entry at or above ``start_lsn``, found by bisection."""
        chain = self._chains.get(page_id, [])
        return chain, bisect_left(chain, start_lsn, key=ENTRY_LSN)

    def chain(self, page_id: str, start_lsn: int = 0) -> list:
        """``[(segment_base, offset, lsn), ...]`` for one page, LSN
        ascending, filtered to ``lsn >= start_lsn``."""
        chain, position = self.cursor(page_id, start_lsn)
        return chain[position:]

    @property
    def edges(self) -> list:
        """The multi-page record edges: ``(lsn, reads, writes)``."""
        return self._edges

    def total_entries(self) -> int:
        """Chain entries across every indexed page."""
        return sum(len(chain) for chain in self._chains.values())

    def as_dict(self) -> dict:
        """Counters for telemetry and the ``logdump --pages`` renderer."""
        return {
            "pages": len(self._chains),
            "entries": self.total_entries(),
            "edges": len(self._edges),
            "segments_indexed": self.segments_indexed,
            "sidecars_used": self.sidecars_used,
            "scans": self.scans,
        }

    def __repr__(self) -> str:
        return (
            f"PageRedoIndex(pages={len(self._chains)}, "
            f"entries={self.total_entries()}, start_lsn={self.start_lsn})"
        )
