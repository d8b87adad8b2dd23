"""The log manager: the single LSN authority, segmented.

The manager is the *only* component that assigns LSNs — every record in
the system, whether a typed redo payload from a §6 method engine or an
abstract theory operation appended through :class:`repro.core.recovery.Log`,
goes through :meth:`LogManager.append`, so "LSNs increase monotonically
with each new operation" (§6.3) holds by construction, everywhere.

Storage is **segmented**: records live in fixed-size
:class:`LogSegment` runs rather than one unbounded list.  Each segment
knows its own stable boundary (how much of it has been forced), which is
what the cache manager's write-ahead check consults.  The log is never
trimmed: it starts at LSN 0 for as long as it lives, because a cold
start with no surviving pages needs every record of it.

The log has a *stable prefix* (forced to disk) and a *volatile tail*; a
crash truncates the tail.  :meth:`wal_check` implements the write-ahead
rule a cache manager must consult before flushing a page: the record
that produced a page's latest update must be stable before the page may
reach disk.

**Durable tier.**  By default the log is in-memory and ``flush()``
merely advances the stable watermark (a simulated disk boundary).  Give
the manager a :class:`~repro.logmgr.filelog.FileLogStore` and the same
API becomes real: ``append`` encodes each record to its binary frame
(:mod:`repro.logmgr.codec`) and stages it, every ``flush`` writes and
``fsync``\\ s, and the stable watermark only advances at an actual
``fsync``.  Batching lives above the manager — the engine's commit
cadence and the cross-session pipeline, whose leading committer forces
for every session behind it, decide how often to force, never whether a
force is durable.  Sealed, fully-synced segments drop their
decoded records from memory and are re-streamed from their files on
demand, so long-log memory stays O(segment).  :meth:`LogManager.open`
is the one way to put a log on files: it rebuilds a manager from the
segment files alone (cold start), applying the codec's torn-tail rule to
whatever a crash left behind, and gives a fresh manager over an empty
or missing directory.

**Concurrency contract.**  The manager is re-entrant: any number of
threads may append, force, and read concurrently.  Two locks carry the
contract — the *manager mutex* guards LSN assignment, segment mutation,
and every watermark, so "one LSN authority" survives concurrent
appenders; the *force lock* serializes the write+fsync path, so exactly
one force is in flight at a time while appends keep flowing (the
``fsync`` itself runs outside the manager mutex).  A force runs on the
thread that asked for it; the manager starts no thread of its own.
``stable_lsn`` is monotone under any interleaving — a force only ever
advances it — and it is the one thing the cross-session commit pipeline
(:mod:`repro.logmgr.pipeline`) checks before it acknowledges a commit.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Iterator

from repro.logmgr.codec import (
    PAYLOAD_CHECKPOINT,
    CodecError,
    encode_window,
    payload_tag,
)
from repro.logmgr.pageindex import (
    PageRedoIndex,
    encode_page_index,
    index_records,
)
from repro.logmgr.records import CheckpointRecord, LogRecord, Payload
from repro.obs.trace import NULL_TRACER, Tracer

DEFAULT_SEGMENT_SIZE = 1024


class WalViolation(RuntimeError):
    """A page flush was attempted before its log records were stable."""


class LogDirectoryError(RuntimeError):
    """A log directory that cannot be opened the way it was asked for:
    a trimmed log on a cold start, or a used one under a fresh engine."""


class LogSegment:
    """One fixed-size run of consecutive records.

    ``base_lsn`` is the LSN of the first record; records are dense, so a
    segment covers ``[base_lsn, base_lsn + len(records))``.  The segment
    itself is dumb storage — stability is a property of the manager's
    watermark, exposed per segment via :meth:`LogManager.segment_stable_boundary`.

    A file-backed segment that is sealed and fully synced may be
    **evicted**: ``records`` becomes ``None`` and only its record and
    byte counts stay resident; reads re-stream the segment's file
    through the store.
    """

    __slots__ = ("base_lsn", "records", "_count", "_bytes")

    def __init__(self, base_lsn: int):
        self.base_lsn = base_lsn
        self.records: list[LogRecord] | None = []
        self._count = 0
        self._bytes = 0

    @property
    def end_lsn(self) -> int:
        """The last LSN held (``base_lsn - 1`` when empty)."""
        return self.base_lsn + len(self) - 1

    @property
    def evicted(self) -> bool:
        """True when decoded records were dropped (file-backed only)."""
        return self.records is None

    def evict(self) -> None:
        """Drop the decoded records, keeping their count and bytes.

        Only legal for a segment whose every record is durable in a
        segment file — the manager enforces that before calling.
        """
        if self.records is None:
            return
        self._count = len(self.records)
        self._bytes = sum(record.size_bytes() for record in self.records)
        self.records = None

    def __len__(self) -> int:
        return self._count if self.records is None else len(self.records)

    def __repr__(self) -> str:
        state = ", evicted" if self.records is None else ""
        return f"LogSegment(lsns=[{self.base_lsn}..{self.end_lsn}]{state})"


class LogManager:
    """An append-only segmented log with an explicit stable/volatile boundary."""

    def __init__(
        self,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        tracer: Tracer | None = None,
        store=None,
    ):
        if segment_size < 1:
            raise ValueError("segment_size must be at least 1")
        self.segment_size = segment_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._store = store
        # The manager mutex: LSN assignment, segment mutation, watermark
        # updates, checkpoint bookkeeping.  RLock because the write path
        # re-enters (ensure_stable -> flush, append -> seal).
        self._mutex = threading.RLock()
        # One force in flight at a time; appends proceed during the fsync.
        self._force_lock = threading.RLock()
        self._segments: list[LogSegment] = [LogSegment(0)]
        self._next_lsn = 0
        self._stable_lsn = -1
        # Durable tier: written-but-unsynced bytes are still volatile.
        self._written_lsn = -1
        # Appended-but-not-yet-encoded records, as (segment base, record).
        # Encoding is deferred to the flush path, where a whole commit
        # window packs into one blob with one write — the append hot
        # path just assigns the LSN and takes the reference.
        self._pending: list[tuple[int, LogRecord]] = []
        # Segment files at or below this base LSN are sealed (sidecar
        # written) or will never be; only newer rotations get sidecars.
        self._seal_watermark = -1
        self._checkpoint_lsns: list[int] = []
        self.forced_flushes = 0
        self.closed = False
        if store is not None and store.is_empty():
            store.begin_segment(0)

    @classmethod
    def open(
        cls,
        directory,
        segment_size: int = DEFAULT_SEGMENT_SIZE,
        tracer: Tracer | None = None,
        fsync: bool = True,
    ) -> "LogManager":
        """Open the log in ``directory``: the one way a log goes on files.

        Every record in the files is, by definition, the stable prefix —
        nothing volatile survives a real crash — so ``stable_lsn`` lands
        on the last decodable record.  The codec's torn-tail rule is
        applied: a record failing its length/CRC check ends the log, the
        file is truncated at the tear, and any later segment files are
        deleted (they lie beyond a hole and are not part of history).
        An empty or missing directory yields a fresh durable manager.

        A directory whose log does not start at LSN 0, or that holds
        archived (``.arch``) segments, is refused with
        :class:`LogDirectoryError`: its oldest records are gone from the
        live log, and a cold start without their pages cannot explain
        the state they produced.

        Non-tail segments are rebuilt straight from a statistics walk —
        one CRC pass checking the seal in the header of the segment's
        one sidecar (or the per-frame walk when no valid seal exists)
        plus one byte per record — into already-evicted in-memory
        segments; only the tail segment's records are materialized.
        """
        from repro.logmgr.filelog import ARCHIVE_SUFFIX, FileLogStore, log_files

        if any(path.suffix == ARCHIVE_SUFFIX for path in log_files(directory)):
            raise LogDirectoryError(
                f"{directory} holds archived (.arch) segments: the log was "
                f"trimmed, and a trimmed log cannot be recovered"
            )
        store = FileLogStore.attach(directory, fsync=fsync)
        try:
            manager = cls(segment_size=segment_size, tracer=tracer, store=store)
            bases = store.segment_base_lsns()
            if not bases:
                return manager
            if bases[0] != 0:
                raise LogDirectoryError(
                    f"{directory}: the log starts at LSN {bases[0]}, not 0 — "
                    f"its head was trimmed, and a trimmed log cannot be recovered"
                )
            segments: list[LogSegment] = []
            checkpoints: list[int] = []
            expected = 0
            for position, base in enumerate(bases):
                if base != expected:
                    raise CodecError(
                        f"segment files not dense: expected base LSN {expected}, "
                        f"found {base}"
                    )
                segment = LogSegment(base)
                if position == len(bases) - 1:
                    records, tear_offset, tear_reason = store.load_segment(base)
                    for index, record in enumerate(records):
                        if record.lsn != base + index:
                            raise CodecError(
                                f"segment {base} holds LSN {record.lsn} "
                                f"at position {index}"
                            )
                    segment.records = records
                    # Loaded records are lazy — spot checkpoints by wire tag
                    # so the scan stays decode-free.
                    checkpoints.extend(
                        record.lsn
                        for record in records
                        if record.payload_tag == PAYLOAD_CHECKPOINT
                    )
                    count = len(records)
                else:
                    stats = store.segment_stats(base)
                    tear_offset, tear_reason = stats.tear_offset, stats.tear_reason
                    segment.records = None
                    segment._count = stats.count
                    segment._bytes = stats.bytes
                    checkpoints.extend(stats.checkpoint_lsns)
                    count = stats.count
                segments.append(segment)
                if tear_offset is not None:
                    store.truncate_segment_tail(base, tear_offset)
                    dropped = store.drop_segments_after(base)
                    if manager.tracer.enabled:
                        manager.tracer.event(
                            "log.torn_tail",
                            base_lsn=base,
                            offset=tear_offset,
                            reason=tear_reason,
                            dropped_segments=dropped,
                        )
                    break
                expected = base + count
            # A tear can make an evicted segment the tail; the tail must be
            # resident (appends extend it), so load it now that the file is
            # truncated clean.
            tail = segments[-1]
            if tail.records is None:
                records, tear_offset, _reason = store.load_segment(tail.base_lsn)
                if tear_offset is not None:  # pragma: no cover - just truncated
                    raise CodecError(
                        f"segment {tail.base_lsn} still torn after truncation"
                    )
                tail.records = records
            manager._segments = segments
            manager._stable_lsn = segments[-1].end_lsn
            manager._written_lsn = manager._stable_lsn
            manager._next_lsn = manager._stable_lsn + 1
            manager._checkpoint_lsns = checkpoints
            manager._seal_watermark = segments[-1].base_lsn - 1
            return manager
        except BaseException:
            store.close()  # a refused directory keeps no handle open
            raise

    @property
    def store(self):
        """The file-backed segment store, or None for an in-memory log."""
        return self._store

    # ------------------------------------------------------------------
    # Append / force
    # ------------------------------------------------------------------

    def append(self, payload: Payload, **labels: Any) -> LogRecord:
        """Append ``payload`` with the next LSN; returns the record.

        This is the one place in the whole system where an LSN is born.
        On a durable log the record joins the pending tail (volatile
        until a force encodes, writes, and fsyncs it); encoding itself
        is deferred to the flush path so a whole commit window packs
        into one blob hitting the file in one write.  The
        payload's *type*
        is still checked here — an undurable payload must fail at the
        append, not poison a later flush.  Thread-safe: concurrent
        appenders serialize on the manager mutex, so LSNs stay dense
        and monotone under any interleaving.  A closed log raises
        ``ValueError``.
        """
        with self._mutex:
            if self.closed:
                raise ValueError("append to a closed log")
            tail = self._segments[-1]
            if len(tail) >= self.segment_size:
                # The file first: a failed rotation leaves no orphan segment.
                if self._store is not None:
                    self._store.begin_segment(self._next_lsn)
                tail = LogSegment(self._next_lsn)
                self._segments.append(tail)
            record = LogRecord(lsn=self._next_lsn, payload=payload, labels=labels)
            if self._store is not None:
                payload_tag(payload)  # raises CodecError for undurable types
                self._pending.append((tail.base_lsn, record))
            tail.records.append(record)
            self._next_lsn += 1
            if isinstance(payload, CheckpointRecord):
                self._checkpoint_lsns.append(record.lsn)
        if self.tracer.enabled:
            self.tracer.event(
                "log.append", lsn=record.lsn, payload=type(payload).__name__
            )
        return record

    def flush(self, up_to_lsn: int | None = None) -> None:
        """Force the log to disk through ``up_to_lsn`` (default: all).

        In-memory logs just advance the watermark.  Durable logs write
        the covered records and ``fsync``; the stable watermark advances
        only once the fsync returns, so a flush that returns has made
        everything through its target durable.

        Thread-safe: concurrent forces serialize on the force lock
        (exactly one write+fsync in flight), the watermark advance is
        monotone (a slower force can never drag ``stable_lsn``
        backwards), and the ``fsync`` itself runs outside the manager
        mutex so appends keep flowing while it waits on the disk.  A
        closed log raises ``ValueError``.
        """
        with self._mutex:
            if self.closed:
                raise ValueError("flush of a closed log")
            target = (
                self._next_lsn - 1
                if up_to_lsn is None
                else min(up_to_lsn, self._next_lsn - 1)
            )
            if self._store is None:
                if target > self._stable_lsn:
                    if self.tracer.enabled:
                        self.tracer.event(
                            "log.force", from_lsn=self._stable_lsn, stable_lsn=target
                        )
                    self._stable_lsn = target
                    self.forced_flushes += 1
                return
        with self._force_lock:
            # Cut the covered prefix of the pending tail under the
            # mutex, then window-encode it with no lock but the force
            # lock held — appenders keep appending while the CPU packs
            # bytes.  One packed blob per (window × segment) run.
            with self._mutex:
                # close() may have run while this flush waited for the
                # force lock: refuse before anything is cut or staged.
                if self.closed:
                    raise ValueError("flush of a closed log")
                batch: list[tuple[int, LogRecord]] = []
                if target > self._written_lsn and self._pending:
                    pending = self._pending
                    cut = 0
                    while cut < len(pending) and pending[cut][1].lsn <= target:
                        cut += 1
                    if cut:
                        batch = pending[:cut]
                        del pending[:cut]
            staged = 0
            try:
                while staged < len(batch):
                    base = batch[staged][0]
                    end = staged
                    while end < len(batch) and batch[end][0] == base:
                        end += 1
                    window = [entry[1] for entry in batch[staged:end]]
                    self._store.stage_many(
                        window[-1].lsn, base, encode_window(window), len(window)
                    )
                    staged = end
            except BaseException:
                # Nothing staged past ``staged``: put the unstaged
                # suffix back so no appended record falls out of the
                # durable path (a retry will see it again).
                with self._mutex:
                    self._pending[:0] = batch[staged:]
                raise
            with self._mutex:
                if target > self._written_lsn:
                    self._store.write_up_to(target)
                    self._written_lsn = target
                    self._seal_filled_locked()
                if self._written_lsn <= self._stable_lsn:
                    return
                sync_target = self._written_lsn
                from_lsn = self._stable_lsn
            # The durability point: no manager mutex held, so appenders
            # stage new frames while the disk does its work.  The force
            # lock keeps any second flusher out until we finish.
            self._store.sync()
            with self._mutex:
                if self.tracer.enabled:
                    self.tracer.event(
                        "log.force", from_lsn=from_lsn, stable_lsn=sync_target
                    )
                    self.tracer.event("log.fsync", stable_lsn=sync_target)
                if sync_target > self._stable_lsn:
                    self._stable_lsn = sync_target
                self.forced_flushes += 1
                self._evict_synced()

    def _seal_filled_locked(self) -> None:
        """Give every segment file that has rotated, and whose records
        are all written, its one sidecar: the seal (one CRC over the
        frame region, after which the happy-path reader verifies the
        whole file with one checksum instead of one per frame) and the
        page index.  The records are still resident here (eviction runs
        after the sync), so indexing which frames touch which page costs
        zero reads of the file."""
        for segment in self._segments[:-1]:
            if segment.end_lsn > self._written_lsn:
                break
            if segment.base_lsn <= self._seal_watermark:
                continue
            region_crc = self._store.seal_segment(segment.base_lsn)
            if region_crc is not None:
                records = segment.records
                if records is not None:
                    seg_index = index_records(segment.base_lsn, records)
                else:  # evicted before sealing (stable covered it early)
                    seg_index = self._store.build_page_index(segment.base_lsn)
                self._store.write_page_index(
                    segment.base_lsn, encode_page_index(seg_index, region_crc)
                )
            self._seal_watermark = segment.base_lsn

    def _evict_synced(self) -> None:
        """Drop decoded records of sealed, fully-stable segments — their
        bytes are in synced files, so reads can re-stream them."""
        for segment in self._segments[:-1]:
            if segment.records is not None and segment.end_lsn <= self._stable_lsn:
                segment.evict()

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def stable_lsn(self) -> int:
        """The highest LSN guaranteed on disk (-1 if none)."""
        return self._stable_lsn

    # ------------------------------------------------------------------
    # Segments and the write-ahead rule
    # ------------------------------------------------------------------

    def segments(self) -> list[LogSegment]:
        """The segments, oldest first (a read-only view)."""
        with self._mutex:
            return list(self._segments)

    def segment_containing(self, lsn: int) -> LogSegment:
        """The segment holding ``lsn`` (KeyError if not yet appended)."""
        index = self._segment_index(lsn)
        if index is None:
            raise KeyError(f"LSN {lsn} is not in any segment")
        return self._segments[index]

    def _segment_index(self, lsn: int) -> int | None:
        with self._mutex:
            if not 0 <= lsn < self._next_lsn:
                return None
            bases = [segment.base_lsn for segment in self._segments]
            return bisect_right(bases, lsn) - 1

    def segment_stable_boundary(self, lsn: int) -> int:
        """The highest stable LSN within the segment holding ``lsn``.

        Returns the segment's ``base_lsn - 1`` when none of it is stable;
        a negative LSN names no record and reports itself.  This
        per-segment boundary is what
        :meth:`repro.cache.BufferPool.flush_page` consults for the
        write-ahead rule.
        """
        with self._mutex:
            if lsn < 0:
                return lsn
            if lsn >= self._next_lsn:
                # Beyond the tail: nothing there can ever be stable yet.
                return self._stable_lsn
            segment = self.segment_containing(lsn)
            return min(segment.end_lsn, self._stable_lsn)

    def wal_check(self, page_lsn: int) -> None:
        """Raise :class:`WalViolation` unless every record up to
        ``page_lsn`` is stable — call before flushing a page tagged with
        that LSN."""
        if self.segment_stable_boundary(page_lsn) < page_lsn:
            raise WalViolation(
                f"page tagged with LSN {page_lsn} but log is stable only "
                f"through {self.stable_lsn}"
            )

    def ensure_stable(self, lsn: int) -> None:
        """The install gate: make every record through ``lsn`` stable.

        This is the write-ahead rule phrased as the §5 install
        operation's side condition — a page node tagged through ``lsn``
        may install only once the log covers it.  Like real systems, an
        unstable boundary *forces* the log rather than failing (that is
        what "write-ahead" means); the final :meth:`wal_check` then
        raises only if even a forced flush could not cover the LSN (a
        genuinely torn protocol, e.g. a page tagged with a never-appended
        LSN).  The check consults the per-segment stable boundary, so it
        stays cheap no matter how long the log grows — and an appended
        LSN at or below ``stable_lsn`` needs no check at all: its
        segment's stable boundary already covers it.
        """
        if 0 <= lsn <= self._stable_lsn:
            return
        if self.segment_stable_boundary(lsn) < lsn:
            self.flush(up_to_lsn=lsn)
        self.wal_check(lsn)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    @property
    def last_stable_checkpoint_lsn(self) -> int:
        """The LSN of the newest *stable* checkpoint record (-1 if none).

        Recovery starts its analysis scan here: everything a crash
        survivor needs lies in the checkpoint suffix.
        """
        with self._mutex:
            index = bisect_right(self._checkpoint_lsns, self._stable_lsn)
            return self._checkpoint_lsns[index - 1] if index else -1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def _segment_records(self, segment: LogSegment, offset: int) -> Iterator[LogRecord]:
        """Stream one segment's records from index ``offset`` — straight
        from memory when resident, re-decoded from the segment file in
        O(segment) memory when evicted."""
        # Snapshot the records reference: a concurrent force may evict
        # the segment (records -> None) between the check and the slice.
        records = segment.records
        if records is not None:
            yield from records[offset:]
        else:
            yield from self._store.scan_segment(
                segment.base_lsn, start_lsn=segment.base_lsn + offset
            )

    def records_from(self, lsn: int, volatile: bool = True) -> Iterator[LogRecord]:
        """Stream records with LSN >= ``lsn``, in order, segment by
        segment — the O(segment)-memory read path recovery runs on.

        With ``volatile=False`` the stream stops at the stable boundary
        (what recovery will see).
        """
        limit = self._next_lsn - 1 if volatile else self._stable_lsn
        start = max(lsn, 0)
        index = self._segment_index(start)
        if index is None:
            return
        for segment in self._segments[index:]:
            if segment.base_lsn > limit:
                return
            offset = max(0, start - segment.base_lsn)
            # An evicted segment's extent is immutable, so when it lies
            # entirely at or below the limit the per-record boundary
            # check is dead weight — stream it straight through.  (A
            # resident segment's list can still grow concurrently, so it
            # always takes the checked loop.)
            if segment.records is None and segment.end_lsn <= limit:
                yield from self._segment_records(segment, offset)
                continue
            for record in self._segment_records(segment, offset):
                if record.lsn > limit:
                    return
                yield record

    def stable_records_from(self, lsn: int = 0) -> Iterator[LogRecord]:
        """Stream the stable records with LSN >= ``lsn``."""
        return self.records_from(lsn, volatile=False)

    def first_operation_lsn(self) -> int | None:
        """The oldest stable non-checkpoint record's LSN (None if there is
        none), read off the checkpoint LSNs."""
        with self._mutex:
            checkpoints = self._checkpoint_lsns
            lsn = next((i for i, c in enumerate(checkpoints) if i != c), len(checkpoints))
            return lsn if lsn <= self._stable_lsn else None

    def entries(self, volatile: bool = True) -> list[LogRecord]:
        """All records; with ``volatile=False`` only the stable prefix.
        Materializes a list — iterate :meth:`records_from` on hot paths
        instead."""
        return list(self.records_from(0, volatile))

    def stable_entries(self) -> list[LogRecord]:
        """The stable prefix, as a list (see :meth:`entries`)."""
        return self.entries(volatile=False)

    def entry(self, lsn: int) -> LogRecord:
        """The record with exactly this LSN (must be appended)."""
        segment = self.segment_containing(lsn)
        records = segment.records
        if records is not None:
            return records[lsn - segment.base_lsn]
        for record in self._store.scan_segment(segment.base_lsn, start_lsn=lsn):
            return record
        raise KeyError(f"LSN {lsn} missing from segment file {segment.base_lsn}")

    def page_index(self, start_lsn: int = 0) -> PageRedoIndex:
        """The per-page redo index over the stable records at or above
        ``start_lsn``: every page's chain of ``(segment, offset, lsn)``
        triples plus the multi-page edges a lazy plan's ancestry follows.

        Sealed segments answer from their ``.pages`` sidecar when one is
        present and fresh; unsealed tails, resident segments, and
        pre-sidecar directories are indexed by one structural scan each
        — so the index always exists, sidecars just make it cheap.  This
        is what lazy recovery runs its analysis on: the cost is
        O(sidecar bytes + tail segment), not O(log suffix).
        """
        index = PageRedoIndex(start_lsn=max(0, start_lsn))
        with self._mutex:
            segments = list(self._segments)
            stable = self._stable_lsn
        for segment in segments:
            if segment.base_lsn > stable:
                break
            if len(segment) == 0 or segment.end_lsn < index.start_lsn:
                continue
            records = segment.records
            if records is None:
                seg_index = self._store.load_page_index(segment.base_lsn)
                if seg_index is not None:
                    index.add_segment(seg_index, from_sidecar=True)
                    continue
                index.add_segment(self._store.build_page_index(segment.base_lsn))
                continue
            if segment.end_lsn > stable:
                records = records[: stable - segment.base_lsn + 1]
            index.add_segment(index_records(segment.base_lsn, records))
        return index

    def fetch_chain(self, entries) -> list[LogRecord]:
        """Materialize the records behind page-index chain entries of one
        segment (``(segment_base, offset, lsn)`` triples, LSN ascending,
        one base) — so a caller holds at most one segment's decoded
        records at a time.

        A resident segment answers from memory in O(1) per record (LSN
        density makes ``records[lsn - base]`` exact); an evicted one
        reads only the listed frames from its mapped file — the
        zero-copy per-page read path that makes a single-page replay
        independent of log volume.
        """
        base = entries[0][0]
        records = self.segment_containing(base).records
        if records is not None:
            return [records[lsn - base] for _base, _offset, lsn in entries]
        return self._store.read_records_at(
            base, [(offset, lsn) for _base, offset, lsn in entries]
        )

    def stable_operation_count(self) -> int:
        """Operations in the stable prefix: every engine logs exactly one
        record per operation plus its checkpoint records, so this is the
        stable LSNs minus the stable checkpoints."""
        with self._mutex:
            stable = self._stable_lsn
            return stable + 1 - bisect_right(self._checkpoint_lsns, stable)

    def stable_bytes(self) -> int:
        """Bytes in the stable prefix."""
        return self._frame_bytes(volatile=False)

    def total_bytes(self) -> int:
        """Bytes in the whole log, volatile tail included."""
        return self._frame_bytes(volatile=True)

    def _frame_bytes(self, volatile: bool) -> int:
        """Frame bytes through the tail (or the stable boundary)."""
        with self._mutex:
            limit = self._next_lsn - 1 if volatile else self._stable_lsn
            total = 0
            for segment in self._segments:
                if segment.base_lsn > limit:
                    break
                records = segment.records
                if records is None:
                    total += segment._bytes
                else:
                    end = limit - segment.base_lsn + 1
                    total += sum(record.size_bytes() for record in records[:end])
            return total

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Drop the volatile tail; the stable prefix survives.

        On a durable log this also discards staged frames and truncates
        each segment file back to its last-synced length — exactly what
        the kernel does to the page cache when the process dies.
        Quiesces the write path: the force lock is taken first, so an
        in-flight fsync completes (or its batch dies) before the tail is
        dropped.
        """
        with self._force_lock, self._mutex:
            self._crash_locked()

    def close(self) -> None:
        """Refuse every later append and flush, and close the file
        store's handles under the force lock as in :meth:`crash`: an
        in-flight force finishes first."""
        with self._force_lock, self._mutex:
            self.closed = True
            if self._store is not None:
                self._store.close()

    def _crash_locked(self) -> None:
        while self._segments and self._segments[-1].base_lsn > self._stable_lsn:
            if len(self._segments) == 1:
                self._segments[-1].records.clear()
                break
            self._segments.pop()
        tail = self._segments[-1]
        if tail.records is not None:
            keep = max(0, self._stable_lsn - tail.base_lsn + 1)
            del tail.records[keep:]
        self._next_lsn = self._stable_lsn + 1
        while self._checkpoint_lsns and self._checkpoint_lsns[-1] > self._stable_lsn:
            self._checkpoint_lsns.pop()
        if self._store is not None:
            self._pending.clear()
            self._store.crash()
            self._written_lsn = self._stable_lsn
            # The crash deletes files with no synced records; if the
            # tail segment's file was one of them, start it afresh so
            # the recovered incarnation has somewhere to stage appends.
            tail = self._segments[-1]
            if tail.base_lsn not in self._store.segment_base_lsns():
                self._store.begin_segment(tail.base_lsn)

    def __len__(self) -> int:
        """Records in the log, volatile tail included (it starts at LSN 0
        and is never trimmed)."""
        return self._next_lsn

    def __repr__(self) -> str:
        return (
            f"LogManager(records={len(self)}, segments={len(self._segments)}, "
            f"stable_lsn={self._stable_lsn})"
        )
