"""File-backed log segments: real bytes, real ``fsync``, real survival.

One :class:`FileLogStore` owns a directory of segment files, each named
``segment-<base_lsn>.wal`` and laid out as a
:data:`~repro.logmgr.codec.FILE_MAGIC` header followed by consecutive
record frames (see :mod:`repro.logmgr.codec`).  The store is the
durability half of the :class:`~repro.logmgr.manager.LogManager`: the
manager stays the LSN authority and the in-memory read path, while the
store turns ``flush()`` into ``write``/``fsync`` against these files.

The write path is staged and **batch-granular**:

- :meth:`stage_many` buffers one encoded blob covering a whole window of
  records (an append is cheap and *volatile*) — the one staging call, a
  single frame being a window of one;
- :meth:`write_up_to` hands staged blobs to the OS, one blob per
  segment file, looping until every byte is in (written but unsynced
  bytes live in the page cache — still volatile under the failure
  model);
- :meth:`sync` is the only durability point: one ``fsync`` per dirty
  file, after which everything written survives a crash.

A failed ``write`` or ``fsync`` is final: the store keeps the first
``OSError`` and :meth:`write_up_to` and :meth:`sync` raise it again at
once, so no later force can make bytes durable behind a short or lost
write (the kernel may already have dropped the dirty pages a failed
``fsync`` covered).  Only :meth:`crash` — process death — clears it.

Every manager force ends in one :meth:`sync`; how many commits share
it is decided above the manager (commit cadence, the cross-session
pipeline).

A segment that will never be written again gets one sidecar file,
``<segment>.pages`` (:mod:`repro.logmgr.pageindex`): its header is the
**seal** — one CRC over the whole frame region — and its payload the
segment's page index.  :meth:`seal_segment` computes the seal and
:meth:`write_page_index` writes the file.  The scan path checks the seal
first — one C-speed ``crc32`` pass verifies the entire file, after
which the frame walk trusts length fields and skips every per-frame
checksum.  The sidecar is a pure accelerator kept *outside* the segment,
so segment bytes and torn-tail semantics are byte-identical with or
without it; a missing, stale, or damaged one silently degrades to the
per-frame CRC walk and the rebuild scan, which is also how every
pre-sidecar segment directory remains readable.  Sidecars are written
without an fsync — losing one in a crash costs a slow scan, never a
record.

:meth:`crash` simulates the kernel's view of a power cut: staged blobs
vanish, and every file is truncated back to its last synced length.
The cross-process kill test does the same thing for real — ``kill -9``
discards the staging buffer with the process, and the torn-tail rule
cleans up whatever partial frame the page cache happened to flush.

Every read of a segment or archive file — the cold-start loaders, the
streaming scan, the page-index rebuild, ``logdump``, ``postmortem`` —
goes through one :class:`SegmentReader`: it maps the file, validates the
header, and alone decides from the sidecar's seal how far the frame walk
runs and whether it may skip per-frame CRCs.  Callers keep only what
genuinely differs between them: what to do at a tear.

**Concurrency contract.**  The store is safe under the manager's
locking discipline: any number of threads may stage (they hold
the manager mutex), while the flush path (:meth:`write_up_to` +
:meth:`sync` + :meth:`seal_segment`) is serialized by the manager's
force lock.  The store's own lock guards the staged buffer and the
handle list, so a segment rotation (``begin_segment``, called by an
appender) never races the flusher's iteration — and the ``fsync``
syscall itself runs with no lock held, so staging continues while the
disk works.  Scans ``mmap`` sealed files; the active (newest) segment
is read with an ordinary ``read`` because it is the only file whose
tail can still be truncated by a crash (a shrunk mapping would fault).
"""

from __future__ import annotations

import errno
import mmap
import os
import threading
import zlib
from pathlib import Path
from typing import NamedTuple

from repro.logmgr.codec import (
    FILE_HEADER_SIZE,
    PAYLOAD_CHECKPOINT,
    RECORD_OVERHEAD,
    CodecError,
    LazyRecord,
    TornTail,
    decode_file_header,
    encode_file_header,
    walk_frames,
)
from repro.logmgr.pageindex import (
    PAGES_HEADER_SIZE,
    PAGES_SUFFIX,
    SegmentPageIndex,
    index_buffer,
    parse_page_index,
    verify_seal,
)

SEGMENT_SUFFIX = ".wal"
ARCHIVE_SUFFIX = ".arch"


def segment_filename(base_lsn: int) -> str:
    """The canonical file name for the segment starting at ``base_lsn``."""
    return f"segment-{base_lsn:016d}{SEGMENT_SUFFIX}"


def pages_path(path: Path) -> Path:
    """The sidecar page-index file for a segment/archive path."""
    return path.with_name(path.name + PAGES_SUFFIX)


def read_sidecar(path: Path, size: int = -1) -> bytes | None:
    """The first ``size`` bytes (default: all) of a segment's sidecar
    file, or None.  No validation here — the checks
    (:func:`~repro.logmgr.pageindex.verify_seal`,
    :func:`~repro.logmgr.pageindex.parse_page_index`) treat a damaged or
    stale sidecar exactly like a missing one."""
    try:
        with pages_path(path).open("rb") as fh:
            return fh.read(size)
    except OSError:
        return None


def header_torn(path: Path, paths) -> bool:
    """Is ``path`` the last of ``paths`` and shorter than a segment
    header?  That is what a kill or ``ENOSPC`` leaves between creating a
    segment file and writing its header: the file can hold no record,
    so it is a torn tail (dropped at attach), not structural damage."""
    return path == paths[-1] and path.stat().st_size < FILE_HEADER_SIZE


def _drop_sidecar(path: Path) -> None:
    """Remove the sidecar of a segment whose bytes changed or vanished."""
    pages_path(path).unlink(missing_ok=True)


class SegmentStats(NamedTuple):
    """One segment file summarized without materializing its records."""

    count: int
    bytes: int  # frame bytes (matches LogRecord.size_bytes)
    checkpoint_lsns: list
    tear_offset: int | None
    tear_reason: str | None


def log_files(directory) -> list[Path]:
    """Every log file of one directory in LSN order: archives first,
    then the live segments.  Nothing writes ``.arch`` files any more;
    they are listed so ``logdump`` and ``postmortem`` can still inspect
    a directory whose head an older release trimmed."""
    directory = Path(directory)
    return [
        path
        for suffix in (ARCHIVE_SUFFIX, SEGMENT_SUFFIX)
        for path in sorted(directory.glob(f"segment-*{suffix}"))
    ]


class SegmentReader:
    """One segment or archive file opened for reading.

    The single owner of *open → map → validate the header → verify the
    sidecar's seal → choose how far the walk runs and whether it may
    trust length fields*.  A verified seal (one C-speed ``crc32`` pass
    over the frame region) ends the walk at the sealed region and skips
    every per-frame CRC; anything else — no sidecar, a stale or damaged
    one — walks to the end of the file checking each frame.  Only the
    sidecar's fixed header is read, on the first walk, so a
    random-access open (:meth:`views_at`) never pays for it.  A walk
    raises :class:`~repro.logmgr.codec.TornTail` at a damaged frame;
    what a tear *means* (truncate, report, stop quietly) is the
    caller's business.

    The file is read through a read-only ``mmap`` (zero-copy), falling
    back to ``read()`` for empty files, filesystems without mmap, and
    ``allow_mmap=False`` — for the active file, whose tail a crash can
    still truncate (reading a shrunk mapping faults).
    """

    def __init__(self, path, allow_mmap: bool = True):
        self.path = path if isinstance(path, Path) else Path(path)
        self.buf = None
        with open(self.path, "rb") as fh:
            if allow_mmap:
                try:
                    self.buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (ValueError, OSError):
                    pass
            if self.buf is None:
                self.buf = fh.read()
        try:
            self.base_lsn = decode_file_header(self.buf)
        except CodecError:
            self.close()
            raise
        self._walk: tuple[int, bool] | None = None
        self.built = 0  # LazyRecords handed out (the store's decode counter)

    def close(self) -> None:
        """Release the mapping (records already handed out stay valid)."""
        if isinstance(self.buf, mmap.mmap):
            self.buf.close()

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _walk_bounds(self) -> tuple[int, bool]:
        """``(end, verify_crc)`` for a walk of this file — THE seal
        decision, made once per open."""
        if self._walk is None:
            header = read_sidecar(self.path, PAGES_HEADER_SIZE)
            end = verify_seal(self.buf, self.base_lsn, header)
            self._walk = (len(self.buf), True) if end is None else (end, False)
        return self._walk

    @property
    def sealed(self) -> bool:
        """Did the sidecar seal verify against this file's bytes?"""
        return not self._walk_bounds()[1]

    def views(self, start_lsn: int = 0):
        """``(lsn, lo, hi)`` per record at or above ``start_lsn``, where
        ``buf[lo:hi]`` is its ``payload | labels`` encoding."""
        end, verify_crc = self._walk_bounds()
        frames = walk_frames(self.buf, FILE_HEADER_SIZE, end, verify_crc)
        if start_lsn <= 0:
            return frames
        return (view for view in frames if view[0] >= start_lsn)

    def views_at(self, entries, verify_crc: bool = True):
        """Views of the frames at known offsets: ``entries`` is a list
        of ``(offset, lsn)`` pairs from a page index.  A frame that does
        not carry the expected LSN raises :class:`CodecError` (a stale
        index is a structural bug — the lifecycle is supposed to
        invalidate it)."""
        frames = walk_frames(
            self.buf, verify_crc=verify_crc, offsets=[entry[0] for entry in entries]
        )
        for (offset, want_lsn), view in zip(entries, frames):
            if view[0] != want_lsn:
                raise CodecError(
                    f"page index points at LSN {view[0]} where {want_lsn} was "
                    f"expected ({self.path.name}, offset {offset})"
                )
            yield view

    def records(self, views=None):
        """The views (default: the whole file's) as lazily-decoded
        :class:`~repro.logmgr.codec.LazyRecord` — the one place they are
        built.  Slicing ``buf`` copies the body out of the mmap, so a
        record outlives the reader."""
        buf = self.buf
        count = 0
        try:
            for lsn, lo, hi in self.views() if views is None else views:
                count += 1
                yield LazyRecord(lsn, buf[lo:hi])
        finally:
            self.built += count

    def page_index(self) -> SegmentPageIndex:
        """This file's page index by one structural scan (a torn tail
        ends the index exactly where it ends the log)."""
        end, verify_crc = self._walk_bounds()
        return index_buffer(self.buf, self.base_lsn, end=end, verify_crc=verify_crc)

    def stats(self) -> SegmentStats:
        """Accounting statistics without materializing a record: the
        walk touches one byte per record (the payload tag) and enforces
        LSN density from the file's base LSN, raising
        :class:`CodecError` on a hole.  A tear ends the walk and is
        reported."""
        buf = self.buf
        count = nbytes = 0
        checkpoints: list = []
        tear_offset = tear_reason = None
        try:
            for lsn, lo, hi in self.views():
                if lsn != self.base_lsn + count:
                    raise CodecError(
                        f"segment {self.base_lsn} holds LSN {lsn} "
                        f"at position {count}"
                    )
                if buf[lo] == PAYLOAD_CHECKPOINT:
                    checkpoints.append(lsn)
                nbytes += (hi - lo) + RECORD_OVERHEAD
                count += 1
        except TornTail as tear:
            tear_offset, tear_reason = tear.offset, tear.reason
        return SegmentStats(count, nbytes, checkpoints, tear_offset, tear_reason)


def open_segments(paths):
    """Open each of ``paths`` (a :func:`log_files` list) read-only, in
    order — the forensic tools' one per-file preamble.

    Yields ``(path, reader, fault)``.  Either ``reader`` is an open
    :class:`SegmentReader` (closed when the consumer moves on) and
    ``fault`` is None, or the header did not decode: ``reader`` is None
    and ``fault`` is ``(torn, reason)``, ``torn`` telling a torn tail
    (:func:`header_torn`) from structural damage."""
    for path in paths:
        try:
            reader = SegmentReader(path)
        except CodecError as exc:
            yield path, None, (header_torn(path, paths), str(exc))
            continue
        with reader:
            yield path, reader, None


class _SegmentHandle:
    """Bookkeeping for one segment file (internal to the store)."""

    __slots__ = (
        "path",
        "base_lsn",
        "fh",
        "size",
        "synced_size",
        "sealed",
        "region_crc",
    )

    def __init__(self, path: Path, base_lsn: int, fh, size: int, synced_size: int):
        self.path = path
        self.base_lsn = base_lsn
        self.fh = fh  # raw (unbuffered) append handle, or None once closed
        self.size = size
        self.synced_size = synced_size
        # Sealing state.  ``region_crc`` is a running CRC of the frame
        # region as this incarnation wrote it, so sealing a segment
        # costs zero reads; ``None`` means unknown (an attached
        # pre-existing file) and sealing falls back to one read of the
        # file.  ``sealed`` marks a sidecar known to describe the file:
        # written by this incarnation, or verified when attached.
        self.sealed = False
        self.region_crc: int | None = None


class FileLogStore:
    """A directory of binary segment files with staged, batched writes."""

    def __init__(self, directory: str | os.PathLike, fsync: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # ``fsync=False`` keeps the file layout but skips the syscall —
        # for tests and benches that want the format without the wait.
        self.fsync_enabled = fsync
        self._lock = threading.RLock()
        self._handles: list[_SegmentHandle] = []
        # Staged blobs: (last_lsn, segment base, blob, record count).
        # A blob is one frame or a whole packed window of frames.
        self._staged: list[tuple[int, int, bytes, int]] = []
        # A file was created, unlinked or cut short since the last sync.
        self._dir_dirty = False
        # The first failed write or fsync; final until crash().
        self._failure: OSError | None = None
        # Non-active segments mapped by read_records_at, by base LSN.
        self._mapped: dict[int, SegmentReader] = {}
        # Counters surfaced through the engine metrics registry.
        self.appends = 0
        self.staged_bytes = 0
        self.frames_written = 0
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.syncs = 0
        self.records_decoded = 0
        self.torn_tails = 0
        self.segments_created = 0
        self.seals_written = 0
        self.page_index_rebuilds = 0
        self.chain_frames_read = 0

    # ------------------------------------------------------------------
    # Attach (cold start)
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, directory: str | os.PathLike, fsync: bool = True) -> "FileLogStore":
        """Open an existing segment directory without creating anything.

        Every ``.wal`` file becomes a handle; the newest one is reopened
        for appending.  Bytes on disk at attach time are, by definition,
        the crash survivors, so ``synced_size`` starts at the file size.
        The newest file's sidecar (if any) is dropped: the file is about
        to take appends again, which would leave it stale anyway — it
        gets a new one at its next rotation.  A newest file shorter than
        its header (:func:`header_torn`) is dropped with its sidecar.
        Like the rest of a cold start's cleanup, the drop is made durable
        by the new incarnation's first :meth:`sync`, before anything is
        acknowledged.
        """
        store = cls(directory, fsync=fsync)
        paths = sorted(store.directory.glob(f"segment-*{SEGMENT_SUFFIX}"))
        if paths and header_torn(paths[-1], paths):
            _drop_sidecar(paths[-1])
            paths.pop().unlink()
            store.torn_tails += 1
            store._dir_dirty = True
        for index, path in enumerate(paths):
            size = path.stat().st_size
            with path.open("rb") as fh:
                header = fh.read(FILE_HEADER_SIZE)
            base_lsn = decode_file_header(header)
            active = index == len(paths) - 1
            if active:
                _drop_sidecar(path)
            fh = path.open("ab", buffering=0) if active else None
            store._handles.append(_SegmentHandle(path, base_lsn, fh, size, size))
        return store

    def segment_base_lsns(self) -> list[int]:
        """Base LSNs of the segment files, oldest first."""
        with self._lock:
            return [handle.base_lsn for handle in self._handles]

    def is_empty(self) -> bool:
        """True when the store has no segment files yet."""
        return not self._handles

    @property
    def failure(self) -> OSError | None:
        """The first failed write or ``fsync`` (None while healthy); every
        later write and sync raises it again, until :meth:`crash`."""
        return self._failure

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def begin_segment(self, base_lsn: int) -> None:
        """Start a new segment file (created empty, whatever an earlier
        attempt left); subsequent frames route to it.  The header goes in
        whole or its ``OSError`` fails the store; a failed store refuses."""
        if self._failure is not None:
            raise self._failure.with_traceback(None)
        path = self.directory / segment_filename(base_lsn)
        header = memoryview(encode_file_header(base_lsn))
        try:
            fh = path.open("wb", buffering=0)
            try:
                while header:
                    count = fh.write(header)
                    if not count:
                        raise OSError(errno.EIO, f"write accepted no bytes: {path}")
                    header = header[count:]
            except BaseException:
                fh.close()
                raise
        except OSError as exc:
            with self._lock:
                self._failure = exc
            raise
        with self._lock:
            handle = _SegmentHandle(path, base_lsn, fh, FILE_HEADER_SIZE, 0)
            handle.region_crc = 0
            self._handles.append(handle)
            self.segments_created += 1
            self._dir_dirty = True

    def stage_many(self, last_lsn: int, base_lsn: int, blob, count: int) -> None:
        """Buffer one encoded batch window (``count`` records ending at
        ``last_lsn``) bound for the segment at ``base_lsn``.  The blob
        is the window's concatenated wire frames; the whole window hits
        the file in one ``write``."""
        with self._lock:
            if not self._handles:
                raise CodecError("stage_many() before begin_segment()")
            self._staged.append((last_lsn, base_lsn, blob, count))
            self.appends += count
            self.staged_bytes += len(blob)

    def write_up_to(self, lsn: int) -> None:
        """Hand staged blobs whose last LSN <= ``lsn`` to the OS, in
        order, one blob per touched segment file.  Written bytes are
        still volatile until :meth:`sync`.  Callers serialize on the
        manager's force lock; the store lock covers the staged-buffer
        cut so concurrent :meth:`stage_many` calls never lose frames.
        Raises the store's failure at once if an earlier write or
        ``fsync`` failed."""
        with self._lock:
            if self._failure is not None:
                raise self._failure.with_traceback(None)
            if not self._staged or self._staged[0][0] > lsn:
                return
            cut = 0
            while cut < len(self._staged) and self._staged[cut][0] <= lsn:
                cut += 1
            batch, self._staged = self._staged[:cut], self._staged[cut:]
            by_base = {handle.base_lsn: handle for handle in self._handles}
            index = 0
            while index < cut:
                base = batch[index][1]
                chunk = []
                records = 0
                while index < cut and batch[index][1] == base:
                    chunk.append(batch[index][2])
                    records += batch[index][3]
                    index += 1
                handle = by_base[base]
                blob = b"".join(chunk)
                self.staged_bytes -= len(blob)
                self._write_all(handle, blob)
                self.frames_written += len(chunk)
                self.records_written += records

    def _write_all(self, handle: _SegmentHandle, blob: bytes) -> None:
        """Write all of ``blob`` to the segment file, looping over short
        writes, and account only the bytes that landed.  An ``OSError``
        fails the store (see the module docstring)."""
        view = memoryview(blob)
        written = 0
        try:
            while written < len(view):
                count = handle.fh.write(view[written:])
                if not count:
                    raise OSError(errno.EIO, f"write accepted no bytes: {handle.path}")
                written += count
        except OSError as exc:
            self._failure = exc
            raise
        finally:
            handle.size += written
            if handle.region_crc is not None:
                handle.region_crc = zlib.crc32(view[:written], handle.region_crc)
            self.bytes_written += written

    def seal_segment(self, base_lsn: int) -> int | None:
        """The seal of the segment at ``base_lsn``: the CRC of its frame
        region, for :meth:`write_page_index`'s sidecar.  Writes nothing.

        Meant for a segment that will never take another frame (the
        manager calls this when the in-memory segment has rotated and
        every one of its records has been written) — though if more
        frames do land, the sidecar merely goes stale and readers ignore
        it.  For a segment this incarnation wrote, the region CRC is
        running state — sealing costs zero reads of the segment.  For
        an attached pre-existing file it is rebuilt with one read.
        Returns None when the segment is already sealed, unknown, still
        has staged frames outstanding (its final bytes aren't in the
        file yet), or was damaged since it was attached.
        """
        with self._lock:
            try:
                handle = self._handle_for(base_lsn)
            except KeyError:
                return None
            if handle.sealed:
                return None
            if any(base == base_lsn for _, base, _, _ in self._staged):
                return None
            crc = handle.region_crc
        if crc is None:
            with self._reader(base_lsn) as reader:
                if reader.stats().tear_offset is not None:
                    return None  # unsealed: the next scan finds the tear
                crc = zlib.crc32(memoryview(reader.buf)[FILE_HEADER_SIZE:])
            with self._lock:
                handle.region_crc = crc
        return crc

    def write_page_index(self, base_lsn: int, blob: bytes) -> None:
        """Write a segment's one sidecar — its seal and page index,
        :func:`~repro.logmgr.pageindex.encode_page_index`'s bytes — with
        no fsync (losing it in a crash costs a rebuild scan, never a
        record)."""
        with self._lock:
            handle = self._handle_for(base_lsn)
            pages_path(handle.path).write_bytes(blob)
            handle.sealed = True
            self.seals_written += 1

    def load_page_index(self, base_lsn: int) -> SegmentPageIndex | None:
        """The segment's page index from its sidecar, or None unless the
        sidecar's seal is known to hold (this incarnation wrote it, or
        :meth:`segment_stats` verified it) and its payload passes its
        CRC."""
        with self._lock:
            handle = self._handle_for(base_lsn)
            if not handle.sealed:
                return None
        return parse_page_index(read_sidecar(handle.path))

    def build_page_index(self, base_lsn: int) -> SegmentPageIndex:
        """Rebuild a segment's page index with one structural scan — the
        fallback for unsealed tails and pre-sidecar directories.  A
        verified seal lets the walk skip per-frame CRCs."""
        with self._reader(base_lsn) as reader:
            self.page_index_rebuilds += 1
            return reader.page_index()

    def read_records_at(self, base_lsn: int, entries) -> list[LazyRecord]:
        """Fetch records at known frame offsets of one segment — the
        per-page chain read.  ``entries`` is an offset-ascending list of
        ``(offset, lsn)`` pairs from the page index; only the requested
        frames are touched.  A non-active segment is immutable, so it is
        mapped once and kept until :meth:`release_maps` (a finished
        restart plan calls it), :meth:`close` or :meth:`crash`.
        An entry whose frame does not carry the expected LSN raises
        :class:`CodecError` (a stale index is a structural bug).  A
        sealed segment's bytes are covered by its seal's CRC, so its
        frames are read without their own."""
        with self._lock:
            handle = self._handle_for(base_lsn)
            active = handle is self._handles[-1]
            reader = self._mapped.get(base_lsn)
            if reader is None:
                reader = SegmentReader(handle.path, allow_mmap=not active)
                if isinstance(reader.buf, mmap.mmap):
                    self._mapped[base_lsn] = reader
        built = reader.built
        try:
            return list(reader.records(reader.views_at(entries, not handle.sealed)))
        finally:
            self.chain_frames_read += reader.built - built
            self.records_decoded += reader.built - built
            if active:
                reader.close()

    def sync(self) -> None:
        """The durability point: ``fsync`` every file with unsynced
        bytes (and the directory when files were created, unlinked or
        cut short), then close sealed files that will never be written
        again.

        The syscalls run with the store lock *released*: only the
        dirty-set snapshot and the watermark updates are locked, so
        appenders can keep staging (and rotating segments) while the
        disk is busy.  ``synced_size`` advances only to each file's size
        as captured *before* its fsync — bytes written mid-sync stay
        volatile until the next one, which is exactly the crash rule.
        A failed ``fsync`` fails the store; a failed store raises here
        at once.
        """
        with self._lock:
            if self._failure is not None:
                raise self._failure.with_traceback(None)
            dirty = [
                (handle, handle.size)
                for handle in self._handles
                if handle.size > handle.synced_size
            ]
            dir_dirty = self._dir_dirty
            self._dir_dirty = False
        try:
            for handle, size_at_sync in dirty:
                if self.fsync_enabled and handle.fh is not None:
                    os.fsync(handle.fh.fileno())
                    self.fsyncs += 1
                with self._lock:
                    if size_at_sync > handle.synced_size:
                        handle.synced_size = size_at_sync
            if dir_dirty and self.fsync_enabled:
                dir_fd = os.open(self.directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
                self.fsyncs += 1
        except OSError as exc:
            with self._lock:
                self._failure = exc
            raise
        with self._lock:
            # A rotated segment is done being written only once it is
            # sealed: the manager seals it after every one of its records
            # is written.  "Fully synced" alone is not enough — an append
            # can rotate to segment B while A's tail is still staged, or
            # still pending in the manager behind a flush to an earlier
            # LSN, and the next write_up_to must find A's handle open.
            for handle in self._handles[:-1]:
                if (
                    handle.fh is not None
                    and handle.sealed
                    and handle.size == handle.synced_size
                ):
                    handle.fh.close()
                    handle.fh = None
            self.syncs += 1

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose everything volatile: staged frames and written-but-
        unsynced file tails (files with nothing synced disappear) — and
        the store's failure, if any, dies with the process.  Callers
        quiesce the write path first (the manager's crash takes the
        force lock), so no fsync is in flight here."""
        with self._lock:
            self._crash_locked()

    def _crash_locked(self) -> None:
        self._unmap()
        self._failure = None
        self._staged.clear()
        self.staged_bytes = 0
        survivors: list[_SegmentHandle] = []
        for handle in self._handles:
            # A file whose synced bytes don't reach past the header holds
            # no records — drop it so a post-crash rotation can recreate
            # the segment cleanly instead of appending a second header.
            if handle.synced_size <= FILE_HEADER_SIZE:
                if handle.fh is not None:
                    handle.fh.close()
                handle.path.unlink(missing_ok=True)
                _drop_sidecar(handle.path)
                continue
            if handle.size > handle.synced_size:
                if handle.fh is not None:
                    handle.fh.close()
                with handle.path.open("rb+") as fh:
                    fh.truncate(handle.synced_size)
                handle.size = handle.synced_size
                handle.fh = None
                # The truncation cut a frame tail, so the running seal
                # state no longer describes the file; a sidecar written
                # for the longer file is stale and must go too.
                _drop_sidecar(handle.path)
                handle.sealed = False
                handle.region_crc = None
            survivors.append(handle)
        self._handles = survivors
        # Reopen the newest survivor for the recovered incarnation.
        self._reopen_active()

    def truncate_segment_tail(self, base_lsn: int, byte_offset: int) -> None:
        """Cut a torn tail off a segment file (cold-start cleanup)."""
        handle = self._handle_for(base_lsn)
        if handle.fh is not None:
            handle.fh.close()
            handle.fh = None
        with handle.path.open("rb+") as fh:
            fh.truncate(byte_offset)
        handle.size = handle.synced_size = byte_offset
        _drop_sidecar(handle.path)
        handle.sealed = False
        handle.region_crc = None
        self.torn_tails += 1
        self._dir_dirty = True
        self._reopen_active()

    def drop_segments_after(self, base_lsn: int) -> int:
        """Delete segment files beyond ``base_lsn`` (they follow a torn
        record, so by the torn-tail rule they are not part of the log).
        Returns the number of files removed."""
        keep, drop = [], []
        for handle in self._handles:
            (keep if handle.base_lsn <= base_lsn else drop).append(handle)
        for handle in drop:
            if handle.fh is not None:
                handle.fh.close()
            handle.path.unlink(missing_ok=True)
            _drop_sidecar(handle.path)
            self._dir_dirty = True
        self._handles = keep
        self._reopen_active()
        return len(drop)

    def _reopen_active(self) -> None:
        """Make sure the newest segment file is open for appending."""
        if self._handles and self._handles[-1].fh is None:
            self._handles[-1].fh = self._handles[-1].path.open("ab", buffering=0)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _handle_for(self, base_lsn: int) -> _SegmentHandle:
        for handle in self._handles:
            if handle.base_lsn == base_lsn:
                return handle
        raise KeyError(f"no segment file with base LSN {base_lsn}")

    def _reader(self, base_lsn: int) -> SegmentReader:
        """Open one segment for reading.  Only non-active files are
        mmapped: the active file's tail can still be truncated (crash),
        and reading a shrunk mapping faults, while a sealed file is
        immutable (an unlink leaves a live mapping valid).
        """
        with self._lock:
            handle = self._handle_for(base_lsn)
            active = self._handles and handle is self._handles[-1]
        return SegmentReader(handle.path, allow_mmap=not active)

    def scan_segment(self, base_lsn: int, start_lsn: int = 0):
        """Stream one segment's records as lazily-decoded
        :class:`~repro.logmgr.codec.LazyRecord`, skipping records below
        ``start_lsn``.  Stops cleanly at a torn tail (the manager only
        scans fully synced segments, so a tear here would mean the file
        was corrupted after the fact)."""
        if start_lsn <= base_lsn:
            start_lsn = 0  # the whole segment qualifies — skip the filter
        with self._reader(base_lsn) as reader:
            try:
                yield from reader.records(reader.views(start_lsn))
            except TornTail:
                return
            finally:
                self.records_decoded += reader.built

    def load_segment(
        self, base_lsn: int
    ) -> tuple[list[LazyRecord], int | None, str | None]:
        """Read one whole segment file into memory (the cold-start path
        for the tail segment).  Returns ``(records, tear_offset,
        tear_reason)`` where a ``None`` tear offset means the file
        decoded cleanly to its end.  Records come back lazy — frames are
        CRC-checked (or seal-covered) here, but payload bytes decode
        only when a consumer touches them.
        """
        records: list[LazyRecord] = []
        append = records.append
        with self._reader(base_lsn) as reader:
            try:
                for record in reader.records():
                    append(record)
            except TornTail as tear:
                return records, tear.offset, tear.reason
            finally:
                self.records_decoded += len(records)
        return records, None, None

    def segment_stats(self, base_lsn: int) -> SegmentStats:
        """Summarize one segment without materializing records — the
        cold-start fast path for sealed segments (they are rebuilt as
        evicted in-memory segments straight from these numbers).  The
        walk's seal verdict is kept for :meth:`load_page_index` and
        :meth:`read_records_at`."""
        with self._reader(base_lsn) as reader:
            stats = reader.stats()
            with self._lock:
                self._handle_for(base_lsn).sealed = reader.sealed
            return stats

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, int]:
        """The store's counters (for the engine metrics registry)."""
        return {
            "appends": self.appends,
            "frames_written": self.frames_written,
            "records_written": self.records_written,
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "syncs": self.syncs,
            "records_decoded": self.records_decoded,
            "torn_tails": self.torn_tails,
            "segments_created": self.segments_created,
            "seals_written": self.seals_written,
            "page_index_rebuilds": self.page_index_rebuilds,
            "chain_frames_read": self.chain_frames_read,
        }

    def close(self) -> None:
        """Close every open file handle (idempotent)."""
        with self._lock:
            self._unmap()
            for handle in self._handles:
                if handle.fh is not None:
                    handle.fh.close()
                    handle.fh = None

    def release_maps(self) -> None:
        """Unmap every segment :meth:`read_records_at` mapped (records
        already read stay valid; a later chain read maps afresh)."""
        with self._lock:
            self._unmap()

    def _unmap(self) -> None:
        for reader in self._mapped.values():
            reader.close()
        self._mapped.clear()

    def __repr__(self) -> str:
        return (
            f"FileLogStore({str(self.directory)!r}, segments={len(self._handles)}, "
            f"fsyncs={self.fsyncs})"
        )
