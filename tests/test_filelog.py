"""Tests for the file-backed durable log tier.

Covers the :class:`~repro.logmgr.filelog.FileLogStore` write path
(stage → write → fsync), one fsync per force, the crash model (staged
and written-but-unsynced bytes vanish), a failed write or fsync being
final, torn-tail cleanup on cold start, segment eviction, the one
sidecar per sealed segment, and the refusal of trimmed directories.
"""

import errno
import os
import stat
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.engine import KVDatabase
from repro.logmgr import (
    CheckpointRecord,
    CodecError,
    FileLogStore,
    LogDirectoryError,
    LogManager,
    LogicalRedo,
    PhysicalRedo,
)
from repro.logmgr.codec import (
    FILE_HEADER_SIZE,
    FRAME_PREFIX_SIZE,
    encode_file_header,
    encode_record,
    walk_frames,
)
from repro.logmgr.filelog import (
    SEGMENT_SUFFIX,
    SegmentReader,
    pages_path,
    segment_filename,
)
from repro.logmgr.pageindex import SegmentPageIndex, encode_page_index
from repro.logmgr.records import LogRecord
from repro.obs.postmortem import scan_log_tail


def durable_log(tmp_path, **kwargs):
    """A LogManager on segment files in ``tmp_path``."""
    return LogManager.open(tmp_path, **kwargs)


def file_records(path):
    """Every record of one segment file, read standalone."""
    with SegmentReader(path) as reader:
        return list(reader.records())


class TestFileLogStore:
    def test_begin_segment_writes_header(self, tmp_path):
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        path = tmp_path / segment_filename(0)
        assert path.exists()
        assert path.stat().st_size == FILE_HEADER_SIZE
        store.close()

    def test_staged_frames_hit_disk_only_after_write(self, tmp_path):
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        frame = encode_record(LogRecord(lsn=0, payload=LogicalRedo(("a",))))
        store.stage_many(0, 0, frame, 1)
        path = tmp_path / segment_filename(0)
        assert path.stat().st_size == FILE_HEADER_SIZE  # still staged
        store.write_up_to(0)
        assert path.stat().st_size == FILE_HEADER_SIZE + len(frame)
        store.close()

    def test_sync_keeps_handle_open_while_frames_staged(self, tmp_path):
        """Regression: an append can stage into a segment and rotate
        before any flush covers that tail, so a rotated fully-synced
        segment may still owe staged bytes.  sync() must not close its
        handle out from under the next write_up_to: only a sealed
        segment's handle is closed."""
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        frames = [
            encode_record(LogRecord(lsn=lsn, payload=LogicalRedo(("a",))))
            for lsn in range(2)
        ]
        store.stage_many(0, 0, frames[0], 1)
        store.stage_many(1, 0, frames[1], 1)
        store.begin_segment(2)  # rotate with LSN 1 still staged for seg 0
        store.write_up_to(0)
        store.sync()  # seg 0 is rotated and fully synced — but still owed
        handle = store._handle_for(0)
        assert handle.fh is not None  # not closed: staged frames remain
        store.write_up_to(1)  # raised AttributeError before the fix
        store.sync()
        assert [r.lsn for r in file_records(tmp_path / segment_filename(0))] == [0, 1]
        store.close()

    def test_stage_before_begin_raises(self, tmp_path):
        store = FileLogStore(tmp_path)
        with pytest.raises(CodecError, match="begin_segment"):
            store.stage_many(0, 0, b"xx", 1)

    def test_crash_loses_staged_and_unsynced_bytes(self, tmp_path):
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        frames = [
            encode_record(LogRecord(lsn=lsn, payload=LogicalRedo((lsn,))))
            for lsn in range(3)
        ]
        store.stage_many(0, 0, frames[0], 1)
        store.write_up_to(0)
        store.sync()  # lsn 0 durable
        store.stage_many(1, 0, frames[1], 1)
        store.write_up_to(1)  # lsn 1 written, NOT synced
        store.stage_many(2, 0, frames[2], 1)  # lsn 2 only staged
        store.crash()
        path = tmp_path / segment_filename(0)
        assert path.stat().st_size == FILE_HEADER_SIZE + len(frames[0])
        survivors = file_records(path)
        assert [r.lsn for r in survivors] == [0]
        store.close()

    def test_crash_deletes_file_with_no_synced_records(self, tmp_path):
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        store.crash()
        assert not (tmp_path / segment_filename(0)).exists()
        assert store.is_empty()

    def test_attach_reopens_existing_files(self, tmp_path):
        store = FileLogStore(tmp_path)
        store.begin_segment(0)
        frame = encode_record(LogRecord(lsn=0, payload=LogicalRedo(("a",))))
        store.stage_many(0, 0, frame, 1)
        store.write_up_to(0)
        store.sync()
        store.close()
        reopened = FileLogStore.attach(tmp_path)
        assert reopened.segment_base_lsns() == [0]
        assert [r.lsn for r in reopened.scan_segment(0)] == [0]
        reopened.close()


class TestGroupCommit:
    """No batching inside the manager: every force is a write plus an
    fsync (commit cadence and the pipeline batch above it)."""

    def test_every_force_pays_one_fsync(self, tmp_path):
        # A force per record, then an engine's commit_every=16 cadence:
        # 400 appends forced every 16th pay 25 syncs, not 400.
        for appends, force_every in [(8, 1), (400, 16)]:
            log = durable_log(tmp_path / f"{appends}-{force_every}")
            for i in range(appends):
                log.append(LogicalRedo((i,)))
                if (i + 1) % force_every == 0:
                    log.flush()
                    assert log.stable_lsn == i
            # Each sync pays one file fsync; the first also pays the
            # directory fsync for the segment file's creation.
            assert log.store.syncs == appends // force_every
            assert log.store.fsyncs == appends // force_every + 1
            log.store.close()

    def test_pending_forces_vanish_on_crash(self, tmp_path):
        log = durable_log(tmp_path)
        log.append(LogicalRedo(("a",)))  # appended, never forced
        log.crash()
        assert log.stable_lsn == -1
        assert len(log) == 0
        # The recovered incarnation can append and force normally.
        log.append(LogicalRedo(("b",)))
        log.flush()
        assert log.stable_lsn == 0
        log.store.close()

    def test_partial_flush_across_a_rotation_writes_every_record(self, tmp_path):
        # A flush to LSN 1 syncs segment 0 while LSNs 2-3 are still
        # pending for it behind a rotation; the next flush must find
        # segment 0's handle open and write them.
        log = durable_log(tmp_path, segment_size=4)
        for i in range(6):
            log.append(LogicalRedo((i,)))
        log.flush(up_to_lsn=1)
        log.flush()
        assert log.stable_lsn == 5
        log.close()
        cold = LogManager.open(tmp_path, segment_size=4)
        assert [r.lsn for r in cold.stable_records_from(0)] == list(range(6))
        cold.close()

    def test_flush_waiting_behind_close_is_refused(self, tmp_path):
        log = durable_log(tmp_path)
        log.append(LogicalRedo(("a",)))
        force_lock = log._force_lock

        class CloseFirst:
            """The force lock, with close() winning the flush's wait."""

            armed = True

            def __enter__(self):
                if CloseFirst.armed:
                    CloseFirst.armed = False
                    log.close()
                force_lock.acquire()

            def __exit__(self, *exc):
                force_lock.release()

        log._force_lock = CloseFirst()
        with pytest.raises(ValueError, match="closed log"):
            log.flush()
        assert log.stable_lsn == -1


class TestEviction:
    def test_sealed_synced_segments_are_evicted(self, tmp_path):
        log = durable_log(tmp_path, segment_size=4)
        for i in range(10):
            log.append(LogicalRedo((i,)))
        log.flush()
        segments = log.segments()
        assert [s.evicted for s in segments] == [True, True, False]
        log.store.close()

    def test_evicted_segments_restream_from_files(self, tmp_path):
        log = durable_log(tmp_path, segment_size=4)
        for i in range(10):
            log.append(LogicalRedo((i,)))
        log.flush()
        assert [r.payload.description[0] for r in log.records_from(0)] == list(
            range(10)
        )
        assert log.entry(2).lsn == 2  # random access re-streams too
        log.store.close()

    def test_evicted_accounting_matches_resident(self, tmp_path):
        log = durable_log(tmp_path, segment_size=4)
        reference = LogManager(segment_size=4)
        for i in range(10):
            for manager in (log, reference):
                manager.append(PhysicalRedo(f"p{i % 3}", {"k": i}))
                if i == 5:
                    manager.append(CheckpointRecord(("physical",)))
        log.flush()
        reference.flush()
        assert len(log) == len(reference)
        assert [s.evicted for s in log.segments()] == [True, True, False]
        assert log.stable_operation_count() == reference.stable_operation_count() == 10
        assert log.stable_bytes() == reference.stable_bytes()
        assert log.total_bytes() == reference.total_bytes()
        log.store.close()


class TestColdStart:
    def test_empty_directory_yields_fresh_manager(self, tmp_path):
        log = LogManager.open(tmp_path)
        assert len(log) == 0
        assert log.stable_lsn == -1
        entry = log.append(LogicalRedo(("first",)))
        log.flush()
        assert log.stable_lsn == entry.lsn
        log.store.close()

    def test_cold_start_recovers_synced_records(self, tmp_path):
        warm = durable_log(tmp_path, segment_size=4)
        for i in range(9):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.append(LogicalRedo(("volatile",)))  # never forced
        warm.store.close()
        cold = LogManager.open(tmp_path, segment_size=4)
        assert cold.stable_lsn == 8
        assert cold.next_lsn == 9
        assert [r.payload.description[0] for r in cold.stable_records_from(0)] == list(
            range(9)
        )
        cold.store.close()

    def test_cold_start_appends_continue_the_lsn_sequence(self, tmp_path):
        warm = durable_log(tmp_path)
        warm.append(LogicalRedo(("a",)))
        warm.flush()
        warm.store.close()
        cold = LogManager.open(tmp_path)
        entry = cold.append(LogicalRedo(("b",)))
        assert entry.lsn == 1
        cold.flush()
        assert cold.stable_lsn == 1
        cold.store.close()

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        warm = durable_log(tmp_path)
        for i in range(3):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        path = tmp_path / segment_filename(0)
        clean = path.read_bytes()
        path.write_bytes(clean[:-2])  # tear mid-frame, as a crash would
        cold = LogManager.open(tmp_path)
        assert cold.stable_lsn == 1  # record 2 was torn
        assert path.stat().st_size < len(clean) - 2  # file cut at the tear
        assert cold.store.torn_tails == 1
        # The log is appendable right where the tear was.
        entry = cold.append(LogicalRedo(("again",)))
        assert entry.lsn == 2
        cold.flush()
        assert cold.stable_lsn == 2
        cold.store.close()

    def test_segments_after_a_tear_are_deleted(self, tmp_path):
        warm = durable_log(tmp_path, segment_size=2)
        for i in range(6):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        middle = tmp_path / segment_filename(2)
        middle.write_bytes(middle.read_bytes()[:-1])
        cold = LogManager.open(tmp_path, segment_size=2)
        assert cold.stable_lsn == 2  # lsn 3 torn; 4,5 beyond the hole
        assert not (tmp_path / segment_filename(4)).exists()
        cold.store.close()

    @pytest.mark.parametrize("cleanup", ["torn_tail", "short_header"])
    def test_cold_start_cleanup_is_made_durable(self, tmp_path, monkeypatch, cleanup):
        """The first sync after a cold start's cleanup fsyncs the
        directory, before anything is acknowledged: an unlink or a
        truncation the disk never saw would bring back a dead
        incarnation's records after the tear."""
        warm = durable_log(tmp_path, segment_size=2)
        for i in range(5):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        if cleanup == "torn_tail":  # lsn 3 torn: cut segment 2, drop segment 4
            middle = tmp_path / segment_filename(2)
            middle.write_bytes(middle.read_bytes()[:-1])
            dropped = segment_filename(4)
        else:  # a kill mid-rotation left segment 6 without its header
            dropped = segment_filename(6)
            (tmp_path / dropped).write_bytes(b"RLOG")
        cold = durable_log(tmp_path, segment_size=2)
        assert cold.store.torn_tails == 1
        assert not (tmp_path / dropped).exists()
        real_fsync = os.fsync
        directories = []

        def fsync(fd):
            directories.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        cold.append(LogicalRedo(("after",)))  # fills a segment; creates no file
        cold.flush()
        assert directories.count(True) == 1
        cold.store.close()

    def test_checkpoints_survive_cold_start(self, tmp_path):
        warm = durable_log(tmp_path)
        warm.append(LogicalRedo(("a",)))
        warm.append(CheckpointRecord(("logical", 0)))
        warm.flush()
        warm.store.close()
        cold = LogManager.open(tmp_path)
        assert cold.last_stable_checkpoint_lsn == 1
        cold.store.close()

    def test_archived_directory_is_refused(self, tmp_path):
        """A segment renamed ``.arch`` is what checkpoint truncation
        used to leave: the live log no longer starts at LSN 0."""
        warm = durable_log(tmp_path, segment_size=2)
        for i in range(6):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        first = tmp_path / segment_filename(0)
        first.rename(first.with_suffix(".arch"))
        with pytest.raises(LogDirectoryError, match="archived"):
            LogManager.open(tmp_path, segment_size=2)

    def test_log_not_starting_at_zero_is_refused(self, tmp_path):
        warm = durable_log(tmp_path, segment_size=2)
        for i in range(6):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        (tmp_path / segment_filename(0)).unlink()
        with pytest.raises(LogDirectoryError, match="starts at LSN 2"):
            LogManager.open(tmp_path, segment_size=2)

    def test_non_dense_segment_files_rejected(self, tmp_path):
        warm = durable_log(tmp_path, segment_size=2)
        for i in range(6):
            warm.append(LogicalRedo((i,)))
        warm.flush()
        warm.store.close()
        (tmp_path / segment_filename(2)).unlink()  # punch a hole
        with pytest.raises(CodecError, match="not dense"):
            LogManager.open(tmp_path, segment_size=2)

    def test_fsync_disabled_keeps_the_format(self, tmp_path):
        log = durable_log(tmp_path, fsync=False)
        log.append(LogicalRedo(("a",)))
        log.flush()
        assert log.store.fsyncs == 0
        assert log.stable_lsn == 0
        paths = list(tmp_path.glob(f"*{SEGMENT_SUFFIX}"))
        assert len(paths) == 1
        assert [r.lsn for r in file_records(paths[0])] == [0]
        log.store.close()


class TestSegmentSeal:
    """The seal in each sealed segment's one sidecar is a pure
    accelerator: removing, corrupting, or staling it must never change
    what a scan returns."""

    def _filled_log(self, tmp_path, n=20, segment_size=8):
        log = durable_log(tmp_path, segment_size=segment_size)
        for i in range(n):
            log.append(LogicalRedo((i,)))
        log.flush()
        return log

    @staticmethod
    def _sealed(tmp_path, base=0):
        with SegmentReader(tmp_path / segment_filename(base)) as reader:
            return reader.sealed

    def test_filled_segments_gain_seal_sidecars(self, tmp_path):
        log = self._filled_log(tmp_path)
        # One sidecar per sealed segment; the growing tail has none.
        sidecars = sorted(
            path.name for path in tmp_path.iterdir() if path.suffix != SEGMENT_SUFFIX
        )
        assert sidecars == [
            pages_path(tmp_path / segment_filename(base)).name for base in (0, 8)
        ]
        assert self._sealed(tmp_path, 0) and self._sealed(tmp_path, 8)
        assert log.store.as_dict()["seals_written"] == 2
        log.store.close()

    def test_corrupt_seal_falls_back_to_frame_walk(self, tmp_path):
        log = self._filled_log(tmp_path)
        good = [(r.lsn, r.payload) for r in log.store.scan_segment(0)]
        sidecar = pages_path(tmp_path / segment_filename(0))
        sidecar.write_bytes(bytes(len(sidecar.read_bytes())))
        again = [(r.lsn, r.payload) for r in log.store.scan_segment(0)]
        assert again == good
        assert [lsn for lsn, _ in good] == list(range(8))
        assert not self._sealed(tmp_path)
        log.store.close()

    def test_stale_seal_is_ignored(self, tmp_path):
        # A seal for other bytes — the file grew or shrank since, or it
        # names another segment — is treated exactly like a missing one.
        log = self._filled_log(tmp_path)
        good = [(r.lsn, r.payload) for r in log.store.scan_segment(0)]
        path = tmp_path / segment_filename(0)
        region = path.read_bytes()[FILE_HEADER_SIZE:]
        for base_lsn, region_len in [(0, len(region) + 1), (8, len(region))]:
            stale = SegmentPageIndex(base_lsn, region_len, {}, [])
            pages_path(path).write_bytes(encode_page_index(stale, zlib.crc32(region)))
            assert [(r.lsn, r.payload) for r in log.store.scan_segment(0)] == good
            assert not self._sealed(tmp_path)
        log.store.close()

    def test_short_seal_is_ignored(self, tmp_path):
        log = self._filled_log(tmp_path)
        good = [(r.lsn, r.payload) for r in log.store.scan_segment(0)]
        sidecar = pages_path(tmp_path / segment_filename(0))
        sidecar.write_bytes(sidecar.read_bytes()[:10])
        assert [(r.lsn, r.payload) for r in log.store.scan_segment(0)] == good
        assert not self._sealed(tmp_path)
        log.store.close()

    def test_attached_segment_seals_from_its_bytes(self, tmp_path):
        # An attached file has no running CRC: its seal is read back
        # from the file, and a file torn since it was attached gets none.
        log = durable_log(tmp_path, segment_size=8)
        for i in range(5):
            log.append(LogicalRedo((i,)))
        log.flush()
        log.store.close()
        store = LogManager.open(tmp_path, segment_size=8).store
        path = tmp_path / segment_filename(0)
        buf = path.read_bytes()
        assert store.seal_segment(0) == zlib.crc32(buf[FILE_HEADER_SIZE:])
        store._handle_for(0).region_crc = None
        _lsn, lo, _hi = list(walk_frames(buf))[2]
        path.write_bytes(buf[:lo] + bytes([buf[lo] ^ 0xFF]) + buf[lo + 1 :])
        assert store.seal_segment(0) is None
        store.close()

    def test_damage_under_a_seal_is_still_caught(self, tmp_path):
        # Flipping a record byte breaks the seal CRC, so the scan
        # degrades to per-frame checks and stops at the damaged record.
        log = self._filled_log(tmp_path)
        path = tmp_path / segment_filename(0)
        buf = path.read_bytes()
        frames = list(walk_frames(buf))
        _lsn, lo, _hi = frames[3]
        damaged = bytearray(buf)
        damaged[lo] ^= 0xFF
        path.write_bytes(bytes(damaged))
        assert [r.lsn for r in log.store.scan_segment(0)] == [0, 1, 2]
        log.store.close()


class TestScanSeek:
    def _filled_log(self, tmp_path, n=20, segment_size=8):
        log = durable_log(tmp_path, segment_size=segment_size)
        for i in range(n):
            log.append(LogicalRedo((i,)))
        log.flush()
        return log

    def test_scan_segment_seeks_mid_segment(self, tmp_path):
        log = self._filled_log(tmp_path)
        records = list(log.store.scan_segment(0, start_lsn=3))
        assert [r.lsn for r in records] == [3, 4, 5, 6, 7]
        assert [r.payload for r in records] == [LogicalRedo((i,)) for i in range(3, 8)]
        log.store.close()

    def test_scan_segment_seek_past_the_end_is_empty(self, tmp_path):
        log = self._filled_log(tmp_path)
        assert list(log.store.scan_segment(0, start_lsn=8)) == []
        log.store.close()

    def test_records_from_mid_log_after_cold_start(self, tmp_path):
        self._filled_log(tmp_path).store.close()
        log = LogManager.open(tmp_path, segment_size=8)
        records = list(log.records_from(5))
        assert [r.lsn for r in records] == list(range(5, 20))
        assert records[0].payload == LogicalRedo((5,))
        assert records[-1].payload == LogicalRedo((19,))
        log.store.close()

    def test_seal_fallback_reports_the_same_tear_offset(self, tmp_path):
        # Whether the walk degrades from a broken seal or never had one,
        # the torn-tail offset is a property of the frame bytes alone.
        log = self._filled_log(tmp_path)
        path = tmp_path / segment_filename(0)
        buf = path.read_bytes()
        frames = list(walk_frames(buf))
        _lsn, lo, _hi = frames[5]
        frame_start = lo - FRAME_PREFIX_SIZE - 9  # frame + body prefixes
        damaged = bytearray(buf)
        damaged[lo + 1] ^= 0x55
        path.write_bytes(bytes(damaged))
        _records, tear_with_seal, _ = log.store.load_segment(0)
        pages_path(path).unlink()
        _records, tear_without_seal, _ = log.store.load_segment(0)
        assert tear_with_seal == tear_without_seal == frame_start
        log.store.close()


class TestPreSealCompat:
    """Directories written before segment sidecars existed (none
    anywhere) must stay fully readable — the wire format never changed,
    only the accelerator beside it."""

    def test_directory_without_seals_cold_starts(self, tmp_path):
        log = durable_log(tmp_path, segment_size=8)
        for i in range(20):
            log.append(LogicalRedo((i,)))
        log.flush()
        stripped = list(tmp_path.glob("*.pages"))
        assert len(stripped) == 2
        for sidecar in stripped:
            sidecar.unlink()
        reopened = LogManager.open(tmp_path, segment_size=8)
        assert reopened.stable_lsn == 19
        records = list(reopened.stable_records_from(0))
        assert [r.lsn for r in records] == list(range(20))
        assert [r.payload for r in records] == [LogicalRedo((i,)) for i in range(20)]
        assert reopened.page_index().sidecars_used == 0
        log.store.close()
        reopened.store.close()

    def test_handwritten_v1_segment_file_streams(self, tmp_path):
        # A fixture file built from nothing but the v1 primitives —
        # header plus concatenated frames, no sidecar.
        records = [
            LogRecord(lsn=i, payload=LogicalRedo(("op", i)), labels={"n": i})
            for i in range(5)
        ]
        path = tmp_path / segment_filename(0)
        path.write_bytes(
            encode_file_header(0)
            + b"".join(encode_record(record) for record in records)
        )
        streamed = file_records(path)
        assert [r.lsn for r in streamed] == [0, 1, 2, 3, 4]
        assert [r.payload for r in streamed] == [r.payload for r in records]
        assert [r.labels for r in streamed] == [r.labels for r in records]


# A child process that ignores SIGXFSZ and caps its file size, so the
# kernel accepts part of one window's write and refuses the rest with
# EFBIG.  It puts keys with a commit each until a put raises, then
# prints how many were acknowledged.
_RLIMIT_CHILD = """
import resource, signal, sys
from repro.engine import KVDatabase
log_dir, limit = sys.argv[1], int(sys.argv[2])
db = KVDatabase("physiological", log_dir=log_dir, checkpoint_every=None)
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
acked = 0
try:
    for i in range(1000):
        db.execute(("put", f"k{i}", i))
        acked += 1
except OSError:
    pass
print(acked)
"""


class _FlakyFile:
    """A segment handle whose first write lands 5 bytes, then fails."""

    def __init__(self, fh, error):
        self._fh = fh
        self._error = error

    def write(self, data):
        if self._error is not None:
            error, self._error = self._error, None
            self._fh.write(bytes(data[:5]))
            raise error
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestFailedWriteIsFinal:
    """A short or failed write, or a failed fsync, fails the store: no
    later force acknowledges anything, and a cold start recovers every
    acknowledged put."""

    def _db(self, tmp_path, puts):
        db = KVDatabase("physiological", log_dir=tmp_path, checkpoint_every=None)
        db.run([("put", f"k{i}", i) for i in range(puts)])
        return db

    def _assert_recovers(self, tmp_path, acked):
        cold = KVDatabase.cold_start(
            tmp_path, method="physiological", checkpoint_every=None
        )
        assert [cold.get(f"k{i}") for i in range(acked)] == list(range(acked))
        cold.close()
        cold.method.machine.log.store.close()

    @pytest.mark.parametrize("limit", [3013, 3037, 3050])
    def test_short_write_loses_no_acknowledged_put(self, tmp_path, limit):
        pytest.importorskip("resource")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        child = subprocess.run(
            [sys.executable, "-c", _RLIMIT_CHILD, str(tmp_path / "log"), str(limit)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        acked = int(child.stdout)
        assert 0 < acked < 1000  # the limit cut the run short
        self._assert_recovers(tmp_path / "log", acked)

    def test_transient_enospc_mid_write_is_final(self, tmp_path):
        db = self._db(tmp_path, 10)
        log = db.method.machine.log
        handle = log.store._handles[-1]
        handle.fh = _FlakyFile(handle.fh, OSError(errno.ENOSPC, "no space"))
        for i in (10, 11):  # the failed put, then one that would succeed
            with pytest.raises(OSError) as raised:
                db.execute(("put", f"k{i}", i))
            assert raised.value.errno == errno.ENOSPC
            assert log.stable_lsn == 9
        log.store.close()
        self._assert_recovers(tmp_path, 10)

    def test_failed_fsync_is_final_until_crash(self, tmp_path, monkeypatch):
        db = self._db(tmp_path, 1)
        log = db.method.machine.log
        real_fsync = os.fsync
        failures = [OSError(errno.EIO, "fsync failed")]

        def fsync(fd):
            if failures:
                raise failures.pop()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        for i in (1, 2):  # the put whose fsync fails, then one that would not
            with pytest.raises(OSError) as raised:
                db.execute(("put", f"k{i}", i))
            assert raised.value.errno == errno.EIO
            assert log.stable_lsn == 0
        db.crash_and_recover()  # process death clears the failure
        db.execute(("put", "k3", 3))
        assert log.stable_lsn > 0
        db.method.machine.log.store.close()
        self._assert_recovers(tmp_path, 1)

    @pytest.mark.parametrize(
        "code", [errno.EIO, errno.ENOSPC], ids=["EIO", "ENOSPC"]
    )
    def test_health_reports_a_failed_direct_commit(self, tmp_path, monkeypatch, code):
        """No pipeline: the force runs in the committing thread, and the
        store's failure alone must turn ``health()`` to failed."""
        db = KVDatabase("physiological", log_dir=tmp_path, commit_every=1)
        db.execute(("put", "k0", 0))
        assert db.health()["state"] == "ready"
        real_fsync = os.fsync
        failures = [OSError(code, os.strerror(code))]

        def fsync(fd):
            if failures:
                raise failures.pop()
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        for i in (1, 2):
            with pytest.raises(OSError) as raised:
                db.execute(("put", f"k{i}", i))
            assert raised.value.errno == code
        health = db.health()
        assert (health["state"], health["errno"]) == ("failed", code)
        assert db.method.machine.log.store.failure.errno == code
        db.method.machine.log.store.close()
        self._assert_recovers(tmp_path, 1)


class _ShortFirstWrite:
    """A segment handle whose first write accepts only 5 bytes."""

    def __init__(self, fh):
        self._fh = fh
        self._short = True

    def write(self, data):
        if self._short:
            self._short = False
            return self._fh.write(bytes(data[:5]))
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _wrap_segment_file(monkeypatch, base_lsn, wrap):
    """Open the segment file of ``base_lsn`` through ``wrap`` (once)."""
    real_open = Path.open
    name = segment_filename(base_lsn)
    wrapped = []

    def open_(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        if self.name == name and not wrapped:
            wrapped.append(self)
            return wrap(fh)
        return fh

    monkeypatch.setattr(Path, "open", open_)


class TestFailedRotation:
    """Starting a segment file writes its whole header or fails the
    store, and a file cut short before its header is a torn tail."""

    def test_failed_rotation_fails_the_store(self, tmp_path, monkeypatch):
        log = durable_log(tmp_path, segment_size=4)
        for i in range(4):
            log.append(LogicalRedo((i,)))
        _wrap_segment_file(
            monkeypatch, 4, lambda fh: _FlakyFile(fh, OSError(errno.ENOSPC, "full"))
        )
        for attempt in ("rotation", "retry"):
            with pytest.raises(OSError) as raised:
                log.append(LogicalRedo((4,)))
            assert raised.value.errno == errno.ENOSPC, attempt
            assert [(s.base_lsn, s.end_lsn) for s in log.segments()] == [(0, 3)]
        with pytest.raises(OSError) as raised:
            log.flush()
        assert raised.value.errno == errno.ENOSPC
        assert log.stable_lsn == -1
        log.store.close()
        cold = durable_log(tmp_path, segment_size=4)
        assert cold.stable_lsn == -1  # nothing was acknowledged
        cold.store.close()

    def test_short_header_write_is_completed(self, tmp_path, monkeypatch):
        log = durable_log(tmp_path, segment_size=4)
        _wrap_segment_file(monkeypatch, 4, _ShortFirstWrite)
        for i in range(6):
            log.append(LogicalRedo((i,)))
        log.flush()
        log.store.close()
        cold = durable_log(tmp_path, segment_size=4)
        assert [r.payload.description[0] for r in cold.stable_records_from(0)] == list(
            range(6)
        )
        cold.store.close()

    @pytest.mark.parametrize("size", [0, 5, FILE_HEADER_SIZE - 1])
    def test_trailing_file_shorter_than_its_header_is_a_torn_tail(
        self, tmp_path, size
    ):
        db = KVDatabase("physiological", log_dir=tmp_path, log_segment_size=4)
        stream = [("put", f"k{i}", i) for i in range(6)]
        db.run(stream)
        db.sync()
        db.method.machine.log.store.close()
        short = tmp_path / segment_filename(8)
        short.write_bytes(encode_file_header(8)[:size])
        pages_path(short).write_bytes(b"stale")
        assert main(["logdump", str(tmp_path)]) == 1
        report = scan_log_tail(tmp_path)
        assert [tear["file"] for tear in report["torn_tails"]] == [short.name]
        assert report["errors"] == []
        cold = KVDatabase.cold_start(tmp_path, method="physiological", log_segment_size=4)
        assert cold.verify_against(stream) == 6
        assert not short.exists() and not pages_path(short).exists()
        cold.execute(("put", "k6", 6))  # the log rotates into LSN 8 again
        cold.execute(("put", "k7", 7))
        cold.execute(("put", "k8", 8))
        cold.method.machine.log.store.close()
        again = KVDatabase.cold_start(tmp_path, method="physiological", log_segment_size=4)
        assert again.verify_against(stream + [("put", f"k{i}", i) for i in (6, 7, 8)]) == 9
        again.method.machine.log.store.close()

    def test_short_file_before_the_last_is_structural(self, tmp_path):
        log = durable_log(tmp_path, segment_size=4)
        for i in range(6):
            log.append(LogicalRedo((i,)))
        log.flush()
        log.store.close()
        (tmp_path / segment_filename(8)).write_bytes(b"RLOG")
        (tmp_path / segment_filename(12)).write_bytes(encode_file_header(12))
        assert main(["logdump", str(tmp_path)]) == 2
        assert scan_log_tail(tmp_path)["errors"]
        with pytest.raises(CodecError, match="shorter than its header"):
            durable_log(tmp_path, segment_size=4)

    def test_postmortem_reports_a_segment_that_is_not_lsn_dense(self, tmp_path):
        log = durable_log(tmp_path, segment_size=4)
        for i in range(6):
            log.append(LogicalRedo((i,)))
        log.flush()
        log.store.close()
        # Segment 4's frames carry LSNs 4 and 5 under a header claiming 5.
        path = tmp_path / segment_filename(4)
        path.write_bytes(encode_file_header(5) + path.read_bytes()[FILE_HEADER_SIZE:])
        report = scan_log_tail(tmp_path)
        assert report["records"] == 4 and report["last_lsn"] == 3
        assert report["torn_tails"] == []
        [error] = report["errors"]
        assert error.startswith(f"{path.name}: segment 5 holds LSN 4")
