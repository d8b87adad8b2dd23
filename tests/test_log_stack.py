"""Tests for the unified log stack: segments and the
fault-injection cases that show which assumptions are load-bearing."""

from __future__ import annotations

import pytest

from repro.engine.kv import KVDatabase, VerificationError
from repro.logmgr import (
    CheckpointRecord,
    LogManager,
    LogicalRedo,
    PageAction,
    PhysiologicalRedo,
)
from repro.methods import METHODS, Machine
from repro.storage.disk import LostWriteFault, TornWriteFault


# ----------------------------------------------------------------------
# Segmented log manager
# ----------------------------------------------------------------------


class TestSegments:
    def test_records_span_segments(self):
        manager = LogManager(segment_size=4)
        for i in range(10):
            manager.append(LogicalRedo(("op", i)))
        assert [s.base_lsn for s in manager.segments()] == [0, 4, 8]
        assert [r.lsn for r in manager.records_from(0)] == list(range(10))
        assert manager.segment_containing(5).base_lsn == 4

    def test_segment_stable_boundary(self):
        manager = LogManager(segment_size=4)
        for i in range(10):
            manager.append(LogicalRedo(("op", i)))
        manager.flush(up_to_lsn=5)
        # A sealed, fully stable segment reports its own end.
        assert manager.segment_stable_boundary(2) == 3
        # The segment holding the watermark reports the watermark.
        assert manager.segment_stable_boundary(4) == 5
        assert manager.segment_stable_boundary(7) == 5
        assert manager.segment_stable_boundary(9) == 5

    def test_crash_drops_volatile_tail_across_segments(self):
        manager = LogManager(segment_size=3)
        for i in range(8):
            manager.append(LogicalRedo(("op", i)))
        manager.flush(up_to_lsn=4)
        manager.crash()
        assert [r.lsn for r in manager.records_from(0)] == [0, 1, 2, 3, 4]
        assert manager.next_lsn == 5

    def test_checkpoint_index_survives_crash(self):
        manager = LogManager(segment_size=4)
        manager.append(LogicalRedo(("op", 0)))
        manager.append(CheckpointRecord(("test",)))
        manager.flush()
        manager.append(LogicalRedo(("op", 1)))
        manager.append(CheckpointRecord(("test",)))  # never flushed
        assert manager.last_stable_checkpoint_lsn == 1
        manager.crash()
        assert manager.last_stable_checkpoint_lsn == 1


class TestWalCheckSegmented:
    def test_pool_wal_check_forces_the_needed_prefix(self):
        machine = Machine(log=LogManager(segment_size=4))
        entry = None
        for i in range(6):
            entry = machine.log.append(
                PhysiologicalRedo("p1", PageAction("put", (f"k{i}", i)))
            )
            machine.pool.update(
                "p1",
                lambda p, a=entry: a.payload.action.apply_to(p, lsn=a.lsn),
                create=True,
            )
        # Nothing flushed yet; flushing the page must force the log first.
        machine.pool.flush_page("p1", force=True)
        assert machine.log.stable_lsn >= entry.lsn


# ----------------------------------------------------------------------
# Fault injection through a WAL-passing flush
# ----------------------------------------------------------------------


class TestFaultsThroughWal:
    """Arm disk faults on flushes that satisfy the WAL rule, and check
    which recovery methods notice."""

    STREAM = [("put", "alpha", 1), ("put", "beta", 2)]

    def _physiological_with_faulted_flush(self, fault_cls, **fault_kwargs):
        db = KVDatabase(method="physiological", n_pages=2, commit_every=1)
        db.run(self.STREAM)
        page_id = db.method.page_of("alpha")
        machine = db.method.machine
        machine.disk.arm_fault(fault_cls(page_id, **fault_kwargs))
        # The flush passes wal_check (the log is already stable) and the
        # armed fault silently corrupts the page write.
        machine.pool.flush_page(page_id, force=True)
        return db, page_id

    def test_lost_write_is_repaired_by_lsn_redo(self):
        db, _ = self._physiological_with_faulted_flush(LostWriteFault)
        db.crash_and_recover()
        # The dropped write left the old page image (old LSN) on disk, so
        # the LSN redo test correctly says "not installed" and replays.
        db.verify_against(self.STREAM)

    def test_torn_write_defeats_the_lsn_test(self):
        # Fill one page with several cells so a torn write can keep some.
        db = KVDatabase(method="physiological", n_pages=1, commit_every=1)
        stream = [("put", f"k{i}", i) for i in range(4)]
        db.run(stream)
        page_id = db.method.page_of("k0")
        machine = db.method.machine
        machine.disk.arm_fault(TornWriteFault(page_id, keep_cells=1))
        machine.pool.flush_page(page_id, force=True)
        db.crash()
        db.recover()
        # The torn image carries the *maximum* LSN but only a prefix of
        # the cells: the page-LSN redo test is fooled into skipping the
        # replay.  The atomic-page-write assumption is load-bearing.
        with pytest.raises(VerificationError):
            db.verify_against(stream)

    def test_torn_write_is_repaired_by_blind_physical_replay(self):
        db = KVDatabase(method="physical", n_pages=1, commit_every=1)
        stream = [("put", f"k{i}", i) for i in range(4)]
        db.run(stream)
        page_id = db.method.page_of("k0")
        machine = db.method.machine
        machine.disk.arm_fault(TornWriteFault(page_id, keep_cells=1))
        machine.pool.flush_page(page_id, force=True)
        db.crash_and_recover()
        # No checkpoint was taken, so physical recovery blindly replays
        # the whole log; blind replay does not consult the (lying) page
        # LSN and rebuilds every cell.
        db.verify_against(stream)


# ----------------------------------------------------------------------
# Crash during recovery: idempotence
# ----------------------------------------------------------------------


class _AbortReplay(Exception):
    pass


def _crash_midway_through_recovery(db: KVDatabase, after_applies: int) -> bool:
    """Run recover() but crash after ``after_applies`` replay
    applications.  Returns True if the injected crash fired."""
    calls = {"n": 0}
    if db.method_name == "logical":
        # Logical replay runs each record's own interpreter.
        from repro.logmgr import LogicalRedo

        original = LogicalRedo.apply_to

        def wrapper(record, page_for_update, page_for_read):
            if calls["n"] >= after_applies:
                raise _AbortReplay()
            calls["n"] += 1
            return original(record, page_for_update, page_for_read)

        LogicalRedo.apply_to = wrapper
        try:
            db.recover()
            return False
        except _AbortReplay:
            return True
        finally:
            LogicalRedo.apply_to = original
    # Page-based methods funnel every replay through pool.update; the
    # pool is rebuilt by reboot_pool inside recover(), so patch the class.
    from repro.cache.pool import BufferPool

    original_update = BufferPool.update

    def wrapper(self, page_id, mutate, create=False):
        if calls["n"] >= after_applies:
            raise _AbortReplay()
        calls["n"] += 1
        return original_update(self, page_id, mutate, create)

    BufferPool.update = wrapper
    try:
        db.recover()
        return False
    except _AbortReplay:
        return True
    finally:
        BufferPool.update = original_update


class TestCrashDuringRecovery:
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("after_applies", [0, 1, 3])
    def test_recovery_is_idempotent_under_crashes(self, method, after_applies):
        db = KVDatabase(
            method=method, n_pages=4, cache_capacity=4, checkpoint_every=7
        )
        stream = []
        for i in range(20):
            stream.append(("put", f"k{i % 8}", i))
            if i % 4 == 0:
                stream.append(("add", f"k{i % 8}", 1000))
        db.run(stream)
        db.crash()
        fired = _crash_midway_through_recovery(db, after_applies)
        # Whether or not the first recovery got far enough to be
        # interrupted, a fresh crash + full recovery must converge.
        db.crash()
        db.recover()
        db.verify_against(stream)
        if after_applies == 0:
            assert fired, "the injected mid-recovery crash never fired"

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_double_recovery_is_a_fixpoint(self, method):
        db = KVDatabase(method=method, n_pages=4, checkpoint_every=5)
        stream = [("put", f"k{i % 6}", i) for i in range(17)]
        db.run(stream)
        db.crash_and_recover()
        first = db.method.dump()
        db.crash_and_recover()
        assert db.method.dump() == first
        db.verify_against(stream)
