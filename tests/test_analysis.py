"""Tests for the ARIES-style analysis phase (§4.3 made concrete)."""

from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    MultiPageRedo,
    PageAction,
    PhysiologicalRedo,
)
from repro.methods import Machine, PhysiologicalKV
from repro.methods.physiological import analysis_pass


def phys(lsn, page):
    return LogRecord(lsn, PhysiologicalRedo(page, PageAction("put", ("k", lsn))))


def ckpt(lsn, table: dict):
    return LogRecord(
        lsn, CheckpointRecord(("physiological", tuple(sorted(table.items()))))
    )


class TestAnalysisPass:
    def test_empty_log(self):
        table, redo_start = analysis_pass([])
        assert table == {} and redo_start == 0

    def test_no_checkpoint_scans_from_zero(self):
        table, redo_start = analysis_pass([phys(0, "a"), phys(1, "b")])
        assert table == {"a": 0, "b": 1}
        assert redo_start == 0

    def test_checkpoint_table_is_seed(self):
        entries = [phys(0, "a"), ckpt(1, {"a": 0}), phys(2, "b")]
        table, redo_start = analysis_pass(entries)
        assert table == {"a": 0, "b": 2}
        assert redo_start == 0  # a's recLSN is before the checkpoint

    def test_clean_table_starts_after_checkpoint(self):
        entries = [phys(0, "a"), ckpt(1, {}), phys(2, "b")]
        table, redo_start = analysis_pass(entries)
        assert table == {"b": 2}
        assert redo_start == 2

    def test_empty_table_and_no_tail(self):
        entries = [phys(0, "a"), ckpt(1, {})]
        table, redo_start = analysis_pass(entries)
        assert table == {}
        assert redo_start == 2  # nothing to redo: start past the checkpoint

    def test_later_checkpoint_wins(self):
        entries = [
            ckpt(0, {"stale": 0}),
            phys(1, "a"),
            ckpt(2, {"a": 1}),
            phys(3, "a"),  # already in table: recLSN stays 1
            phys(4, "b"),
        ]
        table, redo_start = analysis_pass(entries)
        assert table == {"a": 1, "b": 4}
        assert redo_start == 1

    def test_multipage_records_dirty_written_pages(self):
        record = LogRecord(
            0,
            MultiPageRedo(
                ("src",), {"dst": (PageAction("copyfrom", ("src", "s", "d", 1)),)}
            ),
        )
        table, redo_start = analysis_pass([record])
        assert table == {"dst": 0}
        assert "src" not in table  # read pages are not dirtied


class TestAnalysisDrivesRecovery:
    def test_recovery_scans_only_from_reconstructed_start(self):
        kv = PhysiologicalKV(Machine(cache_capacity=32), n_pages=4)
        for i in range(6):
            kv.put(f"k{i}", i)
        kv.commit()
        kv.machine.pool.flush_all()  # dirty table drains
        kv.checkpoint()              # snapshot: empty table
        kv.put("late1", 1)
        kv.put("late2", 2)
        kv.commit()
        kv.crash()
        kv.recover()
        assert kv.dump()["late1"] == 1 and kv.dump()["late2"] == 2
        assert kv.stats.records_replayed == 2

    def test_fuzzy_checkpoint_keeps_old_reclsn(self):
        """A page dirty across the checkpoint keeps its pre-checkpoint
        recLSN in the snapshot, so redo starts early enough."""
        kv = PhysiologicalKV(Machine(cache_capacity=32), n_pages=1)
        kv.put("early", 1)   # dirties the single page at LSN 0
        kv.checkpoint()      # fuzzy: page still dirty, snapshot has recLSN 0
        kv.put("later", 2)
        kv.commit()
        kv.crash()
        kv.recover()
        assert kv.dump() == {"early": 1, "later": 2}
        assert kv.stats.records_replayed == 2  # both records redone
