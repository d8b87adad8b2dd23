"""Unit tests for the §6 recovery-method engines."""

import pytest

from repro.engine import KVDatabase
from repro.logmgr import TOMBSTONE, PhysicalRedo
from repro.methods import METHODS, LogicalKV, Machine, PhysicalKV, PhysiologicalKV
from repro.methods.base import page_of


class TestMachine:
    def test_crash_drops_cache_and_log_tail(self):
        machine = Machine()
        from repro.logmgr import LogicalRedo

        machine.log.append(LogicalRedo(("a",)))
        machine.log.flush()
        machine.log.append(LogicalRedo(("b",)))
        machine.pool.update("p1", lambda p: p.put("k", 1), create=True)
        machine.crash()
        assert machine.crashed
        assert len(machine.log) == 1
        assert not machine.pool.is_cached("p1")

    def test_page_of_is_stable_across_processes(self):
        # crc32-based, not salted-hash-based.
        assert page_of("hello", 8) == f"data{0x3610a686 % 8:03d}"

    def test_page_of_spreads_keys(self):
        pages = {page_of(f"k{i}", 8) for i in range(64)}
        assert len(pages) > 4


@pytest.fixture(params=sorted(METHODS))
def method(request):
    return METHODS[request.param](Machine(cache_capacity=4), n_pages=4)


class TestCommonBehavior:
    """Contract tests run against every method."""

    def test_put_get_roundtrip(self, method):
        method.put("alpha", 1)
        method.put("beta", 2)
        assert method.get("alpha") == 1
        assert method.get("beta") == 2
        assert method.get("missing") is None

    def test_delete(self, method):
        method.put("alpha", 1)
        method.delete("alpha")
        assert method.get("alpha") is None

    def test_dump_matches_puts(self, method):
        for i in range(10):
            method.put(f"k{i}", i)
        method.delete("k3")
        expected = {f"k{i}": i for i in range(10) if i != 3}
        assert method.dump() == expected

    def test_nothing_durable_without_commit(self, method):
        method.put("alpha", 1)
        assert method.durable_count() == 0
        method.crash()
        method.recover()
        assert method.get("alpha") is None

    def test_commit_makes_durable(self, method):
        method.put("alpha", 1)
        method.commit()
        assert method.durable_count() == 1
        method.crash()
        method.recover()
        assert method.get("alpha") == 1

    def test_checkpoint_then_crash(self, method):
        for i in range(8):
            method.put(f"k{i}", i)
        method.commit()
        method.checkpoint()
        for i in range(8, 12):
            method.put(f"k{i}", i * 10)
        method.commit()
        method.crash()
        method.recover()
        assert method.dump() == {
            **{f"k{i}": i for i in range(8)},
            **{f"k{i}": i * 10 for i in range(8, 12)},
        }

    def test_double_crash_recover(self, method):
        method.put("a", 1)
        method.commit()
        method.crash()
        method.recover()
        method.crash()
        method.recover()
        assert method.get("a") == 1

    def test_recovery_is_idempotent(self, method):
        method.put("a", 1)
        method.put("b", 2)
        method.commit()
        method.crash()
        method.recover()
        first = method.dump()
        method.recover()
        assert method.dump() == first

    def test_work_continues_after_recovery(self, method):
        method.put("a", 1)
        method.commit()
        method.crash()
        method.recover()
        method.put("b", 2)
        method.commit()
        method.crash()
        method.recover()
        assert method.dump() == {"a": 1, "b": 2}

    def test_overwrites_keep_latest(self, method):
        for value in (1, 2, 3):
            method.put("k", value)
        method.commit()
        method.crash()
        method.recover()
        assert method.get("k") == 3


class TestPhysicalSpecifics:
    def test_checkpoint_flushes_all_pages(self):
        kv = PhysicalKV(Machine(cache_capacity=16), n_pages=4)
        for i in range(6):
            kv.put(f"k{i}", i)
        kv.checkpoint()
        assert kv.machine.pool.dirty_page_ids() == []

    def test_recovery_skips_checkpointed_prefix(self):
        kv = PhysicalKV(Machine(), n_pages=4)
        for i in range(5):
            kv.put(f"k{i}", i)
        kv.checkpoint()
        kv.put("late", 99)
        kv.commit()
        kv.crash()
        kv.recover()
        # Only the post-checkpoint record is replayed.
        assert kv.stats.records_replayed == 1
        assert kv.get("late") == 99
        assert kv.get("k0") == 0  # from the flushed pages

    def test_delete_logs_a_tombstone(self):
        """A delete logs one tombstoned cell, whatever else its page
        holds: the record's size does not grow with the page."""
        sizes = []
        for occupancy in (1, 200):
            kv = PhysicalKV(Machine(), n_pages=1)
            for i in range(occupancy):
                kv.put(f"k{i:03d}", "v" * 20)
            kv.delete("k000")
            last = kv.machine.log.entries()[-1]
            assert last.payload == PhysicalRedo("data000", {"k000": TOMBSTONE})
            assert kv.get("k000") is None
            sizes.append(last.size_bytes())
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_directory_with_whole_page_delete_images_cold_starts(
        self, tmp_path, lazy
    ):
        """A directory written across the switch to tombstones: its older
        deletes are whole-page after-images, its newer ones tombstones.
        Replay must still clear the page for an image, or the keys those
        older deletes removed come back."""
        db = KVDatabase("physical", log_dir=tmp_path, n_pages=1, commit_every=1)
        for key, value in (("a", 1), ("b", 2), ("c", 3)):
            db.execute(("put", key, value))
        # What a delete of "b" logged before tombstones.
        db.method.machine.log.append(
            PhysicalRedo("data000", {"a": 1, "c": 3}, whole_page=True)
        )
        db.method.machine.pool.update("data000", lambda p: p.delete("b"))
        db.execute(("delete", "a", None))
        db.execute(("put", "d", 4))
        payloads = [r.payload for r in db.method.machine.log.records_from(0)]
        assert payloads[3].whole_page
        assert payloads[4].cells == {"a": TOMBSTONE}
        db.close()
        db.method.machine.log.store.close()
        cold = KVDatabase.cold_start(tmp_path, method="physical", n_pages=1, lazy=lazy)
        assert cold.get("b") is None
        cold.drain_lazy()
        assert cold.method.dump() == {"c": 3, "d": 4}
        cold.close()
        cold.method.machine.log.store.close()


class TestLogicalSpecifics:
    def test_stable_state_untouched_between_checkpoints(self):
        kv = LogicalKV(Machine(), n_pages=4)
        kv.put("a", 1)
        kv.commit()
        # Nothing but the shadow root exists on disk yet.
        data_pages = [p for p in kv.machine.disk.page_ids() if "data" in p]
        assert data_pages == []

    def test_checkpoint_swings_pointer(self):
        kv = LogicalKV(Machine(), n_pages=4)
        kv.put("a", 1)
        kv.checkpoint()
        assert kv.shadow.current_directory() == "B"
        assert kv.shadow.checkpoint_lsn() >= 0

    def test_recovery_starts_from_swung_state(self):
        kv = LogicalKV(Machine(), n_pages=4)
        kv.put("a", 1)
        kv.checkpoint()
        kv.put("b", 2)
        kv.commit()
        kv.crash()
        kv.recover()
        assert kv.dump() == {"a": 1, "b": 2}
        # Only the post-checkpoint record was replayed.
        assert kv.stats.records_replayed == 1

    def test_crash_mid_staging_is_harmless(self):
        kv = LogicalKV(Machine(), n_pages=4)
        kv.put("a", 1)
        kv.checkpoint()
        kv.put("a", 99)
        kv.commit()
        # Stage manually (as if a checkpoint began) but never swing.
        for page in kv._cache.values():
            kv.shadow.stage_page(page)
        kv.crash()
        kv.recover()
        assert kv.get("a") == 99  # replayed from the log, staging discarded


class TestPhysiologicalSpecifics:
    def test_redo_test_skips_installed_operations(self):
        kv = PhysiologicalKV(Machine(cache_capacity=2), n_pages=2)
        for i in range(8):
            kv.put(f"k{i}", i)
        kv.commit()
        kv.machine.pool.flush_all()  # installs everything, bumps page LSNs
        kv.crash()
        kv.recover()
        assert kv.stats.records_replayed == 0
        assert kv.stats.records_skipped >= 8
        assert kv.dump() == {f"k{i}": i for i in range(8)}

    def test_partial_flush_replays_only_missing(self):
        kv = PhysiologicalKV(Machine(cache_capacity=8), n_pages=2)
        kv.put("a", 1)   # page data000 or data001
        kv.put("b", 2)
        kv.commit()
        flushed = kv.page_of("a")
        kv.machine.pool.flush_page(flushed)
        kv.crash()
        kv.recover()
        assert kv.dump() == {"a": 1, "b": 2}
        if kv.page_of("a") != kv.page_of("b"):
            # Only b's page needed replay.
            assert kv.stats.records_replayed == 1

    def test_checkpoint_advances_redo_start(self):
        kv = PhysiologicalKV(Machine(cache_capacity=16), n_pages=2)
        for i in range(6):
            kv.put(f"k{i}", i)
        kv.commit()
        kv.machine.pool.flush_all()
        kv.checkpoint()  # dirty table empty -> redo start = next_lsn
        kv.put("late", 1)
        kv.commit()
        kv.crash()
        kv.recover()
        # The scan replays just the post-checkpoint record.
        assert kv.stats.records_replayed == 1
        assert kv.dump()["late"] == 1

    def test_sharp_checkpoint_flushes_and_shrinks_replay(self):
        fuzzy = PhysiologicalKV(Machine(cache_capacity=32), n_pages=4)
        sharp = PhysiologicalKV(
            Machine(cache_capacity=32), n_pages=4, sharp_checkpoints=True
        )
        for kv in (fuzzy, sharp):
            for i in range(10):
                kv.put(f"k{i}", i)
            kv.checkpoint()
            kv.put("late", 1)
            kv.commit()
            kv.crash()
            kv.recover()
            assert kv.dump()["late"] == 1
        assert sharp.stats.records_replayed < fuzzy.stats.records_replayed
        assert sharp.stats.records_replayed == 1  # just the late record

    def test_steal_keeps_dirty_table_honest(self):
        kv = PhysiologicalKV(Machine(cache_capacity=1), n_pages=4)
        kv.put("a", 1)
        kv.put("b", 2)  # evicts a's page (capacity 1), stealing it
        flushed_pages = [
            pid for pid in (kv.page_of("a"),) if kv.machine.disk.has_page(pid)
        ]
        if flushed_pages:
            assert flushed_pages[0] not in kv.dirty_table()


# Each case: the commands run first, then the mutation that must be refused.
_REFUSALS = {
    "add-to-a-string": ([("put", "k", "abc")], ("add", "k", 1)),
    "string-delta": ([], ("add", "k", "x")),
    "none-delta": ([("put", "k", 1)], ("add", "k", None)),
    "copy-a-string-same-page": ([("put", "s", "abc")], ("copyadd", "same", ("s", 1))),
    "copy-a-string-other-page": ([("put", "s", "abc")], ("copyadd", "other", ("s", 1))),
}


def _copy_target(command, n_pages=8):
    """Resolve ``same``/``other`` to a key on (or off) the page of ``s``."""
    kind, key, value = command
    if kind != "copyadd":
        return command
    want_same = key == "same"
    for i in range(100):
        candidate = f"k{i}"
        if (page_of(candidate, n_pages) == page_of("s", n_pages)) == want_same:
            return (kind, candidate, value)
    raise AssertionError("no key found")


class TestRefusedOperands:
    """An add or copy-add whose operands do not add is refused with
    ``TypeError`` before its record is appended, on every method: the
    log never holds a record that replay cannot apply, so the directory
    still cold-starts after it."""

    @pytest.mark.parametrize(
        "method,case",
        [
            (method, case)
            for method in sorted(METHODS)
            for case in sorted(_REFUSALS)
            if not (method == "physiological" and case.startswith("copy"))
        ],
    )
    def test_refused_before_the_append_and_the_log_recovers(
        self, method, case, tmp_path
    ):
        setup, refused = _REFUSALS[case]
        db = KVDatabase(method=method, log_dir=tmp_path, fsync=False)
        db.run(setup)
        log = db.method.machine.log
        before = log.next_lsn
        with pytest.raises(TypeError):
            db.execute(_copy_target(refused))
        assert log.next_lsn == before
        db.execute(("put", "z", 1))  # writes after the refusal still go
        db.commit()
        expected = db.method.dump()
        db.close()
        reborn = KVDatabase.cold_start(tmp_path, method=method)
        assert reborn.method.dump() == expected
        reborn.close()

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_an_add_reads_none_as_zero(self, method):
        """``None`` and an absent cell both count as 0, on every method
        and in the oracle."""
        stream = [("put", "k", None), ("add", "k", 1)]
        db = KVDatabase(method=method)
        db.run(stream)
        db.commit()
        assert db.get("k") == 1
        db.crash_and_recover()
        db.verify_against(stream)
