"""Edge-case tests sweeping the corners the main suites skim over."""

import pytest

from repro.core.expr import Concat, Const, Sub, Var
from repro.core.model import State
from repro.logmgr import LogManager, LogicalRedo, PageAction
from repro.methods import Machine, PhysiologicalKV
from repro.storage import Disk, Page


class TestMachineOptions:
    def test_wal_can_be_disabled(self):
        """A machine without WAL enforcement flushes pages freely — the
        configuration exists so experiments can show why WAL matters."""
        machine = Machine(enforce_wal=False)
        assert machine.pool.log_manager is None
        entry = machine.log.append(LogicalRedo(("x",)))
        machine.pool.update(
            "p", lambda p: p.put("k", 1, lsn=entry.lsn), create=True
        )
        machine.pool.flush_page("p")  # no log force happened
        assert machine.log.stable_lsn == -1
        assert machine.disk.read_page("p").get("k") == 1

    def test_reboot_preserves_capacity(self):
        machine = Machine(cache_capacity=7)
        machine.crash()
        machine.reboot_pool()
        assert machine.pool.capacity == 7
        assert not machine.crashed


class TestStateEdges:
    def test_none_default_state(self):
        state = State(default=None)
        assert state["anything"] is None
        updated = state.updated({"x": 0})
        assert updated["x"] == 0 and updated["y"] is None

    def test_bound_variables(self):
        state = State({"x": 1})
        state.set("y", 2)
        assert state.bound_variables() == {"x", "y"}


class TestExprEdges:
    def test_sub_and_rsub(self):
        assert Sub(Const(10), Var("x")).evaluate({"x": 3}) == 7
        assert (1 - Var("x")).evaluate({"x": 3}) == -2

    def test_concat_variables(self):
        expr = Concat(Var("a"), Concat(Const("-"), Var("b")))
        assert expr.evaluate({"a": "x", "b": "y"}) == "x-y"
        assert expr.variables() == frozenset({"a", "b"})


class TestPageActionEdges:
    def test_set_meta_is_put(self):
        page = Page("p")
        PageAction("set-meta", ("__type__", "leaf")).apply_to(page, lsn=1)
        assert page.get("__type__") == "leaf"
        assert page.lsn == 1

    def test_copycell_missing_source(self):
        page = Page("p")
        PageAction("copycell", ("dst", "ghost", 4)).apply_to(page)
        assert page.get("dst") == 4

    def test_truncate_empty_page(self):
        page = Page("p")
        PageAction("truncate", ("k",)).apply_to(page, lsn=2)
        assert len(page) == 0 and page.lsn == 2

    def test_action_str(self):
        assert str(PageAction("put", ("k", 1))) == "put('k', 1)"


class TestLogManagerEdges:
    def test_flush_beyond_end_is_clamped(self):
        log = LogManager()
        log.append(LogicalRedo(("a",)))
        log.flush(up_to_lsn=99)
        assert log.stable_lsn == 0

    def test_repeated_flush_counts_once_per_advance(self):
        log = LogManager()
        log.append(LogicalRedo(("a",)))
        log.flush()
        flushes = log.forced_flushes
        log.flush()  # nothing new to force
        assert log.forced_flushes == flushes

    def test_crash_on_empty_log(self):
        log = LogManager()
        log.crash()
        assert len(log) == 0


class TestDiskEdges:
    def test_faults_fire_in_arming_order(self):
        from repro.storage import LostWriteFault

        disk = Disk()
        disk.write_page(Page("p", {"k": 0}))
        disk.arm_fault(LostWriteFault("p"))
        disk.arm_fault(LostWriteFault("p"))
        disk.write_page(Page("p", {"k": 1}))  # lost
        disk.write_page(Page("p", {"k": 2}))  # lost
        disk.write_page(Page("p", {"k": 3}))  # lands
        assert disk.read_page("p").get("k") == 3

    def test_fault_for_other_page_does_not_fire(self):
        from repro.storage import LostWriteFault

        disk = Disk()
        disk.arm_fault(LostWriteFault("other"))
        disk.write_page(Page("p", {"k": 1}))
        assert disk.read_page("p").get("k") == 1


class TestMethodEdges:
    def test_get_before_any_write(self):
        kv = PhysiologicalKV(Machine(), n_pages=2)
        assert kv.get("nothing") is None

    def test_dump_empty(self):
        kv = PhysiologicalKV(Machine(), n_pages=2)
        assert kv.dump() == {}

    def test_recover_on_empty_log(self):
        kv = PhysiologicalKV(Machine(), n_pages=2)
        kv.crash()
        kv.recover()
        assert kv.dump() == {}

    def test_checkpoint_on_empty_history(self):
        kv = PhysiologicalKV(Machine(), n_pages=2)
        kv.checkpoint()
        kv.put("k", 1)
        kv.commit()
        kv.crash()
        kv.recover()
        assert kv.get("k") == 1
