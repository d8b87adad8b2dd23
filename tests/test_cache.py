"""Unit tests for the buffer pool: caching, WAL, ordering, eviction."""

import pytest

from repro.cache import BufferPool, CachePolicyError
from repro.logmgr import LogManager, LogicalRedo
from repro.storage import Disk, Page


def pool_with(capacity=4, steal=True, log=False):
    disk = Disk()
    log_manager = LogManager() if log else None
    return BufferPool(disk, log_manager, capacity=capacity, steal=steal)


class TestBasics:
    def test_create_and_flush(self):
        pool = pool_with()
        page = pool.get_page("p1", create=True)
        page.put("k", 1)
        pool.mark_dirty("p1")
        pool.flush_page("p1")
        assert pool.disk.read_page("p1").get("k") == 1

    def test_miss_loads_from_disk(self):
        pool = pool_with()
        pool.disk.write_page(Page("p1", {"k": 7}))
        assert pool.get_page("p1").get("k") == 7
        assert pool.misses == 1
        pool.get_page("p1")
        assert pool.hits == 1

    def test_missing_page_without_create(self):
        with pytest.raises(KeyError):
            pool_with().get_page("nope")

    def test_update_helper(self):
        pool = pool_with()
        pool.update("p1", lambda p: p.put("k", 3), create=True)
        assert pool.is_dirty("p1")
        assert pool.get_page("p1").get("k") == 3

    def test_flush_clean_page_is_noop(self):
        pool = pool_with()
        pool.disk.write_page(Page("p1", {"k": 7}))
        pool.get_page("p1")
        pool.flush_page("p1")
        assert pool.flushes == 0

    def test_crash_loses_cache(self):
        pool = pool_with()
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.crash()
        assert not pool.is_cached("p1")
        assert not pool.disk.has_page("p1")  # never flushed


class TestWal:
    def test_flush_forces_log_first(self):
        """Write-ahead: flushing a page whose LSN is not yet stable forces
        the log through that LSN before the page write."""
        pool = pool_with(log=True)
        entry = pool.log_manager.append(LogicalRedo(("put",)))
        pool.update("p1", lambda p: p.put("k", 1, lsn=entry.lsn), create=True)
        assert pool.log_manager.stable_lsn == -1
        pool.flush_page("p1")
        assert pool.log_manager.stable_lsn >= entry.lsn
        assert pool.disk.read_page("p1").get("k") == 1

    def test_steal_eviction_also_forces_log(self):
        pool = BufferPool(Disk(), LogManager(), capacity=1)
        entry = pool.log_manager.append(LogicalRedo(("put",)))
        pool.update("p1", lambda p: p.put("k", 1, lsn=entry.lsn), create=True)
        pool.get_page("p2", create=True)  # evicts and steals p1
        assert pool.log_manager.stable_lsn >= entry.lsn
        assert pool.disk.read_page("p1").get("k") == 1

    def test_untagged_pages_bypass_wal(self):
        pool = pool_with(log=True)
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.flush_page("p1")  # lsn == -1: no WAL obligation


class TestFlushConstraints:
    def test_blocked_flush_raises(self):
        pool = pool_with()
        pool.update("new", lambda p: p.put("k", 1), create=True)
        pool.update("old", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("new", "old")
        with pytest.raises(CachePolicyError, match="careful write ordering"):
            pool.flush_page("old")

    def test_flushing_first_discharges(self):
        pool = pool_with()
        pool.update("new", lambda p: p.put("k", 1), create=True)
        pool.update("old", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("new", "old")
        pool.flush_page("new")
        pool.flush_page("old")
        assert pool.disk.read_page("old").get("k") == 2

    def test_force_bypasses_ordering(self):
        pool = pool_with()
        pool.update("new", lambda p: p.put("k", 1), create=True)
        pool.update("old", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("new", "old")
        pool.flush_page("old", force=True)  # the ablation hook
        assert pool.disk.read_page("old").get("k") == 2

    def test_flush_all_respects_order(self):
        pool = pool_with()
        order = []
        original = pool.disk.write_page

        def tracking_write(page):
            order.append(page.page_id)
            original(page)

        pool.disk.write_page = tracking_write
        pool.update("old", lambda p: p.put("k", 2), create=True)
        pool.update("new", lambda p: p.put("k", 1), create=True)
        pool.add_flush_constraint("new", "old")
        pool.flush_all()
        assert order.index("new") < order.index("old")

    def test_duplicate_constraints_are_not_cycles(self):
        """Two constraints naming the same prerequisite must both be
        satisfied by one flush of it (regression: the prerequisite
        resolver once mistook the second for a cycle)."""
        pool = pool_with()
        pool.update("a", lambda p: p.put("k", 1), create=True)
        pool.update("b", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("a", "b")
        pool.add_flush_constraint("a", "b")
        pool._flush_with_prerequisites("b")
        assert pool.disk.read_page("b").get("k") == 2
        assert pool.pending_constraints() == []

    def test_cycle_forming_constraint_resolved_by_eager_flush(self):
        """Adding an ordering that would close a cycle flushes the new
        prerequisite immediately instead (write-graph acyclicity)."""
        pool = pool_with()
        pool.update("a", lambda p: p.put("k", 1), create=True)
        pool.update("b", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("a", "b")
        constraint = pool.add_flush_constraint("b", "a")  # would be a cycle
        assert constraint.discharged
        # b (and its prerequisite a) already reached disk.
        assert pool.disk.read_page("a").get("k") == 1
        assert pool.disk.read_page("b").get("k") == 2

    def test_crash_clears_constraints(self):
        pool = pool_with()
        pool.update("a", lambda p: p.put("k", 1), create=True)
        pool.update("b", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("a", "b")
        pool.crash()
        assert pool.pending_constraints() == []


class TestRedirtyWindow:
    """Regression: a constraint registered *after* ``first_page`` was
    already flushed must not be retroactively satisfied by that earlier
    flush.  The scheduler binds the edge to the first page's current
    node generation; a clean page gets an empty obligation node, which
    only a future re-dirty-and-flush can discharge."""

    def test_past_flush_does_not_discharge(self):
        pool = pool_with()
        pool.update("first", lambda p: p.put("k", 1), create=True)
        pool.flush_page("first")  # on disk *before* the edge exists
        pool.update("then", lambda p: p.put("k", 2), create=True)
        constraint = pool.add_flush_constraint("first", "then")
        assert not constraint.discharged
        with pytest.raises(CachePolicyError, match="careful write ordering"):
            pool.flush_page("then")

    def test_clean_prerequisite_flush_is_not_a_discharge(self):
        """Flushing the clean first page is a no-op and must not count:
        the obligation names content that does not exist yet."""
        pool = pool_with()
        pool.update("first", lambda p: p.put("k", 1), create=True)
        pool.flush_page("first")
        pool.update("then", lambda p: p.put("k", 2), create=True)
        constraint = pool.add_flush_constraint("first", "then")
        pool.flush_page("first")  # clean: no-op
        assert not constraint.discharged
        with pytest.raises(CachePolicyError, match="careful write ordering"):
            pool.flush_page("then")

    def test_flush_all_refuses_undischargeable_obligation(self):
        """The prerequisite resolver cannot conjure the missing write
        either — the old bookkeeping wrongly discharged here."""
        pool = pool_with()
        pool.update("first", lambda p: p.put("k", 1), create=True)
        pool.flush_page("first")
        pool.update("then", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("first", "then")
        with pytest.raises(CachePolicyError, match="careful write ordering"):
            pool.flush_all()

    def test_redirty_and_flush_discharges(self):
        """The re-dirty window closes properly: once the first page is
        dirtied again and *that* content reaches disk, the constraint is
        discharged and the dependent page may flush."""
        pool = pool_with()
        pool.update("first", lambda p: p.put("k", 1), create=True)
        pool.flush_page("first")
        pool.update("then", lambda p: p.put("k", 2), create=True)
        constraint = pool.add_flush_constraint("first", "then")
        pool.update("first", lambda p: p.put("k", 3))  # the future write
        pool.flush_page("first")
        assert constraint.discharged
        pool.flush_page("then")
        assert pool.disk.read_page("then").get("k") == 2

    def test_redirty_window_under_eviction(self):
        """The window also closes when the re-dirtied page leaves via
        eviction (steal) rather than an explicit flush."""
        pool = pool_with(capacity=2)
        pool.update("first", lambda p: p.put("k", 1), create=True)
        pool.flush_page("first")
        pool.update("then", lambda p: p.put("k", 2), create=True)
        constraint = pool.add_flush_constraint("first", "then")
        pool.update("first", lambda p: p.put("k", 3))
        pool.get_page("then")  # make "first" the LRU victim
        pool.get_page("other", create=True)  # evicts (installs) "first"
        assert constraint.discharged
        pool.flush_page("then")
        assert pool.disk.read_page("then").get("k") == 2


class TestFlushElision:
    """Remove-write at the pool layer: a dirty page whose cells equal
    its disk image installs without IO."""

    def test_identical_content_skips_the_write(self):
        pool = pool_with()
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.flush_page("p1")
        assert pool.flushes == 1
        # Overwrite with the same value: dirty again, but content equal.
        pool.update("p1", lambda p: p.put("k", 1))
        assert pool.is_dirty("p1")
        pool.flush_page("p1")
        assert pool.flushes == 1  # no second IO
        assert not pool.is_dirty("p1")
        assert pool.scheduler.stats.elisions == 1

    def test_elision_discharges_constraints(self):
        """...only by not happening: a page another page is ordered
        after takes the real write (which stamps its LSN), because an
        elision would discharge the edge while the page's records stay
        in the redo set."""
        pool = pool_with()
        pool.update("a", lambda p: p.put("k", 1), create=True)
        pool.flush_page("a")
        pool.update("a", lambda p: p.put("k", 1))  # same content
        pool.update("b", lambda p: p.put("k", 2), create=True)
        constraint = pool.add_flush_constraint("a", "b")
        pool.flush_page("a")
        assert constraint.discharged
        assert pool.flushes == 2 and pool.scheduler.stats.elisions == 0
        pool.flush_page("b")

    def test_cycle_resolving_flush_is_a_real_write(self):
        """The eager flush that stands in for a refused edge honours an
        ordering no edge records, so it never elides either."""
        pool = pool_with()
        pool.update("a", lambda p: p.put("k", 1), create=True)
        pool.flush_page("a")
        pool.update("a", lambda p: p.put("k", 1))  # same content
        pool.update("b", lambda p: p.put("k", 2), create=True)
        pool.add_flush_constraint("b", "a")
        assert pool.add_flush_constraint("a", "b").discharged  # would cycle
        assert pool.flushes == 3 and pool.scheduler.stats.elisions == 0

    @pytest.mark.parametrize("knob", ["install_policy", "policy"])
    def test_policy_keywords_are_gone(self, knob):
        with pytest.raises(TypeError, match=knob):
            BufferPool(Disk(), **{knob: "lru"})


class TestEviction:
    def test_lru_evicts_least_recent(self):
        pool = pool_with(capacity=2)
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.update("p2", lambda p: p.put("k", 2), create=True)
        pool.get_page("p1")  # touch p1; p2 becomes LRU
        pool.update("p3", lambda p: p.put("k", 3), create=True)
        assert pool.is_cached("p1")
        assert not pool.is_cached("p2")
        # The dirty victim was flushed (steal).
        assert pool.disk.read_page("p2").get("k") == 2

    def test_no_steal_pool_rejects_dirty_eviction(self):
        pool = pool_with(capacity=1, steal=False)
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        with pytest.raises(CachePolicyError, match="no-steal"):
            pool.get_page("p2", create=True)

    def test_pinned_pages_survive(self):
        pool = pool_with(capacity=2)
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.pin("p1")
        pool.update("p2", lambda p: p.put("k", 2), create=True)
        pool.update("p3", lambda p: p.put("k", 3), create=True)
        assert pool.is_cached("p1")
        pool.unpin("p1")

    def test_all_pinned_raises(self):
        pool = pool_with(capacity=1)
        pool.update("p1", lambda p: p.put("k", 1), create=True)
        pool.pin("p1")
        with pytest.raises(CachePolicyError, match="pinned"):
            pool.get_page("p2", create=True)

    def test_unpin_without_pin(self):
        pool = pool_with()
        pool.get_page("p1", create=True)
        with pytest.raises(CachePolicyError):
            pool.unpin("p1")

    def test_iteration_survives_an_eviction(self):
        """Iterating the pool yields the pages resident when iteration
        began, even if one is evicted midway — an audit iterates the
        pool while a lazy restart's drainer evicts."""
        pool = pool_with(capacity=2)
        pool.get_page("a", create=True)
        pool.get_page("b", create=True)
        pool.get_page("a")  # b becomes the LRU victim
        pages = iter(pool)
        assert next(pages).page_id == "a"
        pool.get_page("c", create=True)  # evicts b
        assert not pool.is_cached("b")
        assert [page.page_id for page in pages] == ["b"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BufferPool(Disk(), capacity=0)
