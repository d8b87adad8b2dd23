"""Unit tests for the install scheduler — the live §5 write graph that
is the buffer pool's single flush authority.

Each test exercises one of the four transformations (collapse, add-edge,
install, remove-write) or one of the query surfaces the pool and the
recovery methods consult (blockers, rec_lsns, minimal_pages...), except
:class:`TestFlushSavings`, which counts what the scheduler saves a whole
engine in page flushes.
"""

import pytest

from repro.cache.scheduler import (
    InstallScheduler,
    SchedulerCycleError,
    SchedulerError,
)
from repro.engine import KVDatabase
from repro.sim.audit import AuditTracker
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload


class TestCollapse:
    def test_first_update_creates_a_node(self):
        sched = InstallScheduler()
        node = sched.collapse("p1", lsn=10)
        assert node.writes == 1
        assert node.rec_lsn == 10
        assert node.last_lsn == 10
        assert len(sched) == 1

    def test_later_updates_merge_into_the_same_node(self):
        """One copy per page: the recLSN is the *first* update's LSN, the
        lastLSN the latest — exactly the dirty-page-table discipline."""
        sched = InstallScheduler()
        first = sched.collapse("p1", lsn=10)
        again = sched.collapse("p1", lsn=25)
        assert again is first
        assert first.writes == 2
        assert first.rec_lsn == 10
        assert first.last_lsn == 25
        assert sched.stats.collapses == 1

    def test_untagged_updates_leave_lsns_alone(self):
        sched = InstallScheduler()
        node = sched.collapse("p1")
        assert node.rec_lsn == -1
        sched.collapse("p1", lsn=5)
        assert node.rec_lsn == 5

    def test_new_generation_after_install(self):
        """Install retires the node; the next update starts a fresh
        generation with its own recLSN."""
        sched = InstallScheduler()
        sched.collapse("p1", lsn=10)
        sched.install("p1")
        node = sched.collapse("p1", lsn=40)
        assert node.rec_lsn == 40
        assert node.writes == 1


class TestAddEdge:
    def test_edge_blocks_the_target(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.collapse("b", lsn=2)
        sched.add_edge("a", "b")
        assert sched.blockers("b") == ["a"]
        assert sched.minimal_pages() == ["a"]

    def test_self_edge_is_a_cycle(self):
        sched = InstallScheduler()
        sched.collapse("a")
        with pytest.raises(SchedulerCycleError, match="self-ordering"):
            sched.add_edge("a", "a")

    def test_closing_a_cycle_is_refused(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.collapse("c")
        sched.add_edge("a", "b")
        sched.add_edge("b", "c")
        with pytest.raises(SchedulerCycleError, match="cycle"):
            sched.add_edge("c", "a")
        assert sched.stats.cycles_refused == 1

    def test_duplicate_edge_counted_once(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        key1 = sched.add_edge("a", "b")
        key2 = sched.add_edge("a", "b")
        assert key1 == key2
        assert sched.stats.edges_added == 1

    def test_edge_against_clean_page_makes_an_obligation_node(self):
        """The no-retroactive-discharge mechanism: a missing endpoint
        gets an empty node (writes == 0) that no past flush satisfies."""
        sched = InstallScheduler()
        sched.collapse("then", lsn=3)
        sched.add_edge("first", "then")
        obligation = sched.live_node("first")
        assert obligation is not None
        assert obligation.writes == 0
        assert sched.blockers("then") == ["first"]
        # Obligation nodes are not the analysis pass's business.
        assert "first" not in sched.rec_lsns()


class TestInstall:
    def test_install_retires_and_discharges(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.collapse("b", lsn=2)
        edge = sched.add_edge("a", "b")
        assert sched.has_edge_ids(*edge)
        sched.install("a")
        assert not sched.has_edge_ids(*edge)
        assert sched.live_node("a") is None
        assert sched.blockers("b") == []
        assert sched.stats.installs == 1

    def test_install_with_live_predecessor_raises(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.add_edge("a", "b")
        with pytest.raises(SchedulerError, match="predecessors"):
            sched.install("b")

    def test_force_install_bypasses_ordering(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.add_edge("a", "b")
        node = sched.install("b", force=True)
        assert node is not None and node.installed

    def test_empty_obligation_node_cannot_install(self):
        """No page write backs an obligation node, so even a forced
        install is meaningless — the pool must refuse, not fabricate."""
        sched = InstallScheduler()
        sched.collapse("then")
        sched.add_edge("first", "then")
        with pytest.raises(SchedulerError, match="empty ordering obligation"):
            sched.install("first", force=True)

    def test_install_of_unknown_page_is_noop(self):
        assert InstallScheduler().install("ghost") is None


class TestRemoveWrite:
    def test_elision_retires_and_discharges(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.remove_write("a")
        assert sched.live_node("a") is None
        assert sched.rec_lsns() == {}
        assert sched.stats.elisions == 1

    def test_elision_refused_while_a_successor_is_live(self):
        """Elision leaves the page LSN on disk where it was, so the
        node's records stay in the redo set; an outgoing edge says one
        of them reads the successor page, and may not be discharged by
        skipping.  Once the edge is gone the same node may elide."""
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.collapse("b", lsn=2)
        edge = sched.add_edge("a", "b")
        assert sched.dependents("a") == ["b"] and sched.dependents("b") == []
        with pytest.raises(SchedulerError, match="successors"):
            sched.remove_write("a")
        assert sched.has_edge_ids(*edge) and sched.stats.elisions == 0
        sched.install("a")  # the real write discharges the edge
        sched.collapse("a", lsn=3)
        assert sched.dependents("a") == []
        assert sched.remove_write("a") is not None

    def test_elision_respects_ordering(self):
        """An ordered-before obligation is not dischargeable by skipping
        the IO: the predecessor's content must still land first."""
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.add_edge("a", "b")
        with pytest.raises(SchedulerError, match="predecessors"):
            sched.remove_write("b")

    def test_elision_of_unknown_page_is_noop(self):
        assert InstallScheduler().remove_write("ghost") is None


class TestQueries:
    def test_rec_lsns_is_the_dirty_page_table(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=10)
        sched.collapse("b", lsn=20)
        sched.collapse("a", lsn=30)
        assert sched.rec_lsns() == {"a": 10, "b": 20}
        sched.install("a")
        assert sched.rec_lsns() == {"b": 20}
        sched.remove_write("b")
        assert sched.rec_lsns() == {}

    def test_untagged_nodes_omitted_from_rec_lsns(self):
        sched = InstallScheduler()
        sched.collapse("a")  # no LSN tag
        assert sched.rec_lsns() == {}

    def test_set_rec_lsn_corrects_an_adopted_page(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=50)  # adoption stamps the *final* LSN
        sched.set_rec_lsn("a", 10)  # the first-replayed LSN is the truth
        assert sched.rec_lsns() == {"a": 10}
        assert sched.live_node("a").last_lsn == 50

    def test_pending_edges_views(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.collapse("c")
        sched.add_edge("a", "b")
        sched.add_edge("a", "c")
        pairs = {(first, then) for first, then, _ in sched.pending_edges()}
        assert pairs == {("a", "b"), ("a", "c")}

    def test_minimal_pages_are_the_installable_frontier(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.collapse("c")
        sched.add_edge("a", "b")
        assert sched.minimal_pages() == ["a", "c"]

    def test_len_counts_live_nodes(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("b")
        sched.install("a")
        assert len(sched) == 1


class TestIntegrityAndCrash:
    def test_self_check_healthy(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.collapse("b", lsn=2)
        sched.add_edge("a", "b")
        assert sched.self_check() == []

    def test_self_check_catches_corruption(self):
        sched = InstallScheduler()
        node = sched.collapse("a", lsn=5)
        node.rec_lsn = 9  # recLSN after lastLSN: impossible history
        assert any("recLSN" in problem for problem in sched.self_check())

    def test_reset_loses_everything(self):
        sched = InstallScheduler()
        sched.collapse("a", lsn=1)
        sched.collapse("b", lsn=2)
        sched.add_edge("a", "b")
        sched.reset()
        assert len(sched) == 0
        assert sched.pending_edges() == []
        assert sched.rec_lsns() == {}
        assert sched.self_check() == []

    def test_stats_as_dict(self):
        sched = InstallScheduler()
        sched.collapse("a")
        sched.collapse("a")
        sched.install("a")
        stats = sched.stats.as_dict()
        assert stats["installs"] == 1
        assert stats["collapses"] == 1
        assert set(stats) == {
            "installs", "collapses", "elisions", "edges_added", "cycles_refused",
        }


# Page flushes over the stream below (seed 16, 1 500 commands): the
# scheduler-driven pool's exact count (the run is deterministic), then the
# retired recency-only pool's last run and the durable prefix it reached.
FLUSH_COUNTS = {
    "logical": (0, 0, 675),
    "physical": (270, 350, 669),
    "physiological": (210, 307, 669),
    "generalized": (254, 367, 675),
}
SAVINGS_FLOOR = {"physical": 0.10, "physiological": 0.20, "generalized": 0.20}


class TestFlushSavings:
    """Flush elision and graph-driven victim choice, end to end: on a
    mixed hotspot workload under cache pressure the pool flushes fewer
    pages than the recorded recency-only baseline, at equal
    recoverability — the same durable prefix, and Corollary 5 (with the
    scheduler cross-check) holding at every audit."""

    @pytest.mark.parametrize("method", sorted(FLUSH_COUNTS))
    def test_fewer_flushes_than_the_recorded_legacy_pool(self, method):
        # Audits lift every record to an abstract operation: physical and
        # physiological cannot express cross-page copyadd, so they get a
        # put/add mix.
        mix = (
            dict(put_ratio=0.3, add_ratio=0.15)
            if method in ("physical", "physiological")
            else dict(put_ratio=0.25, add_ratio=0.1, copyadd_ratio=0.1)
        )
        spec = KVWorkloadSpec(
            n_operations=1_500, n_keys=200, delete_ratio=0.0,
            hot_fraction=0.7, hot_keys=6, value_range=8, **mix,
        )
        db = KVDatabase(
            method=method, cache_capacity=8, n_pages=32,
            commit_every=3, checkpoint_every=40,
        )
        tracker = AuditTracker(db.method)
        stream = generate_kv_workload(16, spec)
        for index, command in enumerate(stream, start=1):
            db.execute(command)
            if index % 25 == 0:
                assert tracker.audit(instant=index), f"audit failed at {index}"
        flushes = db.method.machine.pool.flushes  # recovery resets the pool
        db.crash_and_recover()

        expected, legacy_flushes, legacy_durable = FLUSH_COUNTS[method]
        assert db.verify_against(stream) == legacy_durable
        assert flushes == expected
        if method in SAVINGS_FLOOR:
            saved = 1 - flushes / legacy_flushes
            assert saved >= SAVINGS_FLOOR[method], f"saved only {saved:.1%}"
