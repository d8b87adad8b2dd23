"""Tests for the theory<->system bridge: live-engine invariant audits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.audit as audit_module
from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.exposed import exposed_variables
from repro.core.model import Operation
from repro.engine import KVDatabase
from repro.logmgr import PhysicalRedo
from repro.sim.audit import (
    AuditError,
    AuditTracker,
    audit_instant,
    audited_run,
    installation_graph_of,
)
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload
from tests.conftest import scratch_determined_state

MIXED = KVWorkloadSpec(
    n_operations=40,
    n_keys=6,
    put_ratio=0.35,
    add_ratio=0.25,
    copyadd_ratio=0.25,
    delete_ratio=0.1,
)


class TestCopyaddOperation:
    @pytest.mark.parametrize("method", ["logical", "physical"])
    def test_semantics(self, method):
        db = KVDatabase(method=method, cache_capacity=4)
        db.execute(("put", "src", 10))
        db.execute(("copyadd", "dst", ("src", 5)))
        assert db.get("dst") == 15

    @pytest.mark.parametrize("method", ["logical", "physical"])
    def test_survives_crash(self, method):
        db = KVDatabase(method=method, cache_capacity=4)
        stream = [("put", "src", 10), ("copyadd", "dst", ("src", 5))]
        db.run(stream)
        db.crash_and_recover()
        db.verify_against(stream)
        assert db.get("dst") == 15

    def test_copyadd_of_missing_source(self):
        db = KVDatabase(method="logical")
        db.execute(("copyadd", "dst", ("ghost", 3)))
        assert db.get("dst") == 3

    def test_physiological_rejects_cross_key(self):
        db = KVDatabase(method="physiological")
        with pytest.raises(NotImplementedError, match="cross-key"):
            db.execute(("copyadd", "dst", ("src", 1)))

    @pytest.mark.parametrize("method", ["logical", "physical"])
    def test_add_chain_is_exact(self, method):
        db = KVDatabase(method=method, cache_capacity=2)
        stream = [("add", "counter", 10)] * 5
        db.run(stream)
        db.crash_and_recover()
        db.verify_against(stream)
        assert db.get("counter") == 50


class TestAuditInstant:
    @pytest.mark.parametrize("method", ["logical", "physical", "physiological"])
    def test_every_instant_holds(self, method):
        spec = MIXED if method != "physiological" else KVWorkloadSpec(
            n_operations=40, n_keys=6, put_ratio=0.5, add_ratio=0.35,
            delete_ratio=0.0,
        )
        stream = generate_kv_workload(17, spec)
        db = KVDatabase(
            method=method, cache_capacity=3, commit_every=2, checkpoint_every=9
        )
        audits = audited_run(db, stream)
        assert audits, "no audits ran"
        for verdict in audits:
            assert verdict.holds, (verdict.instant, verdict.detail)

    def test_audit_counts_redo_set(self):
        db = KVDatabase(method="physiological", cache_capacity=8)
        for i in range(5):
            db.execute(("put", f"k{i}", i))
        db.commit()
        verdict = audit_instant(db)
        assert verdict.stable_records == 5
        assert verdict.redo_count == 5  # nothing flushed yet
        db.method.machine.pool.flush_all()
        verdict = audit_instant(db)
        assert verdict.redo_count == 0  # page LSNs now cover everything

    def test_audit_detects_sabotaged_page_lsn(self):
        """Forge a page LSN (claim installed without the effects): the
        audit must flag the instant."""
        db = KVDatabase(method="physiological", cache_capacity=8)
        db.execute(("add", "k", 5))
        db.execute(("add", "k", 5))
        db.commit()
        page_id = db.method.page_of("k")
        # Write a lying page image straight to disk: stale value, LSN
        # claiming the adds are installed.
        from repro.storage import Page

        db.method.machine.disk.write_page(Page(page_id, {"k": 5}, lsn=1))
        verdict = audit_instant(db)
        assert not verdict.holds
        assert "exposed" in verdict.detail

    def test_audit_detects_missing_wal(self):
        """A page flushed with effects of unstable records (WAL bypass)
        leaves the stable state unexplainable by the stable log."""
        db = KVDatabase(method="physiological", cache_capacity=8, commit_every=100)
        db.execute(("put", "k", 1))
        db.commit()
        db.execute(("add", "k", 1))  # volatile record (group commit pending)
        # Maliciously write the page (containing the volatile add's
        # effect) to disk without forcing the log.
        pool = db.method.machine.pool
        frame_page = pool.get_page(db.method.page_of("k"))
        db.method.machine.disk.write_page(frame_page)
        verdict = audit_instant(db)
        assert not verdict.holds

    def test_physical_delete_lifts_to_a_blind_write_of_none(self):
        db = KVDatabase(method="physical")
        db.execute(("put", "k", 1))
        db.execute(("delete", "k", None))
        db.commit()
        assert audit_instant(db).holds
        (_, deleted) = installation_graph_of(db).conflict.operations
        assert deleted.read_set == frozenset()
        assert deleted.compute({}) == {"k": None}

    def test_whole_page_records_rejected(self):
        """Only the B-tree logs whole-page images, and it has its own
        lifter: the KV audit refuses one by name."""
        db = KVDatabase(method="physical")
        db.execute(("put", "k", 1))
        log = db.method.machine.log
        log.append(PhysicalRedo(db.method.page_of("k"), {"k": 2}, whole_page=True))
        db.commit()
        with pytest.raises(AuditError, match="whole-page"):
            audit_instant(db)


class TestIncrementalTracking:
    @pytest.mark.parametrize("method", ["logical", "physical", "physiological"])
    def test_tracked_database_audits_clean(self, method):
        """theory_audit keeps one tracker across instants; its verdicts
        must match fresh per-instant audits."""
        spec = MIXED if method != "physiological" else KVWorkloadSpec(
            n_operations=30, n_keys=5, put_ratio=0.5, add_ratio=0.35,
            delete_ratio=0.0,
        )
        stream = generate_kv_workload(23, spec)
        db = KVDatabase(
            method=method, cache_capacity=3, commit_every=2,
            checkpoint_every=7,
        )
        for index, command in enumerate(stream, start=1):
            db.execute(command)
            if index % 5 == 0:
                tracked = db.theory_audit(instant=index)
                fresh = AuditTracker(db.method).audit(instant=index)
                assert tracked.holds, (index, tracked.detail)
                assert (tracked.stable_records, tracked.redo_count) == (
                    fresh.stable_records,
                    fresh.redo_count,
                )

    def test_tracker_lifts_each_record_once(self):
        db = KVDatabase(method="physiological")
        for i in range(6):
            db.execute(("put", f"k{i}", i))
        db.theory_audit()
        tracker = db.theory_tracker()
        graph_size = len(tracker.conflict)
        assert graph_size == 6
        db.theory_audit()  # re-audit must not re-lift anything
        assert len(tracker.conflict) == 6
        assert tracker.conflict is db.theory_tracker().conflict

    @pytest.mark.parametrize(
        "method", ["logical", "physical", "physiological", "generalized"]
    )
    def test_each_lifted_record_is_evaluated_once(self, monkeypatch, method):
        """An audit after every command evaluates each lifted operation
        exactly once over the whole run: values come from the growing
        state graph, never from a replay of the history."""
        calls = []
        evaluate = Operation.evaluate

        def counted(operation, state):
            calls.append(operation.name)
            return evaluate(operation, state)

        monkeypatch.setattr(Operation, "evaluate", counted)
        spec = MIXED if method != "physiological" else KVWorkloadSpec(
            n_operations=40, n_keys=6, put_ratio=0.5, add_ratio=0.35,
        )
        db = KVDatabase(method=method, cache_capacity=3, commit_every=2)
        audits = audited_run(db, generate_kv_workload(5, spec))
        assert all(audits)
        assert len(calls) == len(set(calls)) == audits[-1].stable_records > 30

    def test_method_level_audit_entrypoint(self):
        db = KVDatabase(method="physiological", cache_capacity=8)
        db.execute(("put", "k", 1))
        db.commit()
        db.method.machine.pool.flush_all()
        verdict = db.method.theory_audit()
        assert verdict.holds
        assert verdict.stable_records == 1


class TestLiftedGraphShapes:
    def test_physical_lifts_to_blind_writes_only(self):
        """§6.2 reproduced on the live engine: physical logs have no
        write-read or read-write conflicts — only ww chains — so the
        installation graph removes nothing."""
        stream = generate_kv_workload(8, MIXED)
        db = KVDatabase(method="physical", cache_capacity=4)
        db.run(stream)
        db.commit()
        installation = installation_graph_of(db)
        for _, _, labels in installation.conflict.edges():
            assert labels == {"ww"}
        assert installation.removed_edges() == []

    def test_logical_lifts_with_read_edges(self):
        stream = generate_kv_workload(8, MIXED)
        db = KVDatabase(method="logical", cache_capacity=4)
        db.run(stream)
        db.commit()
        installation = installation_graph_of(db)
        labels_seen = set()
        for _, _, labels in installation.conflict.edges():
            labels_seen |= labels
        assert {"ww", "wr", "rw"} <= labels_seen
        assert len(installation.removed_edges()) > 0

    def test_same_workload_more_flexibility_for_physical(self):
        """Physical's blind lifting yields at least as many installation
        prefixes as logical's read-bearing lifting on the same stream."""
        from repro.graphs import count_prefixes

        stream = generate_kv_workload(
            3,
            KVWorkloadSpec(
                n_operations=10, n_keys=3, put_ratio=0.4,
                copyadd_ratio=0.5, delete_ratio=0.0,
            ),
        )
        counts = {}
        for method in ("physical", "logical"):
            db = KVDatabase(method=method, cache_capacity=4)
            db.run(stream)
            db.commit()
            counts[method] = count_prefixes(installation_graph_of(db).dag)
        assert counts["physical"] >= counts["logical"]


class TestPropertyAudits:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_random_streams_audit_clean(self, seed):
        stream = generate_kv_workload(
            seed,
            KVWorkloadSpec(
                n_operations=25, n_keys=5, put_ratio=0.4, add_ratio=0.2,
                copyadd_ratio=0.2, delete_ratio=0.1,
            ),
        )
        for method in ("logical", "physical"):
            db = KVDatabase(
                method=method, cache_capacity=3, commit_every=3,
                checkpoint_every=8,
            )
            for verdict in audited_run(db, stream, audit_every=3):
                assert verdict.holds, (method, verdict.instant, verdict.detail)


def from_scratch_verdict(installation, installed, state, initial):
    """§3.2's verdict with nothing incremental: the determined state of
    graphs rebuilt from the operations alone (see
    :func:`~tests.conftest.scratch_determined_state`) and exposure on a
    fresh conflict graph, without a memo."""
    operations = list(installation.operations)
    determined = scratch_determined_state(
        operations, initial, {op.name for op in installed}
    )
    if determined is None:
        return False, set(), set()
    exposed = exposed_variables(ConflictGraph(operations), set(installed))
    return True, exposed, {v for v in exposed if state[v] != determined[v]}


@pytest.fixture
def verdict_pairs(monkeypatch):
    """Every verdict the tracker computes, paired with the same verdict
    computed from scratch (:func:`from_scratch_verdict`)."""
    pairs = []

    def both(installation, installed, state, initial, memo=None):
        memoized = explanation(installation, installed, state, initial, memo)
        pairs.append(
            (memoized, from_scratch_verdict(installation, installed, state, initial))
        )
        return memoized

    monkeypatch.setattr(audit_module, "explanation", both)
    return pairs


class TestSharedVerdict:
    """The tracker's incremental graphs, memoized exposure and writer-index
    values are an optimization of the §3.2 verdict, never a different one:
    same prefix test, same exposed set, same mismatched set at every
    instant as a from-scratch build."""

    @pytest.mark.parametrize(
        "method", ["logical", "physical", "physiological", "generalized"]
    )
    @pytest.mark.parametrize("seed", [3, 17])
    def test_memo_matches_definitional(self, verdict_pairs, method, seed):
        spec = MIXED if method != "physiological" else KVWorkloadSpec(
            n_operations=40, n_keys=6, put_ratio=0.5, add_ratio=0.35,
            delete_ratio=0.1,
        )
        db = KVDatabase(
            method=method, cache_capacity=3, commit_every=2, checkpoint_every=9
        )
        audits = audited_run(db, generate_kv_workload(seed, spec))
        assert len(verdict_pairs) == len(audits)
        for memoized, definitional in verdict_pairs:
            assert memoized == definitional

    @pytest.mark.parametrize(
        "case",
        ["test_audit_detects_sabotaged_page_lsn", "test_audit_detects_missing_wal"],
    )
    def test_memo_matches_definitional_on_violations(self, verdict_pairs, case):
        getattr(TestAuditInstant(), case)()
        assert verdict_pairs
        assert any(not ok or bad for (ok, _, bad), _ in verdict_pairs)
        for memoized, definitional in verdict_pairs:
            assert memoized == definitional
