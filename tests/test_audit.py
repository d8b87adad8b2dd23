"""Tests for the theory<->system bridge: live-engine invariant audits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.audit as audit_module
from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.exposed import exposed_variables
from repro.core.model import Operation, State
from repro.engine import EngineSpec, KVDatabase
from repro.logmgr import LogManager, PhysicalRedo
from repro.shard import ShardedDatabase
from repro.sim.audit import (
    AuditError,
    AuditTracker,
    audit_deployment,
    audit_instant,
    audited_run,
    installation_graph_of,
)
from repro.storage import Disk, LostWriteFault, Page, TornWriteFault
from repro.storage.shadow import ROOT_PAGE_ID
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload
from tests.audit_oracle import redo_lsns, stable_model_state, tracked_redo_lsns
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
    """Every tracker audit's verdict, redo set and redo count, paired with
    the same three computed from scratch: the definitional redo model and
    stable state of :mod:`tests.audit_oracle`, and
    :func:`from_scratch_verdict` over the not-redone records."""
    pairs = []
    verdicts = []
    audit = AuditTracker.audit

    def captured(*args):
        verdicts.append(explanation(*args))
        return verdicts[-1]

    def checked(tracker, instant=-1):
        result = audit(tracker, instant)
        method = tracker.method
        redo = redo_lsns(method, method.machine.log.stable_entries())
        installed = {op for lsn, op in tracker._by_lsn.items() if lsn not in redo}
        definitional = from_scratch_verdict(
            tracker.installation, installed, stable_model_state(method),
            State(default=None),
        )
        pairs.append((
            (verdicts[-1], tracked_redo_lsns(tracker), result.redo_count),
            (definitional, redo, len(redo)),
        ))
        return result

    monkeypatch.setattr(audit_module, "explanation", captured)
    monkeypatch.setattr(AuditTracker, "audit", checked)
    return pairs


METHODS = ["logical", "physical", "physiological", "generalized"]


def _stream(method, seed=3):
    """A mixed workload the method can run (physiological has no copyadd)."""
    spec = MIXED if method != "physiological" else KVWorkloadSpec(
        n_operations=40, n_keys=6, put_ratio=0.5, add_ratio=0.35,
        delete_ratio=0.1,
    )
    return generate_kv_workload(seed, spec)


def _audited(db, commands):
    """Run ``commands`` on ``db``, auditing through its own tracker
    after each one."""
    for command in commands:
        db.execute(command)
        db.theory_audit()


def _lying_images(db, lsn):
    """A made-up image of every data page the method can keep stable
    (for logical, in the current shadow directory), each holding ``lsn``
    for the workload's keys that live on it, tagged with LSN ``lsn``."""
    method = db.method
    keys = [f"k{i:04d}" for i in range(MIXED.n_keys)]
    directory = ""
    disk = method.machine.disk
    if method.name == "logical":
        disk = method.shadow.disk
        directory = method.shadow.current_directory() + ":"
    for index in range(method.n_pages):
        page_id = f"data{index:03d}"
        cells = {key: lsn for key in keys if method.page_of(key) == page_id}
        disk.write_page(Page(directory + page_id, cells, lsn=lsn))


def _assert_pairs_agree(pairs):
    assert pairs
    for memoized, definitional in pairs:
        assert memoized == definitional


class TestSharedVerdict:
    """The tracker's incremental graphs, redo cursors, kept stable state,
    memoized exposure and writer-index values are an optimization of the
    §3.2 verdict, never a different one: same prefix test, same exposed
    set, same mismatched set and same redo set at every instant as a
    from-scratch build."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_memo_matches_definitional(self, verdict_pairs, method, seed):
        db = KVDatabase(
            method=method, cache_capacity=3, commit_every=2, checkpoint_every=9
        )
        audits = audited_run(db, _stream(method, seed))
        assert len(verdict_pairs) == len(audits)
        _assert_pairs_agree(verdict_pairs)

    @pytest.mark.parametrize(
        "case",
        ["test_audit_detects_sabotaged_page_lsn", "test_audit_detects_missing_wal"],
    )
    def test_memo_matches_definitional_on_violations(self, verdict_pairs, case):
        getattr(TestAuditInstant(), case)()
        assert any(not ok or bad for ((ok, _, bad), _, _), _ in verdict_pairs)
        _assert_pairs_agree(verdict_pairs)


class TestCursorsOnHostileHistories:
    """The redo cursors and the kept stable state against the oracle
    where the stable state moves in ways normal operation never moves
    it: page LSNs going backward, a replaced disk, corrupted writes."""

    @pytest.mark.parametrize("method", METHODS)
    def test_media_failure_and_restore(self, verdict_pairs, method):
        db = KVDatabase(method=method, cache_capacity=3, commit_every=2, checkpoint_every=9)
        stream = _stream(method)
        _audited(db, stream[:15])
        db.commit()
        db.method.machine.pool.flush_all()
        backup = db.method.backup()
        _audited(db, stream[15:30])
        db.method.media_failure()  # a new, empty Disk object
        db.theory_audit()
        for page in backup.values():  # page LSNs go backward
            db.method.machine.disk.write_page(page)
        db.theory_audit()
        db.method.recover(full_scan=True)
        db.theory_audit()
        _audited(db, stream[30:])
        _assert_pairs_agree(verdict_pairs)

    @pytest.mark.parametrize("method", ["physical", "physiological", "generalized"])
    @pytest.mark.parametrize("fault", [TornWriteFault, LostWriteFault])
    def test_torn_and_lost_writes(self, verdict_pairs, method, fault):
        db = KVDatabase(method=method, cache_capacity=8, commit_every=1)
        stream = _stream(method)
        _audited(db, stream[:20])
        pool = db.method.machine.pool
        for page in list(pool):
            db.method.machine.disk.arm_fault(fault(page.page_id))
            pool.flush_page(page.page_id, force=True)
            db.theory_audit()
        _audited(db, stream[20:])
        _assert_pairs_agree(verdict_pairs)

    def test_lost_shadow_root_swing(self, verdict_pairs):
        """Logical recovery's one atomic write is lost: the staged pages
        land, the old directory is scrubbed, the root never swings."""
        db = KVDatabase(method="logical", commit_every=1)
        stream = _stream("logical")
        _audited(db, stream[:10])
        db.checkpoint()
        _audited(db, stream[10:20])
        db.method.shadow.disk.arm_fault(LostWriteFault(ROOT_PAGE_ID))
        db.checkpoint()
        assert not db.theory_audit().holds
        _audited(db, stream[20:])
        _assert_pairs_agree(verdict_pairs)

    @pytest.mark.parametrize("method", METHODS)
    def test_lying_page_images(self, verdict_pairs, method):
        """Pages written straight to disk with made-up contents and LSNs,
        ahead of and behind the log."""
        db = KVDatabase(method=method, commit_every=1, checkpoint_every=12)
        stream = _stream(method)
        _audited(db, stream[:20])
        for lsn in (10_000, 3, -1):
            _lying_images(db, lsn)
            assert not db.theory_audit().holds
        _audited(db, stream[20:])
        _assert_pairs_agree(verdict_pairs)

    def test_logical_shadow_swings(self, verdict_pairs):
        db = KVDatabase(method="logical", cache_capacity=3, commit_every=2)
        for index, command in enumerate(_stream("logical")):
            db.execute(command)
            db.theory_audit()
            if index % 4 == 3:
                db.checkpoint()
                db.theory_audit()
        _assert_pairs_agree(verdict_pairs)

    @pytest.mark.parametrize("method", METHODS)
    def test_crash_and_recover_with_the_tracker_kept(self, verdict_pairs, method):
        db = KVDatabase(method=method, cache_capacity=3, commit_every=3, checkpoint_every=9)
        stream = _stream(method)
        tracker = db.theory_tracker()
        for start in range(0, len(stream), 10):
            _audited(db, stream[start : start + 10])
            db.crash_and_recover()
            db.theory_audit()
        assert db.theory_tracker() is tracker
        _assert_pairs_agree(verdict_pairs)

    @pytest.mark.parametrize("method", METHODS)
    def test_two_shard_deployment(self, verdict_pairs, method):
        sdb = ShardedDatabase.create(
            n_shards=2,
            spec=EngineSpec(method=method, cache_capacity=3, commit_every=2,
                            checkpoint_every=9),
        )
        shard_of = sdb.keymap.shard_of
        stream = [  # copyadds whose keys colocate: no cross-shard operation
            c for c in _stream(method)
            if c[0] != "copyadd" or shard_of(c[1]) == shard_of(c[2][0])
        ]
        for command in stream:
            sdb.execute(command)
            assert audit_deployment(sdb).holds
        assert len(verdict_pairs) == 2 * len(stream)
        _assert_pairs_agree(verdict_pairs)
        sdb.close()


class TestAuditCostStructure:
    """What an audit reads, counted rather than timed."""

    @pytest.mark.parametrize("method", METHODS)
    def test_quiet_audit_reads_no_record_and_copies_no_page(self, monkeypatch, method):
        db = KVDatabase(method=method, cache_capacity=3, commit_every=2, checkpoint_every=9)
        audited_run(db, _stream(method))
        tracker = AuditTracker(db.method)
        assert tracker.audit().holds

        def refused(*_args, **_kwargs):
            raise AssertionError("a quiet audit must not read or copy this")

        monkeypatch.setattr(LogManager, "records_from", refused)
        monkeypatch.setattr(Disk, "read_page", refused)
        monkeypatch.setattr(Page, "copy", refused)
        assert tracker.audit().holds
        assert tracker.sync() == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_audit_lifts_exactly_the_new_stable_records(self, monkeypatch, method):
        lifted = []
        lift = audit_module._lift_record

        def counted(entry):
            lifted.append(entry.lsn)
            return lift(entry)

        monkeypatch.setattr(audit_module, "_lift_record", counted)
        db = KVDatabase(method=method, commit_every=1000)
        tracker = AuditTracker(db.method)
        for k in (1, 4, 9):
            lifted.clear()
            for i in range(k):
                db.execute(("put", f"k{i}", k))
            tracker.audit()
            assert lifted == []  # nothing stable yet
            db.commit()
            assert tracker.audit().holds
            assert len(lifted) == len(set(lifted)) == k
