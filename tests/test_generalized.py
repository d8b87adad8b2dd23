"""Tests specific to the generalized LSN-based KV engine (§6.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import KVDatabase
from repro.methods import GeneralizedKV, Machine
from repro.sim import crash_sweep
from repro.sim.audit import audited_run, installation_graph_of
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

CROSS_KEY = KVWorkloadSpec(
    n_operations=40,
    n_keys=8,
    put_ratio=0.3,
    add_ratio=0.2,
    copyadd_ratio=0.35,
    delete_ratio=0.05,
)


def cross_page_keys(kv: GeneralizedKV) -> tuple[str, str]:
    """Two keys guaranteed to live on different pages."""
    keys = [f"k{i}" for i in range(64)]
    first = keys[0]
    for key in keys[1:]:
        if kv.page_of(key) != kv.page_of(first):
            return first, key
    raise AssertionError("could not find keys on distinct pages")


class TestCrossPageCopyadd:
    def test_cross_page_record_is_multipage(self):
        from repro.logmgr import MultiPageRedo

        kv = GeneralizedKV(Machine(), n_pages=8)
        src, dst = cross_page_keys(kv)
        kv.put(src, 10)
        kv.copyadd(dst, src, 5)
        last = kv.machine.log.entries()[-1].payload
        assert isinstance(last, MultiPageRedo)
        assert kv.get(dst) == 15

    def test_same_page_record_is_single_page(self):
        from repro.logmgr import PhysiologicalRedo

        kv = GeneralizedKV(Machine(), n_pages=1)  # everything on one page
        kv.put("a", 10)
        kv.copyadd("b", "a", 5)
        last = kv.machine.log.entries()[-1].payload
        assert isinstance(last, PhysiologicalRedo)
        assert last.action.kind == "copycell"
        assert kv.get("b") == 15

    def test_cross_page_copyadd_recovers(self):
        kv = GeneralizedKV(Machine(cache_capacity=4), n_pages=8)
        src, dst = cross_page_keys(kv)
        kv.put(src, 10)
        kv.copyadd(dst, src, 5)
        kv.commit()
        kv.crash()
        kv.recover()
        assert kv.get(dst) == 15
        assert kv.get(src) == 10

    def test_flush_constraint_registered(self):
        kv = GeneralizedKV(Machine(), n_pages=8)
        src, dst = cross_page_keys(kv)
        kv.put(src, 10)
        kv.copyadd(dst, src, 5)
        pending = kv.machine.pool.pending_constraints()
        assert any(
            c.first_page == kv.page_of(dst) and c.then_page == kv.page_of(src)
            for c in pending
        )

    def test_mutual_copyadds_resolved_by_eager_flush(self):
        """a <- b then b <- a would need a constraint cycle; the pool
        resolves it by flushing eagerly, and recovery stays exact."""
        kv = GeneralizedKV(Machine(cache_capacity=8), n_pages=8)
        src, dst = cross_page_keys(kv)
        kv.put(src, 10)
        kv.put(dst, 100)
        kv.copyadd(dst, src, 1)    # dst = 11;  constraint dst-page -> src-page
        kv.copyadd(src, dst, 2)    # src = 13;  would close a cycle
        kv.commit()
        kv.machine.pool.flush_all()  # must not deadlock or raise
        kv.crash()
        kv.recover()
        assert kv.get(dst) == 11
        assert kv.get(src) == 13

    def test_violating_careful_order_breaks_recovery(self):
        """The §6.4 ablation at the KV level: flush the source page with
        a *later* value before the destination page, crash, and the
        replayed copyfrom reads the future."""
        kv = GeneralizedKV(Machine(cache_capacity=16), n_pages=8)
        src, dst = cross_page_keys(kv)
        kv.put(src, 10)
        kv.copyadd(dst, src, 5)   # dst should be 15 forever
        kv.put(src, 99)           # later update to the source
        kv.commit()
        # Violate the ordering deliberately.
        kv.machine.pool.flush_page(kv.page_of(src), force=True)
        kv.crash()
        kv.recover()
        assert kv.get(dst) == 104  # 99 + 5: the wrong, future-read value
        # The same scenario with the ordering honored is exact:
        kv2 = GeneralizedKV(Machine(cache_capacity=16), n_pages=8)
        kv2.put(src, 10)
        kv2.copyadd(dst, src, 5)
        kv2.put(src, 99)
        kv2.commit()
        kv2.machine.pool.flush_all()  # constraint order enforced
        kv2.crash()
        kv2.recover()
        assert kv2.get(dst) == 15


class TestElisionKeepsReadOrdering:
    def test_elided_destination_does_not_release_its_source(self):
        """Shrunk from the stateful suite.  The second ``copyadd k4``
        leaves k4's page byte-equal to its disk image; eliding that
        flush used to discharge the page's edge to the source page,
        which then installed a later overwrite of k1 — and after the
        crash the still-unstamped record replayed against the new k1."""
        keys = [f"k{i}" for i in range(5)]
        db = KVDatabase("generalized", cache_capacity=2, commit_every=1, n_pages=4)
        commands = [
            ("copyadd", "k1", ("k1", 2)),
            ("delete", "k0", None),
            ("copyadd", "k4", ("k1", 2)),
            ("copyadd", "k4", ("k1", 2)),
            ("copyadd", "k1", ("k0", 1)),
            ("copyadd", "k0", ("k0", 1)),
        ]
        instant = 0
        for command in commands:
            db.execute(command)
            for key in [None, *keys]:  # after the command, then after each read
                if key is not None:
                    db.get(key)
                verdict = db.theory_audit(instant)
                assert verdict.holds, (command, key, verdict.detail)
                instant += 1
        db.crash_and_recover()
        assert db.verify_against(commands) == len(commands)
        assert db.get("k4") == 4


class TestGeneralizedSweeps:
    def test_crash_sweep_with_cross_key_workload(self):
        stream = generate_kv_workload(21, CROSS_KEY)
        make = lambda: KVDatabase(
            method="generalized", cache_capacity=4, commit_every=2,
            checkpoint_every=11,
        )
        results = crash_sweep(make, stream, crash_points=range(0, 41, 4))
        assert all(r.recovered for r in results), [
            (r.crash_point, r.error) for r in results if not r.recovered
        ]

    def test_audits_hold_throughout(self):
        stream = generate_kv_workload(22, CROSS_KEY)
        db = KVDatabase(
            method="generalized", cache_capacity=4, commit_every=3,
            checkpoint_every=9,
        )
        for verdict in audited_run(db, stream):
            assert verdict.holds, (verdict.instant, verdict.detail)

    def test_lifted_graph_has_cross_variable_read_edges(self):
        stream = generate_kv_workload(23, CROSS_KEY)
        db = KVDatabase(method="generalized", cache_capacity=4)
        db.run(stream)
        db.commit()
        installation = installation_graph_of(db)
        assert len(installation.removed_edges()) > 0

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_random_cross_key_streams(self, seed):
        stream = generate_kv_workload(
            seed,
            KVWorkloadSpec(
                n_operations=25, n_keys=6, put_ratio=0.3, add_ratio=0.2,
                copyadd_ratio=0.3, delete_ratio=0.05,
            ),
        )
        make = lambda: KVDatabase(
            method="generalized", cache_capacity=3, commit_every=2
        )
        results = crash_sweep(make, stream, crash_points=[0, 8, 17, 25])
        assert all(r.recovered for r in results), [
            r.error for r in results if not r.recovered
        ]
