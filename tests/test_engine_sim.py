"""Integration tests: the KV database and the crash simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import KVDatabase, VerificationError
from repro.sim import crash_once, crash_sweep, repeated_crashes
from repro.workloads.kv import (
    KVWorkloadSpec,
    apply_to_oracle,
    generate_kv_workload,
)

METHOD_NAMES = ["logical", "physical", "physiological", "generalized"]


def small_stream(seed=1, n=40):
    return generate_kv_workload(seed, KVWorkloadSpec(n_operations=n, n_keys=10))


class TestKVDatabase:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            KVDatabase(method="hopes-and-dreams")

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_run_matches_oracle_without_crash(self, method):
        stream = small_stream()
        db = KVDatabase(method=method, cache_capacity=4)
        db.run(stream)
        db.commit()
        oracle = apply_to_oracle(stream)
        for key, value in oracle.items():
            assert db.get(key) == value

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_verify_after_crash(self, method):
        stream = small_stream()
        db = KVDatabase(method=method, cache_capacity=4)
        db.run(stream)
        db.crash_and_recover()
        durable = db.verify_against(stream)
        mutations = [c for c in stream if c[0] != "get"]
        assert durable == len(mutations)  # commit_every=1: everything durable

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_group_commit_can_lose_tail(self, method):
        stream = [("put", f"k{i}", i) for i in range(10)]
        db = KVDatabase(method=method, commit_every=4)
        db.run(stream)
        db.crash_and_recover()
        durable = db.verify_against(stream)
        assert durable == 8  # two full groups of 4; the tail of 2 lost
        assert durable % 4 == 0

    def test_checkpoint_cadence_fires(self):
        db = KVDatabase(method="physiological", checkpoint_every=5)
        db.run([("put", f"k{i}", i) for i in range(12)])
        assert db.method.stats.checkpoints == 2

    def test_report_keys(self):
        db = KVDatabase(method="physical")
        db.run(small_stream(n=10))
        report = db.report()
        for key in (
            "method",
            "log_bytes",
            "disk_page_writes",
            "method_operations",
            "scheduler_installs",
        ):
            assert key in report

    def test_verification_error_is_loud(self):
        db = KVDatabase(method="physiological")
        db.run([("put", "k", 1)])
        db.crash_and_recover()
        # Sabotage the recovered state to prove verify catches divergence.
        db.method.machine.pool.update(
            db.method.page_of("k"), lambda p: p.put("k", 999), create=True
        )
        with pytest.raises(VerificationError):
            db.verify_against([("put", "k", 1)])


class TestCrashSim:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_sweep_every_point_recovers(self, method):
        stream = small_stream(seed=3, n=30)
        make = lambda: KVDatabase(method=method, cache_capacity=4)
        results = crash_sweep(make, stream)
        assert all(r.recovered for r in results), [
            (r.crash_point, r.error) for r in results if not r.recovered
        ]

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_sweep_with_checkpoints(self, method):
        stream = small_stream(seed=4, n=30)
        make = lambda: KVDatabase(
            method=method, cache_capacity=4, checkpoint_every=7
        )
        results = crash_sweep(make, stream, crash_points=range(0, 31, 3))
        assert all(r.recovered for r in results)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_sweep_with_group_commit(self, method):
        stream = small_stream(seed=5, n=30)
        make = lambda: KVDatabase(method=method, commit_every=5, cache_capacity=4)
        results = crash_sweep(make, stream, crash_points=range(0, 31, 4))
        assert all(r.recovered for r in results)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_repeated_crashes(self, method):
        stream = small_stream(seed=6, n=40)
        make = lambda: KVDatabase(method=method, cache_capacity=4)
        result = repeated_crashes(make, stream, crash_points=[10, 20, 30])
        assert result.recovered, result.error

    def test_crash_once_reports_replay_counts(self):
        stream = small_stream(seed=7, n=20)
        make = lambda: KVDatabase(method="physiological", cache_capacity=4)
        result = crash_once(make, stream, crash_point=20, continue_after=False)
        assert result.recovered
        assert result.scanned >= result.replayed

    def test_physiological_replays_less_after_flush(self):
        """The LSN redo test's payoff: flushed pages are bypassed."""
        stream = [("put", f"k{i}", i) for i in range(20)]

        def make_flushing():
            return KVDatabase(method="physiological", cache_capacity=2)

        def make_roomy():
            return KVDatabase(method="physiological", cache_capacity=64)

        flushing = crash_once(make_flushing, stream, 20, continue_after=False)
        roomy = crash_once(make_roomy, stream, 20, continue_after=False)
        assert flushing.replayed < roomy.replayed


class TestPropertySweeps:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_streams_all_methods(self, seed):
        stream = generate_kv_workload(
            seed, KVWorkloadSpec(n_operations=25, n_keys=6)
        )
        for method in METHOD_NAMES:
            make = lambda m=method: KVDatabase(method=m, cache_capacity=3)
            results = crash_sweep(
                make, stream, crash_points=[0, 7, 13, 25], continue_after=True
            )
            assert all(r.recovered for r in results), method

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(METHOD_NAMES),
    )
    @settings(max_examples=15, deadline=None)
    def test_durable_horizon_respects_commit_groups(self, seed, group, method):
        stream = generate_kv_workload(
            seed, KVWorkloadSpec(n_operations=20, n_keys=5, put_ratio=1.0)
        )
        db = KVDatabase(method=method, commit_every=group, cache_capacity=4)
        db.run(stream)
        db.crash_and_recover()
        durable = db.verify_against(stream)
        mutations = [c for c in stream if c[0] != "get"]
        # Durable horizon never regresses below the last full group and
        # never exceeds what was issued.
        assert durable >= (len(mutations) // group) * group or durable == len(mutations)
        assert durable <= len(mutations)
