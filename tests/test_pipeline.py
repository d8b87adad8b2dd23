"""Tests for the cross-session group-commit pipeline and the engine's
concurrency contract: coalescing, monotone stable watermarks, no early
wakes, sync() barriers interleaved with in-flight windows."""

import errno
import os
import sys
import threading
import time

import pytest

from repro.engine import EngineSpec, KVDatabase
from repro.logmgr import GroupCommitPipeline, LogManager, PipelineClosed
from repro.logmgr.pipeline import PipelineFailed
from repro.logmgr.records import PhysicalRedo
from repro.shard import ShardedDatabase


def _append(log, n=1):
    last = -1
    for _ in range(n):
        last = log.append(PhysicalRedo("p0", {"k": 1})).lsn
    return last


class _SlowSyncStore:
    """Wraps a FileLogStore, stretching each fsync so commit requests
    pile up behind the in-flight window — which is exactly the condition
    coalescing needs."""

    def __init__(self, store, delay=0.01):
        self._store = store
        self._delay = delay
        self.sync_calls = 0

    def sync(self):
        self.sync_calls += 1
        time.sleep(self._delay)
        self._store.sync()

    def __getattr__(self, name):
        return getattr(self._store, name)


class TestPipelineCoalescing:
    def test_many_commits_few_windows(self, tmp_path):
        log = LogManager.open(tmp_path)
        log._store = _SlowSyncStore(log._store)
        pipeline = GroupCommitPipeline(log)
        n_threads, per_thread = 8, 5
        errors = []

        def worker():
            try:
                for _ in range(per_thread):
                    lsn = _append(log)
                    stable = pipeline.commit(lsn)
                    assert stable >= lsn  # never woken early
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = pipeline.stats()
        assert stats["commits"] == n_threads * per_thread
        # The whole point: windows (fsyncs paid) << commits requested.
        assert stats["windows"] < stats["commits"]
        assert stats["max_coalesced"] >= 2
        assert stats["coalesced_total"] + stats["fast_path"] == stats["commits"]
        pipeline.close()
        log.store.close()

    def test_fast_path_skips_already_stable(self, tmp_path):
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        lsn = _append(log, 3)
        pipeline.commit(lsn)
        before = pipeline.stats()["windows"]
        pipeline.commit(lsn)  # already stable: no new window
        stats = pipeline.stats()
        assert stats["fast_path"] >= 1
        assert stats["windows"] == before
        pipeline.close()
        log.store.close()


class TestExactCounters:
    @pytest.mark.parametrize("n_threads", [2, 64])
    def test_each_commit_counted_once(self, tmp_path, n_threads):
        """A commit whose records a running force already covers joins
        that window; none is carried into the next window's count."""
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        errors = []

        def worker():
            try:
                for _ in range(10):
                    pipeline.enter()
                    lsn = _append(log)
                    pipeline.leave()
                    assert pipeline.commit(lsn) >= lsn
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the counters' updates
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        pipeline.close()
        stats = pipeline.stats()
        assert stats["commits"] == n_threads * 10
        assert stats["coalesced_total"] + stats["fast_path"] == stats["commits"]
        assert stats["max_coalesced"] <= n_threads
        assert pipeline._in_flight == 0
        log.store.close()


class TestAdaptiveWindow:
    def test_lone_session_does_not_wait(self):
        """No other session in flight: every window forces at once."""
        log = LogManager()
        pipeline = GroupCommitPipeline(log)
        started = time.perf_counter()
        for _ in range(200):
            pipeline.enter()
            lsn = _append(log)
            pipeline.leave()
            pipeline.commit(lsn)
        elapsed = time.perf_counter() - started
        pipeline.close()
        assert elapsed < 0.1
        assert pipeline.stats()["gathered_windows"] == 0

    def test_stuck_session_delays_by_one_force_at_most(self):
        log = LogManager()
        pipeline = GroupCommitPipeline(log)
        pipeline.commit(_append(log))  # one force measured
        pipeline.enter()  # a session that never leaves
        lsn = _append(log)
        started = time.perf_counter()
        assert pipeline.commit(lsn) >= lsn
        assert time.perf_counter() - started < 1.0
        stats = pipeline.stats()
        assert stats["gathered_windows"] == 1
        assert stats["force_estimate_us"] < 1e6
        pipeline.close()

    def test_abort_during_gather_does_not_force(self, tmp_path):
        log = LogManager.open(tmp_path)
        log._store = _SlowSyncStore(log._store, delay=0.5)
        pipeline = GroupCommitPipeline(log)
        pipeline.commit(_append(log))  # the force estimate becomes ~0.5 s
        stable_before = log.stable_lsn
        pipeline.enter()
        lsn = _append(log)
        errors = []

        def waiter():
            try:
                pipeline.commit(lsn, timeout=0.5)
            except TimeoutError as exc:
                errors.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while pipeline.stats()["gathered_windows"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        pipeline.close(abort=True)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert not pipeline._thread.is_alive()
        assert log.stable_lsn == stable_before
        assert errors  # the waiter was never promised durability
        log.store.close()


class TestStableMonotonicity:
    def test_stable_lsn_never_regresses_under_load(self, tmp_path):
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        samples = []
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                samples.append(log.stable_lsn)

        def committer():
            for _ in range(10):
                pipeline.commit(_append(log))

        sampling = threading.Thread(target=sampler)
        sampling.start()
        workers = [threading.Thread(target=committer) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        sampling.join()
        assert samples == sorted(samples)  # monotone, no regression
        pipeline.close()
        log.store.close()


class TestBarrierInterleaving:
    def test_sync_barrier_interleaves_with_windows(self, tmp_path):
        """db.sync() issued mid-flight must observe every record appended
        before it was called — a barrier around, not through, the
        pipeline's open window."""
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        errors = []
        stop = threading.Event()

        def client(client_id):
            try:
                session = db.session()
                j = 0
                while not stop.is_set():
                    session.execute(("put", f"c{client_id}:k{j % 3}", j))
                    j += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        workers = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for t in workers:
            t.start()
        log = db.method.machine.log
        for _ in range(10):
            appended_before = log.next_lsn - 1
            db.sync()
            assert log.stable_lsn >= appended_before
        stop.set()
        for t in workers:
            t.join()
        assert not errors
        db.close()
        db.verify_against()

    def test_session_commit_is_durability_barrier(self, tmp_path):
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        session = db.session()
        session.execute(("put", "a", 1))
        stable = session.commit()
        assert stable >= session.last_lsn
        assert db.method.machine.log.stable_lsn >= session.last_lsn
        db.close()


class TestLifecycle:
    def test_commit_after_close_raises(self, tmp_path):
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        pipeline.close()
        _append(log)
        with pytest.raises(PipelineClosed):
            pipeline.commit()
        log.store.close()

    def test_abort_close_does_not_flush_the_tail(self, tmp_path):
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        _append(log, 5)
        stable_before = log.stable_lsn
        pipeline.close(abort=True)
        # The volatile tail stayed volatile: abort is for crashes.
        assert log.stable_lsn == stable_before
        log.store.close()

    def test_close_drains_open_window(self, tmp_path):
        log = LogManager.open(tmp_path)
        pipeline = GroupCommitPipeline(log)
        lsn = _append(log, 4)
        waiter_stable = []

        def waiter():
            waiter_stable.append(pipeline.commit(lsn))

        thread = threading.Thread(target=waiter)
        thread.start()
        thread.join(timeout=10)
        pipeline.close()
        assert waiter_stable and waiter_stable[0] >= lsn
        log.store.close()

    def test_crash_aborts_and_recover_restarts_pipeline(self, tmp_path):
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        session = db.session()
        session.execute(("put", "a", 1))
        session.commit()
        session.execute(("put", "a", 2))  # uncommitted tail
        db.crash_and_recover()
        assert db.pipeline is not None  # restarted by recover()
        db.verify_against()
        # The restarted pipeline serves new commits.
        session2 = db.session()
        session2.execute(("put", "b", 9))
        assert session2.commit() >= session2.last_lsn
        db.close()


def _fsync_fails_once(monkeypatch, code=errno.EIO):
    """Make the next ``os.fsync`` raise ``OSError(code)``; later calls
    go through."""
    real_fsync = os.fsync
    failed = []

    def fsync(fd):
        if not failed:
            failed.append(fd)
            raise OSError(code, os.strerror(code))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


class TestFailedForce:
    """A force that raises fails the pipeline: the committer keeps the
    failure, and every parked and later commit raises it at once instead
    of waiting out its timeout."""

    def test_failed_fsync_fails_parked_and_later_commits_at_once(
        self, tmp_path, monkeypatch
    ):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        db.pipeline.commit_timeout = 5.0
        _fsync_fails_once(monkeypatch)
        started = time.monotonic()
        with pytest.raises(PipelineClosed) as parked:
            db.execute(("put", "a", 1))  # commit_every=1: parks on the window
        assert time.monotonic() - started < 2.0
        assert isinstance(parked.value.__cause__, OSError)
        assert parked.value.__cause__.errno == errno.EIO
        started = time.monotonic()
        with pytest.raises(PipelineClosed) as later:
            db.execute(("put", "b", 2))
        assert time.monotonic() - started < 2.0
        assert later.value.__cause__ is parked.value.__cause__
        health = db.health()
        assert health["state"] == "failed"
        assert health["errno"] == errno.EIO
        db.close()

    def test_every_parked_session_fails_at_once(self, tmp_path, monkeypatch):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        db.pipeline.commit_timeout = 5.0
        real_fsync = os.fsync
        failed = []

        def slow_failing_fsync(fd):
            if not failed:
                failed.append(fd)
                time.sleep(0.05)  # the other sessions park behind this force
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", slow_failing_fsync)
        outcomes = []

        def client(i):
            try:
                db.session().execute(("put", f"k{i}", i))
            except Exception as exc:  # noqa: BLE001 — the outcome is the test
                outcomes.append(type(exc))
            else:
                outcomes.append(None)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        started = time.monotonic()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - started < 3.0
        assert outcomes == [PipelineFailed] * 8
        assert db.method.machine.log.stable_lsn == -1
        db.close()

    def test_commit_already_stable_still_acknowledges(self, tmp_path, monkeypatch):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        db.pipeline.commit_timeout = 5.0
        session = db.session()
        session.execute(("put", "a", 1))
        stable = db.method.machine.log.stable_lsn
        assert stable >= session.last_lsn
        _fsync_fails_once(monkeypatch)
        with pytest.raises(PipelineClosed):
            db.execute(("put", "b", 2))
        # Records made stable before the failure are still acknowledged.
        assert session.commit() == stable
        db.close()

    def test_deployment_health_reports_a_failed_shard(self, tmp_path, monkeypatch):
        deployment = ShardedDatabase.create(
            tmp_path, n_shards=2, spec=EngineSpec(commit_pipeline=True)
        )
        for shard in deployment.shards:
            shard.pipeline.commit_timeout = 5.0
        assert deployment.health()["state"] == "ready"
        _fsync_fails_once(monkeypatch)
        session = deployment.session(commit_every=1)
        with pytest.raises(PipelineClosed):
            session.execute(("put", "a", 1))
        health = deployment.health()
        assert health["state"] == "failed"
        assert sorted(shard["state"] for shard in health["shards"]) == [
            "failed",
            "ready",
        ]
        deployment.close()


class TestConcurrentSessionsVerify:
    """The durable-prefix oracle stays exact under concurrency: applied
    order is engine-mutex order is log order."""

    @pytest.mark.parametrize(
        "method", ["physical", "logical", "physiological", "generalized"]
    )
    def test_concurrent_sessions_then_crash_recover(self, method, tmp_path):
        db = KVDatabase(method=method, log_dir=tmp_path, commit_pipeline=True)

        def client(client_id):
            session = db.session(commit_every=2)
            for j in range(6):
                session.execute(("put", f"c{client_id}:k{j % 2}", 100 * client_id + j))
            session.commit()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        db.crash_and_recover()
        durable = db.verify_against()
        assert durable == 36  # every session committed everything
        db.close()
