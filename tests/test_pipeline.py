"""Tests for the cross-session group commit and the engine's concurrency
contract: coalescing, monotone stable watermarks, no acknowledgement
below a commit's own records, sync() barriers interleaved with forces."""

import errno
import os
import sys
import threading
import time

import pytest

from repro.engine import EngineSpec, KVDatabase
from repro.logmgr import GroupCommitPipeline, LogManager
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
        assert stats["coalesced_total"] + stats["fast_path"] == stats["commits"]
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
        stats = pipeline.stats()
        assert stats["commits"] == n_threads * 10
        assert stats["coalesced_total"] + stats["fast_path"] == stats["commits"]
        assert not pipeline._in_flight  # every enter() was left
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

    def test_two_sessions_share_forces(self, tmp_path, session_log):
        """Two closed-loop sessions: the leader gathers the other's
        in-flight put, so its force covers both commits."""
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        log = db.method.machine.log
        log._store = _SlowSyncStore(log._store, delay=0.005)

        def client(i):
            session = db.session(commit_every=1)
            for j in range(50):
                session.execute(("put", f"c{i}:k{j}", j))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        stats = db.pipeline.stats()
        assert stats["commits"] == 100
        assert stats["windows"] <= 0.85 * stats["commits"]
        db.close()
        db.verify_against(session_log(db))


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
        log.store.close()


class TestBarrierInterleaving:
    def test_sync_barrier_interleaves_with_windows(self, tmp_path, session_log):
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
        db.verify_against(session_log(db))

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
    def test_abort_close_does_not_flush_the_tail(self, tmp_path):
        """A crash of a pipelined database forces nothing: the volatile
        tail is lost, not flushed on the way down."""
        db = KVDatabase(
            "physiological", log_dir=tmp_path, commit_pipeline=True, commit_every=10
        )
        stream = [("put", f"k{i}", i) for i in range(5)]
        db.run(stream)
        log = db.method.machine.log
        stable_before = log.stable_lsn
        forces_before = log.forced_flushes
        db.crash()
        assert log.stable_lsn == stable_before
        assert log.forced_flushes == forces_before
        assert log.next_lsn == stable_before + 1
        db.recover()
        assert db.verify_against(stream) == 0
        db.close()

    def test_close_drains_open_window(self, tmp_path):
        """A commit on the disk when the database closes still completes:
        no thread of the database's stands between it and its ack."""
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        log = db.method.machine.log
        log._store = _SlowSyncStore(log._store, delay=0.05)
        session = db.session()
        acked = []

        def waiter():
            session.execute(("put", "a", 1))
            acked.append(log.stable_lsn)

        thread = threading.Thread(target=waiter)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not log._store.sync_calls:  # the leader's fsync is on the disk
            assert time.monotonic() < deadline
            time.sleep(0.001)
        db.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert acked and acked[0] >= session.last_lsn >= 0

    def test_close_closes_every_segment_file(self, tmp_path):
        """After close no segment handle holds an open file, however
        many segments the log rotated through; closing again is a no-op."""
        db = KVDatabase(
            "physiological", log_dir=tmp_path, log_segment_size=8, fsync=False
        )
        db.run([("put", f"k{i}", i) for i in range(40)])
        store = db.method.machine.log.store
        assert len(store.segment_base_lsns()) > 1
        assert any(handle.fh is not None for handle in store._handles)
        db.close()
        assert all(handle.fh is None for handle in store._handles)
        assert not store._mapped
        store.close()
        LogManager().close()  # an in-memory log has nothing to close

    def test_commit_of_crashed_records_raises(self):
        """A commit whose records a crash dropped raises; it never
        acknowledges below its own LSN."""
        log = LogManager()
        pipeline = GroupCommitPipeline(log)
        pipeline.commit(_append(log, 2))
        lsn = _append(log, 3)
        log.crash()
        with pytest.raises(RuntimeError, match=f"LSN {lsn} .*stable_lsn=1"):
            pipeline.commit(lsn)
        assert log.stable_lsn == 1
        stats = pipeline.stats()
        assert stats["coalesced_total"] + stats["fast_path"] == stats["commits"]

    def test_session_commit_after_crash_raises(self, tmp_path):
        """Session.commit never returns a stable LSN below the session's
        own records."""
        db = KVDatabase("physiological", log_dir=tmp_path)
        session = db.session(commit_every=10)
        stream = [("put", "a", 1), ("put", "b", 2)]
        session.run(stream)
        assert session.last_lsn == 1
        db.crash()
        with pytest.raises(RuntimeError, match="LSN 1 "):
            session.commit()
        db.recover()
        assert db.verify_against(stream) == 0
        db.close()

    def test_closed_database_refuses_every_commit(self, tmp_path):
        """After close, a commit with nothing to force — the pipeline's
        fast path — raises like a flush of the closed log."""
        db = KVDatabase("physiological", log_dir=tmp_path)
        stable = db.session()
        stable.execute(("put", "a", 1))  # commit_every=1: already stable
        db.close()
        for commit in (db.session().commit, stable.commit, db.commit):
            with pytest.raises(ValueError, match="closed log"):
                commit()

    def test_crash_aborts_and_recover_restarts_pipeline(self, tmp_path):
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        session = db.session()
        session.execute(("put", "a", 1))
        session.commit()
        session.execute(("put", "a", 2))  # uncommitted tail
        pipeline = db.pipeline
        db.crash_and_recover()
        assert db.pipeline is pipeline  # one pipeline for the database's life
        db.verify_against([("put", "a", 1), ("put", "a", 2)])
        # It serves new commits after recovery.
        session2 = db.session()
        session2.execute(("put", "b", 9))
        assert session2.commit() >= session2.last_lsn
        db.close()


class TestCommitCadence:
    @pytest.mark.parametrize(
        "method, forces",
        [("physiological", 254), ("physical", 256), ("logical", 256), ("generalized", 254)],
    )
    def test_due_commit_forces_ahead_of_due_checkpoint(self, tmp_path, method, forces):
        """Where a commit and a checkpoint fall due on the same operation,
        the commit forces first: the checkpoint's own force never stands
        in for it, so the log's force count is the cadence's."""
        db = KVDatabase(
            method, log_dir=tmp_path, commit_every=32, checkpoint_every=2000, fsync=False
        )
        for i in range(8000):
            db.execute(("put", f"k{i % 2000}", i))
        assert db.method.machine.log.forced_flushes == forces
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


class TestBoundedMemory:
    def test_engine_heap_does_not_grow_with_history(self, tmp_path):
        """A file-backed engine keeps no per-operation state: the second
        20 000 puts through a pipelined session grow the traced heap by
        under 1 MB (a history of commands costs ~150 B a put).  The log
        must be on files, because an in-memory log keeps every record."""
        import tracemalloc

        tracemalloc.start()
        try:
            db = KVDatabase(
                "physiological", log_dir=tmp_path, fsync=False, commit_pipeline=True
            )
            session = db.session(commit_every=64)
            for i in range(20_000):
                session.execute(("put", f"k{i % 512}", i))
            before = tracemalloc.get_traced_memory()[0]
            for i in range(20_000, 40_000):
                session.execute(("put", f"k{i % 512}", i))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        db.close()
        assert grown < 1_000_000, f"heap grew {grown} B over 20 000 puts"


class TestFailedForce:
    """A force that raises fails on the leader's thread, and the store
    keeps the failure: every parked and later commit raises the same
    ``OSError`` at once."""

    def test_failed_fsync_fails_parked_and_later_commits_at_once(
        self, tmp_path, monkeypatch
    ):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        _fsync_fails_once(monkeypatch)
        started = time.monotonic()
        with pytest.raises(OSError) as parked:
            db.execute(("put", "a", 1))  # commit_every=1: leads the force
        assert time.monotonic() - started < 2.0
        assert parked.value.errno == errno.EIO
        started = time.monotonic()
        with pytest.raises(OSError) as later:
            db.execute(("put", "b", 2))
        assert time.monotonic() - started < 2.0
        assert later.value is parked.value
        health = db.health()
        assert health["state"] == "failed"
        assert health["errno"] == errno.EIO
        db.close()

    def test_every_parked_session_fails_at_once(self, tmp_path, monkeypatch):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
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
                outcomes.append((type(exc), getattr(exc, "errno", None)))
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
        assert outcomes == [(OSError, errno.EIO)] * 8
        assert db.method.machine.log.stable_lsn == -1
        db.close()

    def test_commit_already_stable_still_acknowledges(self, tmp_path, monkeypatch):
        db = KVDatabase("physiological", log_dir=tmp_path, commit_pipeline=True)
        session = db.session()
        session.execute(("put", "a", 1))
        stable = db.method.machine.log.stable_lsn
        assert stable >= session.last_lsn
        _fsync_fails_once(monkeypatch)
        with pytest.raises(OSError) as failed:
            db.execute(("put", "b", 2))
        assert failed.value.errno == errno.EIO
        # Records made stable before the failure are still acknowledged.
        assert session.commit() == stable
        db.close()

    def test_deployment_health_reports_a_failed_shard(self, tmp_path, monkeypatch):
        deployment = ShardedDatabase.create(
            tmp_path, n_shards=2, spec=EngineSpec(commit_pipeline=True)
        )
        assert deployment.health()["state"] == "ready"
        _fsync_fails_once(monkeypatch)
        session = deployment.session(commit_every=1)
        with pytest.raises(OSError) as failed:
            session.execute(("put", "a", 1))
        assert failed.value.errno == errno.EIO
        health = deployment.health()
        assert health["state"] == "failed"
        assert sorted(shard["state"] for shard in health["shards"]) == [
            "failed",
            "ready",
        ]
        deployment.close()


class TestConcurrentSessionsVerify:
    """The durable-prefix oracle stays exact under concurrency: each
    session's mutations, ordered by LSN, are the log order."""

    @pytest.mark.parametrize(
        "method", ["physical", "logical", "physiological", "generalized"]
    )
    def test_concurrent_sessions_then_crash_recover(
        self, method, tmp_path, session_log
    ):
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
        durable = db.verify_against(session_log(db))
        assert durable == 36  # every session committed everything
        db.close()
