"""Recovery tests for sharded deployments: warm/cold byte-identity per
shard, the cold report and its trace, per-shard torn-tail handling,
crash-during-cold-start (SIGKILL mid-replay), and
crash-during-*lazy*-restart (SIGKILL mid-background-replay)."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.engine import EngineSpec
from repro.shard import ShardedDatabase
from repro.sim.crash import canonical_state, sharded_cold_restart_states
from repro.workloads.kv import apply_to_oracle

ALL_METHODS = ["logical", "physical", "physiological", "generalized"]

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def mixed_stream(n):
    return [("put", f"k{i}", i) for i in range(n)] + [
        ("add", f"k{i}", 7) for i in range(0, n, 3)
    ]


def build_deployment(root, method, n_shards=3, **spec_kwargs):
    spec_kwargs.setdefault("commit_every", 3)
    spec_kwargs.setdefault("checkpoint_every", 20)
    spec_kwargs.setdefault("fsync", False)
    spec = EngineSpec(method=method, **spec_kwargs)
    return ShardedDatabase.create(root=root, n_shards=n_shards, spec=spec)


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_warm_equals_cold_per_shard(self, method, tmp_path):
        """Corollary 4 at deployment scale: warm recovery of the live
        deployment and a cold start from the root + survivor disks land
        on byte-identical per-shard states, for every method."""
        sdb = build_deployment(tmp_path, method)
        sdb.run(mixed_stream(45))
        warm, cold = sharded_cold_restart_states(sdb, tmp_path)
        assert warm == cold
        sdb.close()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_repeated_cold_starts_converge(self, method, tmp_path):
        """Recovery appends nothing to the log, so every subsequent cold
        start sees the same segment bytes and lands on the same state."""
        sdb = build_deployment(tmp_path, method)
        sdb.run(mixed_stream(30))
        sdb.crash()
        survivors = [
            list(shard.method.machine.disk.snapshot().values())
            for shard in sdb.shards
        ]
        from repro.storage import Disk

        def survivor_disks():
            disks = []
            for pages in survivors:
                disk = Disk()
                for page in pages:
                    disk.write_page(page.copy())
                disks.append(disk)
            return disks

        first = ShardedDatabase.cold_start(tmp_path, disks=survivor_disks())
        state_a = [canonical_state(s) for s in first.shards]
        first.close()
        second = ShardedDatabase.cold_start(
            tmp_path,
            disks=[s.method.machine.disk for s in first.shards],
        )
        state_b = [canonical_state(s) for s in second.shards]
        assert state_a == state_b
        second.close()
        sdb.close()

    def test_cold_report_accounts_replay_work(self, tmp_path):
        """Every mutation is replayed by exactly one shard; over many
        keys, Theorem 3's split hands each shard an even share — about
        1/N of the log each."""
        cases = [
            ("physical", 3, mixed_stream(30)),  # 40 mutations
            ("physiological", 4, [("put", f"k{i}", i) for i in range(2000)]),
        ]
        for method, n_shards, stream in cases:
            root = tmp_path / f"{method}-{n_shards}"
            sdb = build_deployment(
                root, method, n_shards=n_shards, checkpoint_every=None
            )
            sdb.run(stream)
            sdb.sync()
            sdb.close()
            cold = ShardedDatabase.cold_start(root)
            report = cold.cold_report
            assert report["wall_s"] > 0
            replayed = [r["replayed"] for r in report["per_shard"]]
            assert sum(replayed) == len(stream)
            if len(stream) >= 1000:
                assert max(replayed) <= 1.1 * len(stream) / n_shards, replayed
            assert all(r["torn_tails"] == 0 for r in report["per_shard"])
            cold.close()

    def test_traced_eager_cold_start_records_each_shard_recovery(self, tmp_path):
        """A tracer handed to the sharded cold start reaches every
        shard's recovery: one ``recovery`` span per shard, whose
        ``replayed`` counts match the cold report's, and one
        ``recovery.record`` event per replayed record."""
        from repro.obs import RecoveryTimeline, RingBufferSink, Tracer

        sdb = build_deployment(
            tmp_path, "physiological", commit_every=1, checkpoint_every=None
        )
        sdb.run([("put", f"k{i}", i) for i in range(300)])
        sdb.sync()
        sdb.close()
        sink = RingBufferSink()
        cold = ShardedDatabase.cold_start(tmp_path, tracer=Tracer(sink))
        timeline = RecoveryTimeline.from_sink(sink)
        spans = timeline.recoveries()
        per_shard = cold.cold_report["per_shard"]
        assert len(spans) == len(per_shard) == 3
        assert [span.field("replayed") for span in spans] == [
            r["replayed"] for r in per_shard
        ]
        assert sum(r["replayed"] for r in per_shard) == 300
        assert len(timeline.events("recovery.record")) == 300
        cold.close()


class TestTornTails:
    def test_per_shard_torn_tail_is_truncated_independently(self, tmp_path):
        """Tear one shard's tail: that shard recovers its durable prefix
        minus the torn record; the others are untouched — per-shard
        torn-tail handling, not a deployment-wide reset."""
        sdb = build_deployment(
            tmp_path, "physical", commit_every=1, checkpoint_every=None
        )
        stream = [("put", f"k{i}", i) for i in range(30)]
        sdb.run(stream)
        sdb.sync()
        sdb.close()
        victim = 0
        tail = sorted((tmp_path / "shard-00").glob("segment-*.wal"))[-1]
        tail.write_bytes(tail.read_bytes()[:-2])
        cold = ShardedDatabase.cold_start(tmp_path)
        per_shard = cold.cold_report["per_shard"]
        assert per_shard[victim]["torn_tails"] == 1
        assert all(r["torn_tails"] == 0 for r in per_shard[1:])
        # The victim lost exactly its last record; the others lost none.
        parts = cold.keymap.split(stream)
        assert cold.shards[victim].durable_count() == len(parts[victim]) - 1
        for index in range(1, 3):
            assert cold.shards[index].durable_count() == len(parts[index])
            assert cold.shards[index].method.dump() == apply_to_oracle(
                parts[index]
            )
        cold.close()


class TestCrashDuringColdStart:
    def test_sigkill_mid_recovery_then_converge(self, tmp_path):
        """SIGKILL a process in the middle of a sharded cold start, then
        cold-start twice more: both must land on identical bytes, and on
        the durable prefix.  Sound because recovery mutates the segment
        files only via the torn-tail truncation (idempotent) and quiesce
        appends nothing — the seed of the fault-campaign roadmap item."""
        sdb = build_deployment(
            tmp_path, "physiological", commit_every=1, checkpoint_every=None
        )
        stream = [("put", f"k{i}", i) for i in range(300)]
        sdb.run(stream)
        sdb.sync()
        sdb.close()
        # Tear one tail so the victim cold start has real repair to do.
        tail = sorted((tmp_path / "shard-01").glob("segment-*.wal"))[-1]
        tail.write_bytes(tail.read_bytes()[:-3])

        script = textwrap.dedent(
            """
            import sys
            from repro.shard import ShardedDatabase
            print("recovering", flush=True)
            while True:  # until killed: the kill always lands in a restart
                ShardedDatabase.cold_start(sys.argv[1]).close()
            """
        )
        script_path = tmp_path / "recover_forever.py"
        script_path.write_text(script)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, str(script_path), str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline().strip() == "recovering"
        # The child restarts in a loop, so the kill lands inside a cold
        # start or its close whenever it comes (the first pass repairs the
        # torn tail; any kill point is a valid test of convergence).
        time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        first = ShardedDatabase.cold_start(tmp_path)
        state_a = [canonical_state(s) for s in first.shards]
        first.close()
        second = ShardedDatabase.cold_start(tmp_path)
        state_b = [canonical_state(s) for s in second.shards]
        second.close()
        assert state_a == state_b
        # And the converged state is the durable prefix: everything
        # except shard-01's torn last record.
        parts = second.keymap.split(stream)
        expected = sum(len(p) for p in parts) - 1
        assert second.durable_count() == expected
        merged = {}
        for index, part in enumerate(parts):
            cut = len(part) - 1 if index == 1 else len(part)
            merged.update(apply_to_oracle(part[:cut]))
        assert second.dump() == merged


class TestLazyRestartSharded:
    def test_lazy_cold_start_serves_and_converges(self, tmp_path):
        """``cold_start(lazy=True)``: every shard serves after analysis
        alone, health reports the backlog, and after the drain the
        deployment equals an eager cold start byte for byte."""
        sdb = build_deployment(tmp_path, "physiological", checkpoint_every=None)
        stream = mixed_stream(60)
        sdb.run(stream)
        sdb.sync()
        sdb.close()
        lazy = ShardedDatabase.cold_start(tmp_path, lazy=True)
        assert lazy.cold_report["lazy"] is True
        assert all(
            "replay_backlog" in r for r in lazy.cold_report["per_shard"]
        )
        # Serving immediately: the full oracle mapping is readable even
        # though the backlog may not have drained yet.
        assert lazy.dump() == apply_to_oracle(stream)
        lazy.drain_lazy()
        health = lazy.health()
        assert health["state"] == "ready"
        assert health["replay_backlog_total"] == 0
        assert all(s["state"] == "ready" for s in health["shards"])
        eager = ShardedDatabase.cold_start(tmp_path)
        for shard in (*lazy.shards, *eager.shards):
            shard.quiesce()
        assert [canonical_state(s) for s in lazy.shards] == [
            canonical_state(s) for s in eager.shards
        ]
        lazy.close()
        eager.close()

    def test_sigkill_mid_background_replay_then_converge(self, tmp_path):
        """SIGKILL a process while its background replay threads are
        still draining, then cold-start again — once eagerly, once
        lazily — and both must land on the identical durable prefix.
        Sound because lazy replay mutates only the volatile pool: the
        log keeps every record until replay is complete, so the next
        incarnation re-derives the same backlog (Theorem 3's redo set
        is a function of the durable state alone)."""
        sdb = build_deployment(
            tmp_path, "physiological", commit_every=1, checkpoint_every=None
        )
        stream = [("put", f"k{i}", i) for i in range(300)]
        sdb.run(stream)
        sdb.sync()
        sdb.close()

        script = textwrap.dedent(
            """
            import sys, time
            from repro.shard import ShardedDatabase
            sdb = ShardedDatabase.cold_start(sys.argv[1], lazy=True)
            print("serving", sdb.replay_backlog(), flush=True)
            time.sleep(30)  # parent SIGKILLs us mid-drain
            """
        )
        script_path = tmp_path / "lazy_once.py"
        script_path.write_text(script)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, str(script_path), str(tmp_path)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = proc.stdout.readline().split()
        assert line and line[0] == "serving"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        eager = ShardedDatabase.cold_start(tmp_path)
        lazy = ShardedDatabase.cold_start(tmp_path, lazy=True)
        lazy.drain_lazy()
        for shard in (*eager.shards, *lazy.shards):
            shard.quiesce()
        state_a = [canonical_state(s) for s in eager.shards]
        state_b = [canonical_state(s) for s in lazy.shards]
        assert state_a == state_b
        # And the converged state is the full durable prefix.
        assert lazy.durable_count() == len(stream)
        assert lazy.dump() == apply_to_oracle(stream)
        eager.close()
        lazy.close()
