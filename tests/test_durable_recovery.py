"""Durable-log recovery tests: cold starts and a real process kill.

Corollary 4 says recovery lands on the state determined by the stable
log prefix.  With a file-backed log there are two ways to get there —
the warm path (same Python objects, in-memory crash simulation) and the
cold path (a new process holding nothing but the segment files and the
surviving disk).  These tests assert the two land on *identical*
canonical states for every §6 method, and then do it for real: a child
process is SIGKILLed mid-workload and the parent recovers cold from the
files the kernel kept.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import repro
from repro.engine import KVDatabase
from repro.logmgr import LogDirectoryError
from repro.sim import cold_restart_states
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

ALL_METHODS = ["physical", "physiological", "logical", "generalized"]

MIXED = KVWorkloadSpec(
    n_operations=120,
    n_keys=12,
    put_ratio=0.5,
    add_ratio=0.25,
    delete_ratio=0.05,
)


class TestColdRestartEquivalence:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_cold_state_identical_to_warm(self, tmp_path, method):
        db = KVDatabase(
            method=method,
            log_dir=tmp_path,
            log_segment_size=32,
            commit_every=8,
            checkpoint_every=13,
        )
        db.run(generate_kv_workload(11, MIXED))
        warm, cold = cold_restart_states(db, tmp_path, log_segment_size=32)
        db.close()
        assert warm == cold

    def test_cold_database_is_closed(self, tmp_path, monkeypatch):
        started = []
        cold_start = KVDatabase.cold_start

        def spy(*args, **kwargs):
            started.append(cold_start(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(KVDatabase, "cold_start", spy)
        db = KVDatabase(method="physiological", log_dir=tmp_path, log_segment_size=8)
        db.run(generate_kv_workload(11, MIXED))
        cold_restart_states(db, tmp_path, log_segment_size=8)
        (cold,) = started
        handles = cold.method.machine.log.store._handles
        assert len(handles) > 1
        assert all(handle.fh is None for handle in handles)
        db.close()

    def test_closed_log_refuses_writes(self, tmp_path):
        db = KVDatabase(method="physiological", log_dir=tmp_path)
        db.execute(("put", "a", 1))
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            db.close()
            with pytest.raises(ValueError, match="closed log"):
                db.execute(("put", "b", 2))
            with pytest.raises(ValueError, match="closed log"):
                db.commit()
            del db
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        cold = KVDatabase.cold_start(tmp_path, method="physiological")
        assert cold.method.dump() == {"a": 1}
        cold.close()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_cold_state_identical_without_checkpoints(self, tmp_path, method):
        db = KVDatabase(
            method=method,
            log_dir=tmp_path,
            log_segment_size=32,
            commit_every=3,
            checkpoint_every=None,
        )
        db.run(generate_kv_workload(23, MIXED))
        warm, cold = cold_restart_states(db, tmp_path, log_segment_size=32)
        assert warm == cold
        db.close()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_unsynced_crash_recovers_durable_prefix(self, tmp_path, method):
        """Crash with a commit batch still in flight (no sync): the
        recovered state must equal the oracle over exactly the stable
        prefix.  Regression: the logical method's checkpoint once forced
        less than it had applied before the root swing, so the installed
        root could run ahead of the stable log."""
        stream = generate_kv_workload(11, MIXED)
        db = KVDatabase(
            method=method,
            log_dir=tmp_path,
            log_segment_size=16,
            commit_every=8,
            checkpoint_every=23,
        )
        db.run(stream)
        db.crash_and_recover()
        assert db.verify_against(stream) == db.durable_count() > 0
        db.close()

    def test_cold_start_verifies_against_oracle(self, tmp_path):
        stream = generate_kv_workload(31, MIXED)
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, checkpoint_every=None
        )
        db.run(stream)
        db.sync()
        db.crash()
        cold = KVDatabase.cold_start(tmp_path, method="physiological")
        assert cold.verify_against(stream) == len(
            [c for c in stream if c[0] != "get"]
        )
        db.close()
        cold.close()

    def test_durable_metrics_flow_through_report(self, tmp_path):
        db = KVDatabase(method="physiological", log_dir=tmp_path)
        db.run(generate_kv_workload(3, KVWorkloadSpec(n_operations=20)))
        report = db.report()
        assert report["durable_appends"] > 0
        assert report["durable_fsyncs"] > 0
        assert report["durable_bytes_written"] > 0
        in_memory = KVDatabase(method="physiological")
        assert "durable_fsyncs" not in in_memory.report()
        db.close()


class TestDisklessColdStart:
    """``kill -9`` with no page store that survives — what ``serve
    --log-dir`` restarts from: the stable state is empty, so only the
    empty prefix explains it and the redo set must be the whole log,
    whatever checkpoints the log carries (Corollary 4)."""

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    @pytest.mark.parametrize("cache", [2, 16])
    @pytest.mark.parametrize("checkpoint_every", [10, None])
    @pytest.mark.parametrize(
        "method,options",
        [(method, None) for method in ALL_METHODS]
        + [("physiological", {"sharp_checkpoints": True})],
        ids=ALL_METHODS + ["physiological-sharp"],
    )
    def test_replays_the_whole_log(
        self, tmp_path, method, options, checkpoint_every, cache, lazy
    ):
        stream = generate_kv_workload(11, MIXED)
        engine = {"cache_capacity": cache, "method_options": options}
        db = KVDatabase(
            method=method,
            log_dir=tmp_path,
            checkpoint_every=checkpoint_every,
            fsync=False,
            **engine,
        )
        db.run(stream)
        db.sync()
        db.crash()
        cold = KVDatabase.cold_start(tmp_path, method=method, lazy=lazy, **engine)
        cold.drain_lazy()
        mutations = [c for c in stream if c[0] != "get"]
        assert cold.verify_against(stream) == len(mutations)
        cold.close()
        db.close()


class TestLogDirectoryGuards:
    """The two ways a log directory used to lose acknowledged writes
    outside recovery proper."""

    def test_fresh_engine_over_a_used_directory_raises(self, tmp_path):
        db = KVDatabase(method="physiological", log_dir=tmp_path)
        stream = generate_kv_workload(3, MIXED)
        db.run(stream)
        db.method.machine.log.store.close()
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(LogDirectoryError, match="cold_start"):
            KVDatabase(method="physiological", log_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        cold = KVDatabase.cold_start(tmp_path, method="physiological")
        assert cold.durable_count() == len([c for c in stream if c[0] != "get"])
        cold.close()

    def test_trimmed_directory_is_refused_on_cold_start(self, tmp_path):
        """A sealed segment renamed ``.arch`` — what checkpoint
        truncation used to do — cannot be recovered without its pages."""
        db = KVDatabase(
            method="logical",
            log_dir=tmp_path,
            log_segment_size=8,
            checkpoint_every=10,
        )
        db.run(generate_kv_workload(7, MIXED))
        db.sync()
        db.method.machine.log.store.close()
        first = tmp_path / "segment-0000000000000000.wal"
        first.rename(first.with_suffix(".arch"))
        with pytest.raises(LogDirectoryError, match="archived"):
            KVDatabase.cold_start(tmp_path, method="logical", log_segment_size=8)


METHOD_NAMES = ("physical", "logical", "physiological", "generalized")


def _written_by(method, log_dir, checkpoint_first=False):
    """A closed log directory ``method`` wrote: a put first (so the oldest
    record is a one-page one for the page-LSN methods), then adds and —
    where the method has them — cross-page copyadds."""
    db = KVDatabase(method=method, log_dir=log_dir)
    if checkpoint_first:
        db.checkpoint()
    stream = [("put", "k0", 1)] + [
        ("add", f"k{i % 5}", i) for i in range(1, 12)
    ]
    if method != "physiological":
        stream += [("copyadd", f"k{i}", (f"k{i + 1}", i)) for i in range(4)]
    db.run(stream)
    db.sync()
    db.close()
    return stream


class TestColdStartMethodGuard:
    """A cold start under the wrong method used to restart silently empty
    (or short): each method's recovery skips the record kinds it does
    not write.  The oldest operation record's wire tag names the writer;
    the analysis refuses a physiological restart of multi-page records."""

    @pytest.mark.parametrize("written", METHOD_NAMES)
    @pytest.mark.parametrize("asked", METHOD_NAMES)
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_every_mismatched_pair(self, tmp_path, written, asked, lazy):
        stream = _written_by(written, tmp_path)
        if written == asked or (written, asked) == ("physiological", "generalized"):
            # A generalized engine replays physiological records exactly.
            cold = KVDatabase.cold_start(tmp_path, method=asked, lazy=lazy)
            cold.drain_lazy()
            assert cold.verify_against(stream) == len(stream)
            cold.close()
            return
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(ValueError) as refused:
            KVDatabase.cold_start(tmp_path, method=asked, lazy=lazy)
        assert written in str(refused.value) and asked in str(refused.value)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_oldest_checkpoint_is_skipped(self, tmp_path):
        _written_by("physical", tmp_path, checkpoint_first=True)
        with pytest.raises(ValueError, match="physical"):
            KVDatabase.cold_start(tmp_path, method="logical", recover=False)

    @pytest.mark.parametrize("asked", METHOD_NAMES)
    def test_an_empty_directory_accepts_any_method(self, tmp_path, asked):
        cold = KVDatabase.cold_start(tmp_path / "fresh", method=asked)
        cold.execute(("put", "k", 1))
        cold.sync()
        assert cold.verify_against([("put", "k", 1)]) == 1
        cold.close()

# ----------------------------------------------------------------------
# The real thing: kill -9 a child process, recover from its files.
# ----------------------------------------------------------------------

CHILD_SOURCE = """\
import json, sys
from repro.engine import KVDatabase
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

log_dir, method, seed, spec_json = sys.argv[1:5]
stream = generate_kv_workload(int(seed), KVWorkloadSpec(**json.loads(spec_json)))
db = KVDatabase(
    method=method,
    log_dir=log_dir,
    commit_every=2,
    checkpoint_every=None,
)
for index, command in enumerate(stream):
    db.execute(command)
    print(index, flush=True)
db.sync()
print("END", flush=True)
"""

CHILD_SEED = 29
CHILD_SPEC = KVWorkloadSpec(
    n_operations=200,
    n_keys=10,
    put_ratio=0.5,
    add_ratio=0.3,
    delete_ratio=0.05,
)
KILL_AFTER = 40  # SIGKILL once the child reports this many operations


def mutation_count(stream, durable):
    """Index into ``stream`` just past its ``durable``-th mutation."""
    seen = 0
    for index, command in enumerate(stream):
        if command[0] != "get":
            seen += 1
        if seen == durable:
            return index + 1
    return len(stream)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestProcessKill:
    @pytest.mark.parametrize("method", ["physiological", "logical"])
    def test_sigkill_then_cold_recovery(self, tmp_path, method):
        """Kill a real child mid-run; the parent recovers cold from the
        segment files alone (the in-memory Disk died with the child, so
        full replay is the contract) and the state must equal a clean
        replay of the durable prefix."""
        script = tmp_path / "child.py"
        script.write_text(CHILD_SOURCE)
        log_dir = tmp_path / "wal"
        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        spec_json = json.dumps(CHILD_SPEC.__dict__)
        proc = subprocess.Popen(
            [
                sys.executable,
                str(script),
                str(log_dir),
                method,
                str(CHILD_SEED),
                spec_json,
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            progress = -1
            while progress < KILL_AFTER:
                assert time.monotonic() < deadline, "child too slow"
                line = proc.stdout.readline()
                assert line, f"child exited early at op {progress}"
                if line.strip().isdigit():
                    progress = int(line)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.stdout.close()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        stream = generate_kv_workload(CHILD_SEED, CHILD_SPEC)
        db = KVDatabase.cold_start(log_dir, method=method)
        durable = db.verify_against(stream)
        assert durable > 0  # the kill happened mid-run, after real commits

        # The recovered incarnation is a working database: finish the
        # workload from just past the durable prefix and verify again.
        mutations = [c for c in stream if c[0] != "get"]
        rest = stream[mutation_count(stream, durable):]
        db.run(rest)
        db.sync()
        assert db.verify_against(mutations[:durable] + rest) == len(mutations)
        db.close()
