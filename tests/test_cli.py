"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "NO" in out
        assert "figure2" in out

    def test_graphs(self, capsys):
        assert main(["graphs"]) == 0
        out = capsys.readouterr().out
        assert "removed: O -> P" in out
        assert "prefix {P}" in out

    @pytest.mark.parametrize(
        "method", ["logical", "physical", "physiological", "generalized"]
    )
    def test_demo(self, method, capsys):
        assert main(["demo", method]) == 0
        out = capsys.readouterr().out
        assert "recovered exactly" in out

    @pytest.mark.parametrize(
        "method", ["logical", "physical", "physiological", "generalized"]
    )
    def test_audit(self, method, capsys):
        assert main(["audit", method]) == 0
        out = capsys.readouterr().out
        assert "0 invariant violations" in out

    @pytest.mark.parametrize("method", ["physiological", "generalized"])
    def test_demo_crash_at_midstream(self, method, capsys):
        assert main(["demo", method, "--seed", "7", "--crash-at", "20"]) == 0
        out = capsys.readouterr().out
        assert "seed 7" in out and "crash at 20" in out
        assert "recovered exactly" in out
        assert "state verified" in out

    def test_demo_crash_at_zero(self, capsys):
        """Crashing before any command durably loses everything — and
        the recovered incarnation still runs the full stream."""
        assert main(["demo", "physiological", "--crash-at", "0"]) == 0
        out = capsys.readouterr().out
        assert "recovered exactly 0 durable operations" in out
        assert "state verified" in out

    def test_demo_crash_at_out_of_range(self, capsys):
        assert main(["demo", "physiological", "--crash-at", "10000"]) == 2
        assert "--crash-at must be in" in capsys.readouterr().err

    def test_demo_seed_changes_workload(self, capsys):
        assert main(["demo", "physiological", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["demo", "physiological", "--seed", "4"]) == 0
        second = capsys.readouterr().out
        assert "seed 3" in first and "seed 4" in second

    def test_audit_seed_flag(self, capsys):
        assert main(["audit", "generalized", "--seed", "11"]) == 0
        assert "0 invariant violations" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_per_session_force_is_gone(self, capsys):
        """Retired, not ignored: the flag is an argparse error."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--per-session-force"])
        assert exit_info.value.code == 2
        assert "--per-session-force" in capsys.readouterr().err

    def test_serve_refuses_a_directory_another_method_wrote(self, tmp_path, capsys):
        """One line and exit 2, as a used ``demo --log-dir`` gets — not a
        traceback — before anything listens."""
        from repro.engine import KVDatabase

        db = KVDatabase(method="physiological", log_dir=tmp_path)
        db.execute(("put", "k", 1))
        db.sync()
        db.close()
        assert main(["serve", "physical", "--log-dir", str(tmp_path), "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "listening" not in captured.out
        err = captured.err.strip()
        assert "\n" not in err
        assert "physiological" in err and "'physical'" in err


class TestLogdump:
    """The ``logdump`` command over real segment files."""

    def _durable_run(self, tmp_path, method="physiological", **db_kwargs):
        from repro.engine import KVDatabase
        from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

        db = KVDatabase(method=method, log_dir=tmp_path, **db_kwargs)
        db.run(
            generate_kv_workload(
                5, KVWorkloadSpec(n_operations=30, n_keys=8, put_ratio=0.7)
            )
        )
        db.sync()
        db.close()
        return db

    def test_demo_log_dir_writes_segments(self, tmp_path, capsys):
        log_dir = tmp_path / "wal"
        assert main(["demo", "physiological", "--log-dir", str(log_dir)]) == 0
        out = capsys.readouterr().out
        assert "durable log:" in out and "fsyncs" in out
        assert list(log_dir.glob("segment-*.wal"))

    def test_logdump_directory_golden(self, tmp_path, capsys):
        """The golden-format check: one header line per file, one
        ``lsn=... type=... page=... size=...B crc=ok`` line per record,
        and a record-count footer that matches the log."""
        db = self._durable_run(tmp_path)
        record_count = len(db.method.machine.log)
        assert main(["logdump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("== segment-0000000000000000.wal (segment, base_lsn=0, ")
        body = [line for line in lines if line.startswith("  lsn=")]
        assert len(body) == record_count
        assert body[0].split() == [
            "lsn=0",
            "type=PhysiologicalRedo",
            f"page={db.method.machine.log.entry(0).payload.page_id}",
            f"size={db.method.machine.log.entry(0).size_bytes()}B",
            "crc=ok",
        ]
        assert lines[-1] == f"{record_count} records in 1 file(s)"

    def test_logdump_single_file_and_archive(self, tmp_path, capsys):
        """Nothing writes ``.arch`` files any more; a directory an older
        release trimmed (its first segment renamed) still dumps."""
        db = self._durable_run(
            tmp_path, method="logical", log_segment_size=8, checkpoint_every=10
        )
        db.method.machine.log.store.close()
        first = tmp_path / "segment-0000000000000000.wal"
        archive = first.rename(first.with_suffix(".arch"))
        assert main(["logdump", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "(archive, base_lsn=0," in out
        assert "crc=ok" in out
        # A directory dump lists archives before live segments.
        assert main(["logdump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.index("(archive,") < out.index("(segment,")

    def test_demo_twice_over_one_log_dir_is_refused(self, tmp_path, capsys):
        """A second demo over the same directory must not append a
        second file header to the first run's log (which any later
        cold start would have read as a torn tail)."""
        log_dir = tmp_path / "wal"
        assert main(["demo", "physiological", "--log-dir", str(log_dir)]) == 0
        capsys.readouterr()
        before = {p.name: p.read_bytes() for p in log_dir.iterdir()}
        assert main(["demo", "physiological", "--log-dir", str(log_dir)]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "cold_start" in err
        assert {p.name: p.read_bytes() for p in log_dir.iterdir()} == before
        assert main(["logdump", str(log_dir)]) == 0
        assert "torn tail" not in capsys.readouterr().out

    def test_logdump_reports_torn_tail(self, tmp_path, capsys):
        self._durable_run(tmp_path)
        path = next(tmp_path.glob("segment-*.wal"))
        path.write_bytes(path.read_bytes()[:-3])
        # A torn tail is reported in the exit status (1), not just text.
        assert main(["logdump", str(path)]) == 1
        out = capsys.readouterr().out
        assert "torn tail at byte" in out
        assert "1 torn tail(s)" in out

    def test_logdump_missing_path(self, tmp_path, capsys):
        assert main(["logdump", str(tmp_path / "nope")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_logdump_empty_directory(self, tmp_path, capsys):
        assert main(["logdump", str(tmp_path)]) == 2
        assert "no segment files" in capsys.readouterr().err


class TestCliTracing:
    """The ``--trace`` flags and the ``trace`` sub-command."""

    def test_demo_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace

        path = tmp_path / "demo.jsonl"
        assert main(["demo", "physiological", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {path}" in out
        records = load_trace(str(path))  # raises if malformed
        assert any(r["type"] == "span_start" and r["name"] == "recovery" for r in records)

    def test_audit_trace_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.obs import load_trace

        path = tmp_path / "audit.jsonl"
        assert main(["audit", "generalized", "--trace", str(path)]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out
        records = load_trace(str(path))
        assert any(r["name"] == "engine.command" for r in records if r["type"] == "event")

    def test_trace_command_renders_timeline(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert (
            main(["trace", "--out", str(path), "demo", "--crash-at", "30"]) == 0
        )
        out = capsys.readouterr().out
        assert "== recovery timeline ==" in out
        assert "recovery #1" in out
        assert "redo_start=" in out
        assert "segment [" in out
        assert path.exists()

    def test_trace_command_audit(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        assert main(["trace", "--out", str(path), "audit", "physical"]) == 0
        out = capsys.readouterr().out
        assert "== recovery timeline ==" in out

    def test_traced_crash_run_matches_report_counters(self, tmp_path, capsys):
        """The golden-file check: a traced crash run produces a
        well-formed JSON-lines trace whose recovery span totals equal the
        engine's report()/registry counters."""
        from repro.engine import KVDatabase
        from repro.obs import JsonLinesSink, RecoveryTimeline, Tracer
        from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

        path = tmp_path / "golden.jsonl"
        tracer = Tracer(JsonLinesSink(str(path)))
        db = KVDatabase(
            method="physiological",
            cache_capacity=4,
            commit_every=3,
            checkpoint_every=10,
            tracer=tracer,
        )
        stream = generate_kv_workload(
            5, KVWorkloadSpec(n_operations=50, n_keys=10, put_ratio=0.6, add_ratio=0.2)
        )
        db.run(stream)
        db.crash_and_recover()
        db.verify_against(stream)
        report = db.report()
        tracer.close()

        timeline = RecoveryTimeline.from_file(str(path))  # validates every line
        assert len(timeline.recoveries()) == 1
        totals = timeline.totals()
        # MethodStats survives the crash, so the per-record trace events
        # must add up to exactly what the registry/report publishes.
        assert totals["method.records_scanned"] == report["method_records_scanned"]
        assert totals["method.records_replayed"] == report["method_records_replayed"]
        assert totals["method.records_skipped"] == report["method_records_skipped"]
        # And the recovery span's own end fields agree too.
        recovery = timeline.recoveries()[0]
        assert recovery.field("scanned") == report["method_records_scanned"]
        assert recovery.field("redo_start") is not None


class TestShardedLogdump:
    """``logdump`` over a sharded deployment root (DEPLOY.json)."""

    def _deployment(self, tmp_path, n_shards=3):
        from repro.engine import EngineSpec
        from repro.shard import ShardedDatabase

        sdb = ShardedDatabase.create(
            root=tmp_path,
            n_shards=n_shards,
            spec=EngineSpec(
                method="physiological", commit_every=1, fsync=False
            ),
        )
        sdb.run([("put", f"k{i}", i) for i in range(24)])
        sdb.sync()
        sdb.close()
        return sdb

    def test_sharded_root_dumps_every_shard(self, tmp_path, capsys):
        self._deployment(tmp_path)
        assert main(["logdump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        # Every line except the footer carries its shard-directory prefix.
        for line in lines[:-1]:
            assert line.startswith("[shard-0")
        for shard in ("shard-00", "shard-01", "shard-02"):
            assert any(line.startswith(f"[{shard}] ==") for line in lines)
        assert lines[-1].endswith("across 3 shard(s)")
        # The per-shard record counts add up to the footer's total.
        body = [line for line in lines if "crc=" in line]
        assert lines[-1].startswith(f"{len(body)} records in")

    def test_sharded_root_torn_tail_drives_exit_code(self, tmp_path, capsys):
        self._deployment(tmp_path)
        tail = sorted((tmp_path / "shard-01").glob("segment-*.wal"))[-1]
        tail.write_bytes(tail.read_bytes()[:-3])
        assert main(["logdump", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[shard-01]" in out and "torn tail at byte" in out
        assert "1 torn tail(s)" in out

    def test_sharded_root_corrupt_manifest(self, tmp_path, capsys):
        self._deployment(tmp_path)
        (tmp_path / "DEPLOY.json").write_text("{not json")
        assert main(["logdump", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip()

    def test_plain_directory_output_is_unchanged(self, tmp_path, capsys):
        """No DEPLOY.json → the original single-log format, no prefixes."""
        from repro.engine import KVDatabase

        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_every=1
        )
        db.run([("put", "a", 1), ("put", "b", 2)])
        db.sync()
        db.close()
        assert main(["logdump", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[shard-" not in out
        assert "across" not in out
