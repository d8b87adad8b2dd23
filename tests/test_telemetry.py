"""Operational telemetry over the wire: latency quantiles in ``stats``,
the ``health`` op, the ``top`` dashboard, cold-start progress reporting,
and the ``postmortem`` CLI — the observable surface this PR adds."""

import io

import pytest

from repro.engine import EngineSpec, KVDatabase
from repro.server import KVClient, KVServer
from repro.server.top import render_top, run_top
from repro.shard import ShardedDatabase


@pytest.fixture()
def served_engine(tmp_path):
    db = KVDatabase(
        method="physiological", log_dir=tmp_path / "wal", commit_pipeline=True
    )
    server = KVServer(db)
    server.serve_background()
    yield server
    server.close()


@pytest.fixture()
def served_deployment(tmp_path):
    sdb = ShardedDatabase.create(
        root=tmp_path / "dep",
        n_shards=4,
        spec=EngineSpec(method="physiological", commit_pipeline=True),
    )
    server = KVServer(sdb)
    server.serve_background()
    yield sdb, server
    server.close()


class TestLatencyQuantiles:
    def test_stats_carry_per_op_quantiles(self, served_engine):
        with KVClient(*served_engine.address) as client:
            for i in range(30):
                client.put(f"k{i}", i)
            client.commit()
            stats = client.stats()
        latency = stats["latency"]
        assert latency["put"]["count"] == 30
        for suffix in ("mean", "p50", "p95", "p99"):
            assert latency["put"][suffix] > 0.0
        assert latency["put"]["p50"] <= latency["put"]["p99"]
        assert latency["commit"]["count"] == 1

    def test_uptime_in_stats(self, served_engine):
        with KVClient(*served_engine.address) as client:
            stats = client.stats()
        assert stats["uptime_s"] >= 0.0

    def test_malformed_op_does_not_mint_arbitrary_metric_names(
        self, served_engine
    ):
        from repro.server.client import ServerError

        with KVClient(*served_engine.address) as client:
            with pytest.raises(ServerError):
                client.request(op=12345)
            client.ping()
        summaries = served_engine.latency_summaries()
        assert "malformed" in summaries
        assert summaries["malformed"]["count"] == 1


class TestHealthOp:
    def test_single_engine_health(self, served_engine):
        with KVClient(*served_engine.address) as client:
            client.put("a", 1)
            client.put("b", 2)
            client.commit()
            health = client.health()
        assert health["stable_lsn"] >= 1  # LSNs start at 0; two are stable
        assert health["pipeline_depth"] == 0  # quiesced after commit
        assert health["dirty_pages"] >= 0
        assert health["method"] == "physiological"
        assert health["uptime_s"] >= 0.0
        assert health["sessions_active"] >= 1

    def test_deployment_health_reports_every_shard(self, served_deployment):
        _, server = served_deployment
        with KVClient(*server.address) as client:
            for i in range(40):
                client.put(f"key{i}", i)
            client.commit()
            health = client.health()
        assert health["n_shards"] == 4
        assert len(health["shards"]) == 4
        for shard in health["shards"]:
            assert shard["stable_lsn"] >= 0
            assert shard["pipeline_depth"] == 0
            assert shard["dirty_pages"] >= 0
        assert health["stable_lsn_total"] == sum(
            s["stable_lsn"] for s in health["shards"]
        )
        assert health["dirty_pages_total"] == sum(
            s["dirty_pages"] for s in health["shards"]
        )

    def test_pipeline_depth_counts_unforced_suffix(self, tmp_path):
        db = KVDatabase(method="physiological", log_dir=tmp_path / "wal")
        # A session cadence longer than the run keeps appends unforced.
        server = KVServer(db, session_commit_every=64)
        server.serve_background()
        try:
            with KVClient(*server.address) as client:
                for i in range(5):
                    client.put(f"k{i}", i)
                health = client.health()
                assert health["pipeline_depth"] == 5
                client.sync()  # the hard barrier drains the tail
                assert client.health()["pipeline_depth"] == 0
        finally:
            server.close()


class TestHeartbeat:
    def test_heartbeats_carry_health_into_the_tracer(self, tmp_path):
        """The default serve telemetry: engine untraced, the server's
        own tracer emits a health snapshot every interval — the flight
        ring's steady-state diet."""
        import time

        from repro.obs import RingBufferSink, Tracer

        db = KVDatabase(
            method="physiological",
            log_dir=tmp_path / "wal",
            commit_pipeline=True,
        )
        sink = RingBufferSink()
        server = KVServer(db, tracer=Tracer(sink), heartbeat_interval=0.05)
        server.serve_background()
        try:
            with KVClient(*server.address) as client:
                client.put("a", 1)
                client.put("b", 2)
                client.commit()
            beats = []
            deadline = time.monotonic() + 5.0
            while not beats and time.monotonic() < deadline:
                beats = [
                    r
                    for r in sink
                    if r["type"] == "event" and r["name"] == "server.heartbeat"
                ]
                time.sleep(0.01)
            assert beats, "no heartbeat within 5s at a 50ms interval"
            fields = beats[-1]["fields"]
            assert fields["stable_lsn"] >= 1
            assert fields["dirty_pages"] >= 0
            assert fields["uptime_s"] >= 0.0
            assert "sessions" in fields
        finally:
            server.close()
        assert server._heartbeat_thread is None  # close() joined it

    def test_sharded_heartbeat_lists_per_shard_lsns(self, tmp_path):
        import time

        from repro.obs import RingBufferSink, Tracer

        sdb = ShardedDatabase.create(
            root=tmp_path / "dep",
            n_shards=3,
            spec=EngineSpec(method="physiological", commit_pipeline=True),
        )
        sink = RingBufferSink()
        server = KVServer(sdb, tracer=Tracer(sink), heartbeat_interval=0.05)
        server.serve_background()
        try:
            with KVClient(*server.address) as client:
                for i in range(30):
                    client.put(f"key{i}", i)
                client.commit()
            beats = []
            deadline = time.monotonic() + 5.0
            while not beats and time.monotonic() < deadline:
                beats = [
                    r
                    for r in sink
                    if r["type"] == "event"
                    and r["name"] == "server.heartbeat"
                    and sum(r["fields"].get("stable_lsns", [])) > 0
                ]
                time.sleep(0.01)
            assert beats, "no heartbeat with stable traffic within 5s"
            fields = beats[-1]["fields"]
            assert fields["n_shards"] == 3
            assert len(fields["stable_lsns"]) == 3
            assert fields["stable_lsn_total"] == sum(fields["stable_lsns"])
        finally:
            server.close()

    def test_no_tracer_means_no_heartbeat_thread(self, served_engine):
        # The fixture's db has no tracer: NULL_TRACER, no thread at all.
        assert served_engine._heartbeat_thread is None


class TestTopDashboard:
    def test_run_top_once_renders_a_frame(self, served_deployment):
        _, server = served_deployment
        with KVClient(*server.address) as client:
            for i in range(20):
                client.put(f"key{i}", i)
            client.commit()
        host, port = server.address
        out = io.StringIO()
        assert run_top(host, port, once=True, out=out) == 0
        frame = out.getvalue()
        assert f"{host}:{port}" in frame
        assert "served" in frame
        assert "shard" in frame
        assert "put" in frame  # the latency table

    def test_rates_come_from_deltas(self):
        stats0 = {"pipeline_commits": 100, "method_operations": 10,
                  "durable_fsyncs": 5, "log_forces": 0}
        stats1 = {"pipeline_commits": 300, "method_operations": 20,
                  "durable_fsyncs": 10, "log_forces": 0}
        frame = render_top(
            ("h", 1), stats1, {}, prev_stats=stats0, dt=2.0
        )
        assert "commits=300 (100/s)" in frame

    def test_totals_roll_up_shard_prefixes(self):
        stats = {
            "n_shards": 2,
            "shard00_pipeline_commits": 3,
            "shard01_pipeline_commits": 4,
        }
        frame = render_top(("h", 1), stats, {})
        assert "commits=7" in frame

    def test_cli_top_once_against_live_server(self, served_deployment, capsys):
        from repro.__main__ import main

        _, server = served_deployment
        host, port = server.address
        assert main(["top", "--host", host, "--port", str(port), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "\x1b[2J" not in out  # --once never clears the screen


class TestColdStartProgress:
    def test_on_progress_fires_per_shard_with_time_to_ready(self, tmp_path):
        root = tmp_path / "dep"
        sdb = ShardedDatabase.create(
            root=root,
            n_shards=3,
            spec=EngineSpec(method="physiological", commit_pipeline=True),
        )
        for i in range(60):
            sdb.execute(("put", f"key{i}", i))
        sdb.sync()
        sdb.close()
        seen = []
        sdb = ShardedDatabase.cold_start(root, on_progress=seen.append)
        try:
            assert [r["shard"] for r in seen] == [0, 1, 2]
            assert seen == sdb.cold_report["per_shard"]
            for result in seen:
                assert set(result) == {
                    "shard", "dir", "elapsed_s", "time_to_ready_s",
                    "stable_lsn", "replayed", "torn_tails", "replay_backlog",
                }
                assert result["time_to_ready_s"] > 0.0
                assert result["replay_backlog"] == 0
            assert sum(r["replayed"] for r in seen) == 60
        finally:
            sdb.close()


class TestPostmortemCli:
    def _crashed_root(self, tmp_path):
        """A deployment root + flight ring left behind by a crash:
        traffic traced into the ring, span never closed, no clean
        shutdown of the recorder (close flushes nothing anyway); the
        shards crash, and only their file handles are released."""
        from repro.obs import FlightRecorder, Tracer, flight_ring_path

        root = tmp_path / "dep"
        sdb = ShardedDatabase.create(
            root=root,
            n_shards=2,
            spec=EngineSpec(method="physiological", commit_pipeline=True),
        )
        recorder_path = flight_ring_path(root)
        tracer = Tracer(FlightRecorder.create(recorder_path, n_slots=256))
        span = tracer.span("server.serve", port=1234)
        for shard in sdb.shards:
            shard.tracer = tracer
            shard.method.machine.tracer = tracer
            shard.method.machine.log.tracer = tracer
        for i in range(30):
            sdb.execute(("put", f"key{i}", i))
        sdb.sync()
        # simulate SIGKILL: no span.end(), no clean close of the engines
        sdb.crash()
        for shard in sdb.shards:
            shard.method.machine.log.store.close()
        return root

    def test_postmortem_joins_ring_and_wal(self, tmp_path, capsys):
        from repro.__main__ import main

        root = self._crashed_root(tmp_path)
        assert main(["postmortem", str(root)]) == 0
        out = capsys.readouterr().out
        assert "== postmortem:" in out
        assert "server.serve" in out
        assert "[INTERRUPTED]" in out
        assert "last stable LSN" in out
        assert "log.append" in out or "log.force" in out

    def test_postmortem_report_matches_logdump_lsn(self, tmp_path):
        from repro.obs.postmortem import collect_postmortem
        from repro.shard.sharded import read_manifest

        root = self._crashed_root(tmp_path)
        report = collect_postmortem(root)
        assert report["ok"]
        manifest = read_manifest(root)
        reborn = ShardedDatabase.cold_start(root)
        try:
            for index, dirname in enumerate(manifest["shard_dirs"]):
                stable = reborn.shards[index].method.machine.log.stable_lsn
                assert report["logs"][dirname]["last_lsn"] == stable
        finally:
            reborn.close()

    def test_postmortem_without_ring_still_reports_wal(self, tmp_path, capsys):
        from repro.__main__ import main

        wal = tmp_path / "wal"
        db = KVDatabase(method="physiological", log_dir=wal)
        db.execute(("put", "a", 1))
        db.sync()
        db.close()
        assert main(["postmortem", str(wal)]) == 0
        out = capsys.readouterr().out
        assert "flight ring: none found" in out
        assert "last stable LSN" in out

    def test_postmortem_on_empty_dir_fails_cleanly(self, tmp_path, capsys):
        from repro.__main__ import main

        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["postmortem", str(empty)]) == 2
