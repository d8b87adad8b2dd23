"""Tests for the threaded server front-end, its client, and the
simulated-client harness (commit fan-in through the pipeline)."""

import json
import socket
import threading
import time

import pytest

from repro.engine import EngineSpec, KVDatabase
from repro.server import KVClient, KVServer, run_simulated_clients
from repro.server.client import ServerError
from repro.server.harness import client_key


@pytest.fixture()
def served_db(tmp_path):
    db = KVDatabase(
        method="physiological", log_dir=tmp_path / "wal", commit_pipeline=True
    )
    server = KVServer(db)
    server.serve_background()
    yield db, server
    server.close()


class TestProtocol:
    def test_put_commit_get_roundtrip(self, served_db):
        _, server = served_db
        with KVClient(*server.address) as client:
            assert client.ping()
            client.put("a", 1)
            client.add("a", 5)
            stable = client.commit()
            assert stable >= 0
            assert client.get("a") == 6
            client.delete("a")
            client.commit()
            assert client.get("a") is None

    def test_copyadd_and_sync(self, tmp_path):
        # copyadd is cross-key, which physiological refuses; serve the
        # logical method for this one.
        db = KVDatabase(
            method="logical", log_dir=tmp_path, commit_pipeline=True
        )
        server = KVServer(db)
        server.serve_background()
        try:
            with KVClient(*server.address) as client:
                client.put("src", 10)
                client.copyadd("dst", "src", 7)
                client.sync()
                assert client.get("dst") == 17
        finally:
            server.close()

    def test_unknown_op_is_error_reply_not_disconnect(self, served_db):
        _, server = served_db
        with KVClient(*server.address) as client:
            with pytest.raises(ServerError, match="unknown op"):
                client.request(op="frobnicate")
            assert client.ping()  # connection survived

    def test_malformed_json_is_error_reply(self, served_db):
        _, server = served_db
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False

    def test_an_add_that_does_not_add_is_refused_and_logs_nothing(self, tmp_path):
        """A hostile client's add to a string gets ``ok: false``; its
        record never reaches the log, so the directory restarts."""
        wal = tmp_path / "wal"
        db = KVDatabase(method="physiological", log_dir=wal)
        server = KVServer(db)
        server.serve_background()
        try:
            with socket.create_connection(server.address, timeout=10) as sock:
                replies = sock.makefile("rb")
                for request in (
                    {"op": "put", "key": "k", "value": "abc"},
                    {"op": "add", "key": "k", "value": 1},
                    {"op": "put", "key": "z", "value": 1},
                    {"op": "commit"},
                ):
                    sock.sendall(json.dumps(request).encode() + b"\n")
                    reply = json.loads(replies.readline())
                    if request["op"] == "add":
                        assert reply["ok"] is False
                        assert "TypeError" in reply["error"]
                    else:
                        assert reply["ok"] is True
        finally:
            server.close()
        reborn = KVDatabase.cold_start(wal, method="physiological")
        assert reborn.method.dump() == {"k": "abc", "z": 1}
        reborn.close()

    def test_stats_expose_sessions_and_pipeline(self, served_db):
        _, server = served_db
        with KVClient(*server.address) as client:
            client.put("a", 1)
            client.commit()
            stats = client.stats()
        assert stats["sessions_served"] >= 1
        assert stats["pipeline_commits"] >= 1
        # The adaptive window's gather cap and how often it waited.
        assert stats["pipeline_force_estimate_us"] > 0
        assert stats["pipeline_gathered_windows"] >= 0
        assert stats["method"] == "physiological"


class TestConcurrentClients:
    def test_disjoint_keyspaces_commit_concurrently(self, served_db, session_log):
        db, server = served_db
        n_clients, errors = 8, []

        def one_client(i):
            try:
                with KVClient(*server.address) as client:
                    for j in range(4):
                        client.put(client_key(i, j), 100 * i + j)
                    client.commit()
                    for j in range(4):
                        assert client.get(client_key(i, j)) == 100 * i + j
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert server.sessions_served >= n_clients
        db.verify_against(session_log(db))

    def test_committed_data_survives_cold_start(self, tmp_path):
        wal = tmp_path / "wal"
        db = KVDatabase(
            method="physiological", log_dir=wal, commit_pipeline=True
        )
        server = KVServer(db)
        server.serve_background()
        with KVClient(*server.address) as client:
            client.put("durable", 42)
            client.commit()
        server.close()
        reborn = KVDatabase.cold_start(wal, method="physiological")
        assert reborn.get("durable") == 42
        reborn.close()


class TestHarness:
    def test_simulated_clients_all_durable(self, tmp_path, session_log):
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        result = run_simulated_clients(
            db, n_clients=25, ops_per_client=4, workers=8
        )
        assert result.clients == 25
        assert result.ops == 100
        assert result.commits == 50  # commit_every=2 + final commit folds in
        assert result.commits_per_sec > 0
        assert db.durable_count() == 100  # every client committed at the end
        db.verify_against(session_log(db))
        db.close()

    def test_commit_pipeline_false_is_refused(self, tmp_path):
        """Every engine group-commits: the per-session-forcing path is
        gone, and asking for it is refused by the field's name."""
        with pytest.raises(ValueError, match="commit_pipeline=False"):
            EngineSpec(commit_pipeline=False)
        with pytest.raises(ValueError, match="commit_pipeline=False"):
            KVDatabase(log_dir=tmp_path, commit_pipeline=False)
        with pytest.raises(ValueError, match="commit_pipeline=False"):
            EngineSpec.from_dict({**EngineSpec().as_dict(), "commit_pipeline": False})
        assert not any(tmp_path.iterdir())  # refused before a file exists
        db = EngineSpec(commit_pipeline=True).build(log_dir=tmp_path)
        db.close()

    def test_pipeline_coalesces_under_harness_load(self, tmp_path):
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        run_simulated_clients(db, n_clients=200, ops_per_client=2, workers=16)
        stats = db.pipeline.stats()
        # Fan-in: at least three commits share each force on average.
        forces = stats["windows"] + stats["fast_path"]
        assert stats["commits"] / forces >= 3, stats
        db.close()


class TestShardedServer:
    """The same front-end over a ShardedDatabase: per-command routing,
    deployment stats, and durability across a cold start."""

    @pytest.fixture()
    def sharded_server(self, tmp_path):
        from repro.engine import EngineSpec
        from repro.shard import ShardedDatabase

        sdb = ShardedDatabase.create(
            root=tmp_path / "dep",
            n_shards=3,
            spec=EngineSpec(method="physiological", commit_pipeline=True),
        )
        server = KVServer(sdb)
        server.serve_background()
        yield sdb, server
        server.close()

    def test_roundtrip_routes_by_key(self, sharded_server):
        sdb, server = sharded_server
        with KVClient(*server.address) as client:
            for i in range(12):
                client.put(f"key{i}", i)
            client.commit()
            for i in range(12):
                assert client.get(f"key{i}") == i
        # every key landed on the shard the keymap names
        for index, shard in enumerate(sdb.shards):
            for key in shard.method.dump():
                assert sdb.keymap.shard_of(key) == index

    def test_stats_report_deployment_shape(self, sharded_server):
        _, server = sharded_server
        with KVClient(*server.address) as client:
            client.put("a", 1)
            client.commit()
            stats = client.stats()
        assert stats["n_shards"] == 3
        assert stats["sessions_served"] >= 1
        assert any(key.startswith("shard02_") for key in stats)

    def test_concurrent_clients_spread_across_shards(
        self, sharded_server, session_log
    ):
        sdb, server = sharded_server
        errors = []

        def one_client(i):
            try:
                with KVClient(*server.address) as client:
                    for j in range(4):
                        client.put(client_key(i, j), 100 * i + j)
                    client.commit()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=one_client, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert sdb.durable_count() == 32
        sdb.verify_against(session_log(*sdb.shards))

    def test_committed_data_survives_deployment_cold_start(self, tmp_path):
        from repro.engine import EngineSpec
        from repro.shard import ShardedDatabase

        root = tmp_path / "dep"
        sdb = ShardedDatabase.create(
            root=root, n_shards=2, spec=EngineSpec(commit_pipeline=True)
        )
        server = KVServer(sdb)
        server.serve_background()
        with KVClient(*server.address) as client:
            client.put("durable", 42)
            client.put("other", 7)
            client.commit()
        server.close()
        reborn = ShardedDatabase.cold_start(root)
        assert reborn.get("durable") == 42
        assert reborn.get("other") == 7
        reborn.close()


def _sever(client) -> None:
    """Sever the client's socket end.  Tolerates the race where closing
    the listener already RST a connection still sitting unaccepted in
    the backlog — shutdown then raises ENOTCONN, which *is* the severed
    state the caller wanted."""
    try:
        client._sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class TestClientRetries:
    def test_retries_off_by_default(self, tmp_path):
        # A closed listener does not kill established connections (each
        # handler runs on its own daemon thread), so sever the client's
        # socket too — the observable form of a server dying under it.
        db = KVDatabase(method="physiological", commit_pipeline=True)
        server = KVServer(db)
        server.serve_background()
        client = KVClient(*server.address)
        assert client.retries == 0
        server.close()
        _sever(client)
        with pytest.raises((ConnectionError, OSError)):
            client.put("a", 1)
        client.close()

    def test_retry_rides_over_a_server_restart(self, tmp_path):
        """Kill the listener mid-conversation, restart it on the same
        port, and watch a retries>0 client reconnect and finish."""
        db = KVDatabase(
            method="physiological", log_dir=tmp_path, commit_pipeline=True
        )
        server = KVServer(db)
        server.serve_background()
        host, port = server.address
        client = KVClient(host, port, retries=8, backoff=0.01)
        client.put("before", 1)
        client.commit()
        server.close()
        _sever(client)  # the old peer is gone

        def restart():
            time.sleep(0.05)
            reborn_db = KVDatabase.cold_start(
                tmp_path, method="physiological", commit_pipeline=True
            )
            reborn = KVServer(reborn_db, host=host, port=port)
            reborn.serve_background()
            return reborn

        restarter = ThreadWithResult(restart)
        restarter.start()
        # The listener is down right now: this request must survive the
        # refused-connect window via backoff, then land on the reborn
        # server's fresh session.
        client.put("after", 2)
        client.commit()
        assert client.reconnects >= 1
        assert client.get("before") == 1
        assert client.get("after") == 2
        client.close()
        restarter.join()
        restarter.result.close()

    def test_retry_budget_exhausts(self):
        """With the listener gone for good, every redial is refused: the
        budget burns down and the last failure propagates."""
        db = KVDatabase(method="physiological", commit_pipeline=True)
        server = KVServer(db)
        server.serve_background()
        client = KVClient(*server.address, retries=2, backoff=0.01)
        server.close()
        _sever(client)
        with pytest.raises((ConnectionError, OSError)):
            client.put("a", 1)
        assert client.reconnects == 0  # no redial ever succeeded
        client.close()

    def test_server_errors_are_never_retried(self, tmp_path):
        db = KVDatabase(method="physiological", commit_pipeline=True)
        server = KVServer(db)
        server.serve_background()
        client = KVClient(*server.address, retries=5, backoff=0.01)
        with pytest.raises(ServerError):
            client.request(op="frobnicate")
        assert client.reconnects == 0
        client.close()
        server.close()


class ThreadWithResult(threading.Thread):
    def __init__(self, fn):
        super().__init__()
        self.fn = fn
        self.result = None

    def run(self):
        self.result = self.fn()
