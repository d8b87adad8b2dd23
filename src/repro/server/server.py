"""The KV server: one engine, many connections, one commit pipeline.

Protocol: one JSON object per line, UTF-8, ``\\n``-terminated.

Requests::

    {"op": "put", "key": "a", "value": 1}
    {"op": "get", "key": "a"}
    {"op": "add", "key": "a", "value": 5}
    {"op": "delete", "key": "a"}
    {"op": "copyadd", "key": "a", "src": "b", "value": 5}
    {"op": "commit"}          # this session's records durable on reply
    {"op": "sync"}            # hard barrier over every session's records
    {"op": "stats"}           # engine + pipeline counters + latency quantiles
    {"op": "health"}          # liveness: stable LSNs, dirty pages, uptime
    {"op": "ping"}

Replies are ``{"ok": true, ...}`` or ``{"ok": false, "error": "..."}``;
a malformed line gets an error reply rather than a dropped connection.

**Concurrency contract.**  Each connection runs on its own thread
(:class:`socketserver.ThreadingTCPServer`) and owns one engine
:class:`~repro.engine.kv.Session`; every engine interaction goes
through the session, whose contract (engine-mutex application, commit
waits outside the lock) makes the handler safe without any locking of
its own.  ``commit`` replies only after the session's last LSN is
stable.  Every engine group-commits, so one leader's fsync covers every
commit that follows it, and a thousand clients committing concurrently
cost a handful of fsyncs.

**Sharded deployments.**  The server is duck-typed over its database:
anything with ``session()`` / ``report()`` / ``close()`` serves, and a
:class:`~repro.shard.ShardedDatabase` qualifies — its sessions route
each command to the key's owning shard, so the handler needs no
sharding special case and ``serve --shards N`` is the same front-end
over N engines.

**Telemetry.**  Every dispatched request lands its wall-clock latency
in a per-op log-scale histogram (``server.latency.put`` / ``.get`` /
``.commit`` / …), and ``stats`` replies carry the quantile summaries
(p50/p95/p99) next to the engine's merged counter snapshot; ``health``
answers the cheap liveness questions (per-shard stable LSN, volatile
pipeline depth, dirty-page count, uptime) without touching the full
registry.  It is always on: measured, it costs within 5% of no
telemetry at all in commits/s.

The budget dictates the architecture: per-*operation* tracing costs
microseconds of JSON per record, which at tens of thousands of ops/s is
a double-digit throughput tax — so served engines are never traced.
Instead the server's own tracer (``tracer=``, writing straight into the
on-disk flight ring under ``repro serve --log-dir``) carries the
cheap-but-sufficient crash narrative: the ``server.serve`` span (left
open while serving, so a SIGKILL renders it INTERRUPTED in the
postmortem) and a **heartbeat** event every ``heartbeat_interval``
seconds with the health snapshot — stable LSNs, pipeline depth, dirty
pages, session counts.  A few records per second buys a postmortem that
says what the deployment looked like moments before it died.
"""

from __future__ import annotations

import json
import socketserver
import threading
import time
from typing import Any

from repro.engine.kv import KVDatabase
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.workloads.kv import MUTATIONS


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        """One connection's loop: bind a session, answer line by line."""
        server: KVServer = self.server  # type: ignore[assignment]
        session = server.db.session(commit_every=server.session_commit_every)
        with server.track(session):
            for raw in self.rfile:
                line = raw.strip()
                if not line:
                    continue
                try:
                    reply = self._dispatch(session, json.loads(line))
                except Exception as exc:  # noqa: BLE001 — reply, don't die
                    reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
                self.wfile.write(json.dumps(reply).encode() + b"\n")
                self.wfile.flush()
                if reply.get("bye"):
                    return

    def _dispatch(self, session, request: dict) -> dict[str, Any]:
        server: KVServer = self.server  # type: ignore[assignment]
        started = time.perf_counter()
        try:
            return self._dispatch_inner(session, request)
        finally:
            server.observe_latency(
                request.get("op"), time.perf_counter() - started
            )

    def _dispatch_inner(self, session, request: dict) -> dict[str, Any]:
        op = request.get("op")
        key = request.get("key")
        if op in MUTATIONS:
            if op == "copyadd":
                value = (request["src"], request["value"])
            elif op == "delete":
                value = None
            else:
                value = request["value"]
            session.execute((op, key, value))
            return {"ok": True, "lsn": session.last_lsn}
        if op == "get":
            return {"ok": True, "value": session.get(key)}
        if op == "commit":
            return {"ok": True, "stable_lsn": session.commit()}
        if op == "sync":
            return {"ok": True, "stable_lsn": session.sync()}
        if op == "stats":
            server: KVServer = self.server  # type: ignore[assignment]
            return {"ok": True, "stats": server.stats()}
        if op == "health":
            server = self.server  # type: ignore[assignment]
            return {"ok": True, "health": server.health()}
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "quit":
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


class KVServer(socketserver.ThreadingTCPServer):
    """A thread-per-connection front-end over one database — a single
    :class:`KVDatabase` or a :class:`~repro.shard.ShardedDatabase`
    (anything whose sessions speak execute/get/commit/sync/last_lsn)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        db: KVDatabase | Any,
        host: str = "127.0.0.1",
        port: int = 0,
        session_commit_every: int = 1,
        tracer: Any = None,
        heartbeat_interval: float = 1.0,
    ):
        self.db = db
        self.session_commit_every = session_commit_every
        self.heartbeat_interval = heartbeat_interval
        self.started_at = time.monotonic()
        self._sessions_lock = threading.Lock()
        self.sessions_served = 0
        self.sessions_active = 0
        # Per-op request latency histograms, created on first sighting of
        # each op (unknown ops included — their latency is real too).
        self.metrics = MetricsRegistry()
        self._latency: dict[str, Histogram] = {}
        self._latency_lock = threading.Lock()
        # The server's own tracer — NOT necessarily the engine's: the
        # default serve configuration keeps the engine untraced (the
        # per-op firehose is too expensive for the hot path) and gives
        # the server a flight-ring tracer for the crash narrative.
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = getattr(db, "tracer", None) or NULL_TRACER
        # A span the server deliberately never closes while serving: a
        # SIGKILL leaves it open, which the postmortem renders as the
        # INTERRUPTED marker of what the process was doing when it died.
        self._serve_span = None
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        super().__init__((host, port), _Handler)
        if self.tracer.enabled:
            host_bound, port_bound = self.address
            self._serve_span = self.tracer.span(
                "server.serve", host=host_bound, port=port_bound
            )
            if self.heartbeat_interval > 0:
                self._heartbeat_thread = threading.Thread(
                    target=self._heartbeat_loop,
                    name="kv-server-heartbeat",
                    daemon=True,
                )
                self._heartbeat_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is real even when 0 was asked."""
        return self.socket.getsockname()[:2]

    def track(self, session):
        """Context manager counting one connection's session lifetime."""
        server = self

        class _Track:
            def __enter__(self):
                with server._sessions_lock:
                    server.sessions_served += 1
                    server.sessions_active += 1
                return session

            def __exit__(self, *exc):
                with server._sessions_lock:
                    server.sessions_active -= 1
                return False

        return _Track()

    def observe_latency(self, op: Any, seconds: float) -> None:
        """Land one request's wall-clock latency in its op's histogram."""
        if not isinstance(op, str):
            op = "malformed"
        hist = self._latency.get(op)
        if hist is None:
            with self._latency_lock:
                hist = self._latency.get(op)
                if hist is None:
                    hist = self.metrics.histogram(f"server.latency.{op}")
                    self._latency[op] = hist
        hist.observe(seconds)

    def latency_summaries(self) -> dict[str, dict]:
        """Per-op quantile summaries for every op seen so far."""
        with self._latency_lock:
            items = list(self._latency.items())
        return {op: hist.summary() for op, hist in sorted(items)}

    def stats(self) -> dict[str, Any]:
        """Server counters, the database's merged registry snapshot (for
        a sharded deployment: every shard's counters, ``shardNN_``-
        prefixed), uptime, and per-op latency quantiles."""
        with self._sessions_lock:
            stats: dict[str, Any] = {
                "sessions_served": self.sessions_served,
                "sessions_active": self.sessions_active,
            }
        stats["uptime_s"] = time.monotonic() - self.started_at
        stats.update(self.db.report())
        stats["latency"] = self.latency_summaries()
        return stats

    def health(self) -> dict[str, Any]:
        """The cheap liveness answer: session counts, uptime, and the
        database's :meth:`~repro.engine.kv.KVDatabase.health` (per-shard
        stable LSN / pipeline depth / dirty pages when sharded)."""
        with self._sessions_lock:
            health: dict[str, Any] = {
                "sessions_served": self.sessions_served,
                "sessions_active": self.sessions_active,
            }
        health["uptime_s"] = time.monotonic() - self.started_at
        if hasattr(self.db, "health"):
            health.update(self.db.health())
        return health

    def _heartbeat_loop(self) -> None:
        """Emit one compact health event per interval into the tracer.

        This is the flight ring's steady-state diet: a few records per
        second that say what the deployment looked like — so the
        postmortem's final events carry the last known stable LSNs even
        though no per-op event was ever traced.
        """
        while not self._heartbeat_stop.wait(self.heartbeat_interval):
            try:
                health = self.db.health() if hasattr(self.db, "health") else {}
            except Exception:  # noqa: BLE001 — a dying engine stops beats
                continue
            fields: dict[str, Any] = {
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "sessions": self.sessions_active,
            }
            for key in (
                "stable_lsn",
                "pipeline_depth",
                "dirty_pages",
                "replay_backlog",
                "state",
                "n_shards",
                "stable_lsn_total",
                "pipeline_depth_total",
                "dirty_pages_total",
                "replay_backlog_total",
            ):
                if key in health:
                    fields[key] = health[key]
            if "shards" in health:
                fields["stable_lsns"] = [
                    s.get("stable_lsn", -1) for s in health["shards"]
                ]
            self.tracer.event("server.heartbeat", **fields)

    def serve_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread; returns it."""
        thread = threading.Thread(
            target=self.serve_forever, name="kv-server", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        """Stop accepting, close the socket, close the database."""
        self.shutdown()
        self.server_close()
        self._heartbeat_stop.set()
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5.0)
            self._heartbeat_thread = None
        if self._serve_span is not None:
            self._serve_span.end(clean_shutdown=True)
            self._serve_span = None
        self.db.close()
