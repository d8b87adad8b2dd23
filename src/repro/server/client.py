"""A small blocking client for the line-delimited JSON KV protocol."""

from __future__ import annotations

import json
import socket
import time
from typing import Any


class ServerError(RuntimeError):
    """The server replied ``{"ok": false, ...}``."""


class KVClient:
    """One connection to a :class:`~repro.server.server.KVServer`.

    Blocking, one request in flight at a time — which is exactly a
    *session*: the server binds this connection to one engine session,
    so :meth:`commit` is a durability barrier for this client's own
    mutations.  Not thread-safe; give each thread its own client.

    ``retries=N`` (default 0: off) arms bounded reconnect-and-retry
    with exponential backoff against the connection-level failures a
    server restart produces — refused connects while the listener is
    down, resets and half-closed sockets when it dies mid-request.
    The retried request is re-sent on a *fresh connection*, i.e. a
    fresh server session: at-least-once delivery, so it is only safe
    for idempotent traffic or harnesses that reconcile against the
    durable prefix afterwards (``examples/shard_smoke.py`` does).
    Protocol-level errors (:class:`ServerError`) are never retried —
    the server answered; retrying would just repeat the refusal.
    """

    # What a restart window looks like from the client side.  Timeouts
    # are deliberately excluded: a slow fsync is not a dead server, and
    # re-sending over a socket that may yet answer would double-apply.
    _RETRYABLE = (
        ConnectionError,  # reset, refused, aborted, our "closed" below
        BrokenPipeError,
        OSError,
    )

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
    ):
        self._address = (host, port)
        self._timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff
        self.reconnects = 0
        self._sock: socket.socket | None = None
        self._rfile = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            self._address, timeout=self._timeout
        )
        self._rfile = self._sock.makefile("rb")

    def _teardown(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def request(self, **payload: Any) -> dict[str, Any]:
        """Send one request object; return the reply, raising on error.

        With ``retries=0`` any connection failure propagates.  Otherwise
        up to ``retries`` reconnect-and-resend rounds are attempted
        before the last failure propagates.  The redial itself rides
        under the same budget: a refused connect while the listener is
        still down burns one more attempt, backed off exponentially —
        that is what lets a client coast over a restart window.
        """
        line = json.dumps(payload).encode() + b"\n"
        attempt = 0
        while True:
            try:
                if self._sock is None:
                    self._connect()
                    if attempt:
                        self.reconnects += 1
                self._sock.sendall(line)
                reply_line = self._rfile.readline()
                if not reply_line:
                    raise ConnectionError("server closed the connection")
                break
            except socket.timeout:
                raise
            except self._RETRYABLE:
                self._teardown()
                if attempt >= self.retries:
                    raise
                time.sleep(self.backoff * (2**attempt))
                attempt += 1
        reply = json.loads(reply_line)
        if not reply.get("ok"):
            raise ServerError(reply.get("error", "unknown server error"))
        return reply

    # Convenience verbs -------------------------------------------------

    def put(self, key: str, value: int) -> int:
        """Write ``key``; returns the LSN of the logged mutation."""
        return self.request(op="put", key=key, value=value)["lsn"]

    def add(self, key: str, value: int) -> int:
        """Read-modify-write increment; returns the mutation's LSN."""
        return self.request(op="add", key=key, value=value)["lsn"]

    def copyadd(self, key: str, src: str, value: int) -> int:
        """Cross-key read-then-write (logical/physical methods only)."""
        return self.request(op="copyadd", key=key, src=src, value=value)["lsn"]

    def delete(self, key: str) -> int:
        """Delete ``key``; returns the mutation's LSN."""
        return self.request(op="delete", key=key)["lsn"]

    def get(self, key: str) -> Any:
        """Read ``key`` (``None`` when absent)."""
        return self.request(op="get", key=key)["value"]

    def commit(self) -> int:
        """Block until this session's mutations are durable."""
        return self.request(op="commit")["stable_lsn"]

    def sync(self) -> int:
        """Hard barrier over every session's mutations."""
        return self.request(op="sync")["stable_lsn"]

    def stats(self) -> dict[str, Any]:
        """Server + engine counters (sessions, pipeline, method stats,
        per-op latency quantiles under ``stats()["latency"]``)."""
        return self.request(op="stats")["stats"]

    def health(self) -> dict[str, Any]:
        """Liveness essentials: uptime, sessions, stable LSNs, pipeline
        depth, dirty pages (per shard on a sharded deployment)."""
        return self.request(op="health")["health"]

    def ping(self) -> bool:
        """Liveness check; True when the server answers."""
        return bool(self.request(op="ping").get("pong"))

    def close(self) -> None:
        """Say goodbye (best effort) and close the socket."""
        if self._sock is not None:
            try:
                self._sock.sendall(b'{"op": "quit"}\n')
            except OSError:
                pass
        self._teardown()

    def __enter__(self) -> "KVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
