"""A threaded network front-end over one shared :class:`KVDatabase`.

The server (:mod:`repro.server.server`) multiplexes many client
connections onto one engine: each connection gets its own
:class:`~repro.engine.kv.Session`, command application serializes on the
engine mutex, and concurrent commits share forces through the
cross-session group commit — which is where the throughput comes from
(one fsync per leader's force, not per client).  The protocol is line-delimited JSON, small
enough to drive with ``nc`` and exact enough for the crash tests: a
``commit`` reply is a durability promise the post-``kill -9`` oracle
holds the server to.

:mod:`repro.server.client` is the matching blocking client;
:mod:`repro.server.harness` drives thousands of *simulated* clients
(sessions multiplexed over a bounded worker pool, in-process or over
sockets) and measures commit throughput under fan-in.
"""

from repro.server.client import KVClient
from repro.server.harness import LoadResult, run_simulated_clients
from repro.server.server import KVServer
from repro.server.top import render_top, run_top

__all__ = [
    "KVClient",
    "KVServer",
    "LoadResult",
    "render_top",
    "run_simulated_clients",
    "run_top",
]
