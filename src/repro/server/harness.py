"""Drive thousands of simulated clients against one engine.

A *simulated client* is an engine :class:`~repro.engine.kv.Session`
with its own disjoint keyspace (``c{i}:k{j}``) and its own commit
cadence — thousands of them are multiplexed over a bounded worker-thread
pool, the way a real server multiplexes connections over an event loop.
This measures how commit throughput scales with client fan-in when every commit is a durability
barrier.  Every engine group-commits: commits that arrive while a force
is on the disk follow it or share the next one, so throughput rises with
fan-in instead of flatlining at one fsync per commit.

Disjoint keyspaces make the client-side oracle exact: after a crash,
each client's recovered keys must form a prefix of that client's own
committed history, independent of interleaving.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.engine.kv import KVDatabase


@dataclass
class LoadResult:
    """What one simulated-client run measured."""

    clients: int
    ops: int
    commits: int
    elapsed: float
    commit_latencies: list = field(default_factory=list, repr=False)

    @property
    def commits_per_sec(self) -> float:
        return self.commits / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def ops_per_sec(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    def latency_ms(self, quantile: float) -> float:
        """Commit-latency quantile in milliseconds (0 when unmeasured)."""
        if not self.commit_latencies:
            return 0.0
        ordered = sorted(self.commit_latencies)
        index = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[index] * 1000.0

    def as_dict(self) -> dict:
        """The measurement as one JSON-ready mapping (for BENCH files)."""
        return {
            "clients": self.clients,
            "ops": self.ops,
            "commits": self.commits,
            "elapsed_s": round(self.elapsed, 4),
            "commits_per_sec": round(self.commits_per_sec, 1),
            "ops_per_sec": round(self.ops_per_sec, 1),
            "commit_p50_ms": round(self.latency_ms(0.50), 3),
            "commit_p99_ms": round(self.latency_ms(0.99), 3),
        }


def client_key(client: int, slot: int) -> str:
    """The canonical key for one client's slot (disjoint keyspaces)."""
    return f"c{client}:k{slot}"


def run_simulated_clients(
    db: KVDatabase,
    n_clients: int,
    ops_per_client: int = 4,
    commit_every: int = 2,
    workers: int = 16,
    key_slots: int = 4,
) -> LoadResult:
    """Run ``n_clients`` sessions to completion; returns the measurement.

    Each client puts ``ops_per_client`` values into its own keyspace,
    committing every ``commit_every`` mutations and once at the end, so
    every client ends durable.  ``workers`` bounds true thread
    concurrency — 10k clients are 10k sessions, not 10k threads.
    """
    latencies: list[float] = []
    commits = 0

    def one_client(client: int) -> tuple[int, list[float]]:
        session = db.session(commit_every=ops_per_client + 1)  # manual commits
        local: list[float] = []
        since = 0
        for j in range(ops_per_client):
            session.execute(
                ("put", client_key(client, j % key_slots), client * 1000 + j)
            )
            since += 1
            if since >= commit_every:
                start = time.perf_counter()
                session.commit()
                local.append(time.perf_counter() - start)
                since = 0
        if since:
            start = time.perf_counter()
            session.commit()
            local.append(time.perf_counter() - start)
        return session.ops, local

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # The executor spawns threads lazily, one per submit; without a
        # warm-up that startup cost lands inside the measurement (and
        # falls disproportionately on fast runs).  Park one blocking
        # task per worker so all threads exist before the clock starts.
        gate = threading.Barrier(workers)
        for warmer in [pool.submit(gate.wait) for _ in range(workers)]:
            warmer.result()
        started = time.perf_counter()
        results = list(pool.map(one_client, range(n_clients)))
        elapsed = time.perf_counter() - started
    total_ops = sum(ops for ops, _ in results)
    for _, local in results:
        latencies.extend(local)
        commits += len(local)
    return LoadResult(
        clients=n_clients,
        ops=total_ops,
        commits=commits,
        elapsed=elapsed,
        commit_latencies=latencies,
    )
