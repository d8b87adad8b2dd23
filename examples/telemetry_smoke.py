#!/usr/bin/env python3
"""Watch a live server, kill -9 it, then read the crash off the disk.

The operational telemetry story, run for real:

1. start ``python -m repro serve --shards 2`` as a separate OS process
   over a durable deployment root — telemetry is on by default: per-op
   latency histograms, the ``health`` op, and a flight recorder in the
   root fed by the serve span and 1 Hz health heartbeats;
2. drive traffic over TCP, then watch it: ``stats`` must carry latency
   quantiles, ``health`` must report every shard's stable LSN, and
   ``python -m repro top --once`` must render a dashboard frame;
3. ``SIGKILL`` the server mid-life — no drain, no goodbye, the flight
   ring's last heartbeat is whatever the server last knew;
4. run ``python -m repro postmortem`` on the root and assert the
   narrative is all there: the serve span rendered INTERRUPTED, the
   final heartbeats, and a last stable LSN per shard read from the WAL
   itself — then cold-start the deployment and check the postmortem's
   LSNs against the recovered truth.

Run:  PYTHONPATH=src python examples/telemetry_smoke.py
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _serve import ENV, serving  # noqa: E402
from repro.server import KVClient  # noqa: E402
from repro.shard import ShardedDatabase  # noqa: E402
from repro.shard.sharded import read_manifest  # noqa: E402

N_SHARDS = 2
N_OPS = 80


def cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=ENV,
    )


def main() -> int:
    root = tempfile.mkdtemp(prefix="telemetry-smoke-")
    # Leaving the block SIGKILLs the server: the crash to read back.
    with serving("--shards", str(N_SHARDS), "--log-dir", root) as (proc, host, port):
        print(f"server pid {proc.pid} listening on {host}:{port}")
        with KVClient(host, port) as kv:
            for i in range(N_OPS):
                kv.put(f"key{i}", i)
            kv.sync()
            stats = kv.stats()
            health = kv.health()
        assert stats["latency"]["put"]["count"] == N_OPS, stats["latency"]
        assert stats["latency"]["put"]["p99"] > 0.0
        assert health["n_shards"] == N_SHARDS
        assert all(s["stable_lsn"] >= 0 for s in health["shards"])
        assert all(s["pipeline_depth"] == 0 for s in health["shards"])
        print(
            f"stats: put p50={stats['latency']['put']['p50'] * 1e6:.0f}us "
            f"p99={stats['latency']['put']['p99'] * 1e6:.0f}us over "
            f"{stats['latency']['put']['count']} requests"
        )
        print(
            "health: per-shard stable LSNs "
            f"{[s['stable_lsn'] for s in health['shards']]}"
        )

        top = cli("top", "--host", host, "--port", str(port), "--once")
        assert top.returncode == 0, top.stderr
        assert "repro top" in top.stdout
        print("top --once rendered a frame")

        time.sleep(2.2)  # let heartbeats observe the post-traffic state
    print("server killed (SIGKILL); reading the crash off the disk")
    time.sleep(0.1)

    post = cli("postmortem", root)
    assert post.returncode == 0, post.stderr
    print(post.stdout.rstrip())
    assert "server.serve" in post.stdout
    assert "[INTERRUPTED]" in post.stdout
    assert "server.heartbeat" in post.stdout
    assert "last stable LSN" in post.stdout

    # The postmortem's per-shard last stable LSN must match what a real
    # cold start recovers to — the ring tells the same story as the WAL.
    reborn = ShardedDatabase.cold_start(root)
    try:
        manifest = read_manifest(root)
        for index, dirname in enumerate(manifest["shard_dirs"]):
            stable = reborn.shards[index].method.machine.log.stable_lsn
            needle = f"[{dirname}]"
            lsn_line = next(
                line for line in post.stdout.splitlines() if needle in line
            )
            assert f"last stable LSN {stable}" in lsn_line, (
                f"{dirname}: postmortem said {lsn_line!r}, "
                f"recovery landed at {stable}"
            )
        print(
            "postmortem LSNs match cold-start recovery for all "
            f"{N_SHARDS} shards (durable={reborn.durable_count()})"
        )
    finally:
        reborn.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
