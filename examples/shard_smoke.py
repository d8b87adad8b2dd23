#!/usr/bin/env python3
"""Kill -9 a live *sharded* server mid-load; prove acknowledged commits
survive a cold start of the whole deployment.

The deployment-scale crash story, run for real:

1. start ``python -m repro serve --shards 3`` as a separate OS process
   over a durable deployment root (``DEPLOY.json`` + one WAL directory
   per shard);
2. drive concurrent clients over TCP — the server routes every command
   to the key's owning shard; each client records exactly which values
   the server *acknowledged* as committed.  Clients arm ``retries`` so
   a connection hiccup is ridden out rather than aborting the drive;
3. ``SIGKILL`` the server — all three shards' pipelines and open
   commit windows die mid-flight, no drain, no goodbye;
4. cold-start the whole deployment twice from nothing but the root,
   and assert the contract both ways: every acknowledged commit is
   present, and the two cold starts land byte-identical per shard
   (Theorem 3 makes the shards independent; Corollary 4 makes each one
   deterministic).

Run:  PYTHONPATH=src python examples/shard_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from _serve import serving  # noqa: E402
from repro.server import KVClient  # noqa: E402
from repro.server.harness import client_key  # noqa: E402
from repro.shard import ShardedDatabase  # noqa: E402
from repro.sim.crash import canonical_state  # noqa: E402

N_SHARDS = 3
N_CLIENTS = 24
OPS_PER_CLIENT = 6
METHOD = "physiological"


def drive_clients(host: str, port: int) -> dict[str, int]:
    """Concurrent retrying clients; returns only *acknowledged* writes."""
    acked: dict[str, int] = {}
    ack_lock = threading.Lock()
    errors: list[Exception] = []

    def one_client(client: int) -> None:
        try:
            with KVClient(host, port, retries=3, backoff=0.02) as kv:
                staged: dict[str, int] = {}
                for j in range(OPS_PER_CLIENT):
                    key = client_key(client, j)
                    value = client * 1000 + j
                    kv.put(key, value)
                    staged[key] = value
                    if (j + 1) % 2 == 0:
                        kv.commit()  # returns once the owning shards are stable
                        with ack_lock:
                            acked.update(staged)
                        staged.clear()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(i,)) for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return acked


def main() -> int:
    root = tempfile.mkdtemp(prefix="shard-smoke-")
    # Leaving the block is the crash: every shard's pipeline dies
    # mid-window.
    with serving(
        METHOD, "--shards", str(N_SHARDS), "--log-dir", root
    ) as (proc, host, port):
        print(f"server pid {proc.pid} listening on {host}:{port}")
        acked = drive_clients(host, port)
        ops = N_CLIENTS * OPS_PER_CLIENT
        print(f"drove {ops} ops from {N_CLIENTS} clients; "
              f"{len(acked)} acknowledged writes")
    print("server killed (SIGKILL); cold-starting the deployment")
    time.sleep(0.1)  # let the kernel settle the killed process's files

    reborn = ShardedDatabase.cold_start(root)
    report = reborn.cold_report
    replayed = sum(shard["replayed"] for shard in report["per_shard"])
    print(
        f"cold start: {len(report['per_shard'])} shards, "
        f"{replayed} records replayed in {report['wall_s'] * 1e3:.1f} ms"
    )
    missing = {
        key: value
        for key, value in acked.items()
        if reborn.get(key) != value
    }
    assert not missing, f"acknowledged commits lost: {missing}"
    print(f"all {len(acked)} acknowledged writes recovered")

    again = ShardedDatabase.cold_start(root)
    first = [canonical_state(shard) for shard in reborn.shards]
    second = [canonical_state(shard) for shard in again.shards]
    assert first == second, "two cold starts diverged"
    audit = again.theory_audit()
    assert audit, f"deployment audit failed: {audit.detail}"
    print(
        "cold start is deterministic: per-shard byte-identical states "
        f"(durable={again.durable_count()}), deployment audit holds"
    )
    reborn.close()
    again.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
