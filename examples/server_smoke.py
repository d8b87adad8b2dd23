#!/usr/bin/env python3
"""Kill -9 a live server mid-load; prove the acknowledged commits survive.

The end-to-end crash story for the server front-end, run for real:

1. start ``python -m repro serve`` as a separate OS process with a
   durable log directory;
2. drive concurrent clients over TCP — each puts into its own keyspace
   and records exactly which values the server *acknowledged* as
   committed (the reply to ``commit`` is the stable LSN);
3. ``SIGKILL`` the server process — no atexit, no drain, no goodbye;
   the group-commit pipeline's open window and the staging buffer die
   with it;
4. cold-start a fresh database from nothing but the segment files and
   assert the durability contract both ways: every acknowledged commit
   is present, and a *second* cold start lands byte-identical to the
   first (recovery is deterministic — Corollary 4 does not care that a
   thousand threads wrote the log).

Run:  PYTHONPATH=src python examples/server_smoke.py
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
from repro.engine import KVDatabase  # noqa: E402
from repro.server import KVClient  # noqa: E402
from repro.server.harness import client_key  # noqa: E402
from repro.sim.crash import canonical_state  # noqa: E402

N_CLIENTS = 50
OPS_PER_CLIENT = 4  # 50 x 4 = 200 concurrent client operations
METHOD = "physiological"


def drive_clients(host: str, port: int) -> dict[str, int]:
    """Concurrent clients; returns only the *acknowledged* writes."""
    acked: dict[str, int] = {}
    ack_lock = threading.Lock()
    errors: list[Exception] = []

    def one_client(client: int) -> None:
        try:
            with KVClient(host, port) as kv:
                staged: dict[str, int] = {}
                for j in range(OPS_PER_CLIENT):
                    key = client_key(client, j)
                    value = client * 1000 + j
                    kv.put(key, value)
                    staged[key] = value
                    if (j + 1) % 2 == 0:
                        kv.commit()  # returns only once stable
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
    log_dir = tempfile.mkdtemp(prefix="server-smoke-")
    # Leaving the block is the crash: no shutdown handshake, no drain.
    with serving(METHOD, "--log-dir", log_dir) as (proc, host, port):
        print(f"server pid {proc.pid} listening on {host}:{port}")
        acked = drive_clients(host, port)
        ops = N_CLIENTS * OPS_PER_CLIENT
        print(f"drove {ops} ops from {N_CLIENTS} clients; "
              f"{len(acked)} acknowledged writes")
    print("server killed (SIGKILL); cold-starting from the segment files")
    time.sleep(0.1)  # let the kernel settle the killed process's files

    reborn = KVDatabase.cold_start(log_dir, method=METHOD)
    missing = {
        key: value
        for key, value in acked.items()
        if reborn.get(key) != value
    }
    assert not missing, f"acknowledged commits lost: {missing}"
    print(f"all {len(acked)} acknowledged writes recovered")

    again = KVDatabase.cold_start(log_dir, method=METHOD)
    first, second = canonical_state(reborn), canonical_state(again)
    assert first == second, "two cold starts diverged"
    print(
        f"cold start is deterministic: byte-identical states "
        f"(durable={first['durable']}, stable_lsn={first['stable_lsn']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
