#!/usr/bin/env python3
"""Kill -9 a live sharded server, restart it with ``--lazy-restart``,
and read every acknowledged commit back *before* the replay backlog has
drained.

The instant-restart story, run for real over TCP:

1. start ``python -m repro serve --shards 3`` over a durable deployment
   root and drive concurrent clients, recording exactly which writes
   the server *acknowledged* as committed;
2. ``SIGKILL`` the server mid-flight — no drain, no goodbye;
3. restart it with ``--lazy-restart``: the server binds after analysis
   alone (per-page redo index, no replay), measured here as the wall
   time from process spawn to the first answered request;
4. immediately — while the background replay may still be running —
   read back every acknowledged write over the wire and assert each
   one answers with the committed value (the on-demand fault path
   replays exactly the pages the reads touch);
5. poll ``health`` until the deployment reports ``ready`` with a zero
   backlog, proving the background drain completes on its own.

Run:  PYTHONPATH=src python examples/instant_restart_smoke.py
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

N_SHARDS = 3
N_CLIENTS = 16
OPS_PER_CLIENT = 8
METHOD = "physiological"


def drive_clients(host: str, port: int) -> dict[str, int]:
    """Concurrent committing clients; returns only *acknowledged* writes."""
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
                        kv.commit()
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
    root = tempfile.mkdtemp(prefix="instant-restart-")
    with serving(
        METHOD, "--log-dir", root, "--shards", str(N_SHARDS)
    ) as (_proc, host, port):
        acked = drive_clients(host, port)
        print(
            f"drove {N_CLIENTS * OPS_PER_CLIENT} ops; "
            f"{len(acked)} acknowledged writes"
        )
    print("server killed (SIGKILL); restarting with --lazy-restart")
    time.sleep(0.1)

    spawned = time.perf_counter()
    with serving(METHOD, "--log-dir", root, "--lazy-restart") as (_proc, host, port):
        with KVClient(host, port) as kv:
            first_key = next(iter(acked))
            value = kv.get(first_key)
            first_request_s = time.perf_counter() - spawned
            assert value == acked[first_key], (
                f"first request wrong: {first_key}={value!r}, "
                f"expected {acked[first_key]}"
            )
            health = kv.health()
            state = health.get("state", "?")
            backlog = health.get("replay_backlog_total", 0)
            print(
                f"first request answered {first_request_s * 1e3:.0f} ms "
                f"after spawn (interpreter start included); health: "
                f"state={state} backlog={backlog}"
            )
            # Every acknowledged commit, readable mid-recovery: these
            # reads race the background drain on purpose — the fault
            # path must make each one correct regardless.
            missing = {
                key: value
                for key, value in acked.items()
                if kv.get(key) != value
            }
            assert not missing, f"acknowledged commits lost: {missing}"
            print(
                f"all {len(acked)} acknowledged writes readable during "
                f"recovery"
            )
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                health = kv.health()
                if (
                    health.get("state") == "ready"
                    and not health.get("replay_backlog_total", 0)
                ):
                    break
                time.sleep(0.05)
            assert health.get("state") == "ready", f"drain never finished: {health}"
            shard_states = [
                (s.get("state"), s.get("replay_backlog"))
                for s in health.get("shards", [])
            ]
            print(f"background replay drained; per-shard {shard_states}")
    print("instant-restart smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
