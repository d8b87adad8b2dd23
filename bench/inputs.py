"""Frozen, bench-owned inputs: every op stream is made here from ``--seed``.

Nothing in this file imports ``repro``: the generators, the PRNG and the
oracle are the benchmark's own, so a later change to ``repro.workloads``
cannot silently change what parent and change are measured on.  The
program under test receives only the generated commands, never the seed.

Streams are built with *exact* mix counts (a shuffled multiset, not a
per-op coin flip) and fixed-width keys, so two seeds differ in key order
and values but not in how much work they ask for.
"""

from __future__ import annotations

import hashlib
import json

MASK64 = (1 << 64) - 1

# A mutation is (kind, key, value); value is (src, delta) for "copyadd".
Op = tuple


class SplitMix64:
    """The bench's own PRNG (splitmix64), independent of ``random``'s
    algorithms so a Python upgrade cannot change the inputs."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """A uniform integer in [0, n)."""
        return self.next() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def stream_rng(seed: int, *labels) -> SplitMix64:
    """An independent generator per (seed, labels): workloads, methods and
    connections never share a sequence."""
    digest = hashlib.sha256(repr((seed, labels)).encode()).digest()
    return SplitMix64(int.from_bytes(digest[:8], "little"))


def key_name(prefix: str, index: int) -> str:
    return f"{prefix}{index:05d}"


def _kinds(n: int, shares: dict[str, float], rng: SplitMix64) -> list[str]:
    """``n`` op kinds with exact per-kind counts, shuffled.  The first
    kind absorbs the rounding remainder."""
    names = list(shares)
    counts = {name: int(n * shares[name]) for name in names[1:]}
    counts[names[0]] = n - sum(counts.values())
    kinds = [name for name in names for _ in range(counts[name])]
    rng.shuffle(kinds)
    return kinds


def mutation_stream(
    rng: SplitMix64,
    n: int,
    n_keys: int,
    shares: dict[str, float],
    copyadd: bool,
    prefix: str = "k",
) -> list[Op]:
    """``n`` mutations over ``n_keys`` uniform keys.  With ``copyadd``,
    every seventh put becomes a cross-key ``copyadd`` (the operation only
    three of the four methods can log)."""
    ops: list[Op] = []
    puts = 0
    for kind in _kinds(n, shares, rng):
        key = key_name(prefix, rng.below(n_keys))
        if kind == "put":
            puts += 1
            if copyadd and puts % 7 == 0:
                src = key_name(prefix, rng.below(n_keys))
                ops.append(("copyadd", key, (src, 1 + rng.below(100))))
            else:
                ops.append(("put", key, rng.below(1_000_000)))
        elif kind == "add":
            ops.append(("add", key, 1 + rng.below(100)))
        else:
            ops.append(("delete", key, None))
    return ops


INGEST_MIX = {"put": 0.7, "add": 0.2, "delete": 0.1}
# The theory audit cannot lift physical's whole-page delete images.
AUDIT_MIX = {"put": 0.75, "add": 0.25}


def put_stream(rng: SplitMix64, n: int, n_keys: int, prefix: str) -> list[Op]:
    """``n`` puts over a connection's own key space (``wire_commit``)."""
    return [
        ("put", key_name(prefix, rng.below(n_keys)), rng.below(1_000_000))
        for _ in range(n)
    ]


def read_mostly_stream(
    rng: SplitMix64, n: int, n_keys: int, client: int, n_clients: int
) -> list[Op]:
    """95% gets over all keys, 5% puts.  A client only writes keys whose
    index is congruent to its own number, so the last acknowledged value
    of every key has exactly one writer and the read-back oracle is exact
    under any interleaving."""
    ops: list[Op] = []
    for kind in _kinds(n, {"get": 0.95, "put": 0.05}, rng):
        if kind == "get":
            ops.append(("get", key_name("k", rng.below(n_keys)), None))
        else:
            index = rng.below(n_keys // n_clients) * n_clients + client
            ops.append(("put", key_name("k", index), rng.below(1_000_000)))
    return ops


def preload_stream(n_keys: int) -> list[Op]:
    return [("put", key_name("k", i), i) for i in range(n_keys)]


def apply_ops(state: dict, ops) -> dict:
    """The bench's own oracle: what a correct store holds after ``ops``."""
    for kind, key, value in ops:
        if kind == "put":
            state[key] = value
        elif kind == "add":
            state[key] = (state.get(key) or 0) + value
        elif kind == "copyadd":
            src, delta = value
            state[key] = (state.get(src) or 0) + delta
        elif kind == "delete":
            state.pop(key, None)
    return state


def user_bytes(ops) -> int:
    """Bytes of user data in the mutations of ``ops``: ``len(key) + 8``
    for a value-carrying mutation (``+ len(src)`` for copyadd), and
    ``len(key)`` for a delete.  Reads carry none."""
    total = 0
    for kind, key, value in ops:
        if kind in ("put", "add"):
            total += len(key) + 8
        elif kind == "copyadd":
            total += len(key) + 8 + len(value[0])
        elif kind == "delete":
            total += len(key)
    return total


def stream_sha256(*streams) -> str:
    """SHA-256 over the consumed streams, so two runs can be seen to have
    received identical inputs."""
    digest = hashlib.sha256()
    for ops in streams:
        digest.update(json.dumps(ops, separators=(",", ":")).encode())
    return digest.hexdigest()
