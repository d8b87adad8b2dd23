"""Key-value workloads for the recoverable engine (experiment E5).

Generates put/get streams over a keyspace with a configurable hotspot
skew.  The engine experiments run these streams, crash the simulated
machine at chosen instants, recover, and compare against an in-memory
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterator, Literal

KVOp = tuple  # (kind, key, value); value is (src, delta) for "copyadd"
# The command kinds that change state (and log); "get" is the only other.
MUTATIONS = ("put", "add", "copyadd", "delete")


@dataclass(frozen=True)
class KVWorkloadSpec:
    """Shape of a key-value workload.

    ``hot_fraction`` of operations target ``hot_keys`` of the keyspace —
    the standard 80/20-style skew that makes page-level caching and
    per-page LSN tracking earn their keep.  ``add_ratio`` mixes in
    read-modify-write increments, the non-idempotent operations that
    stress redo tests hardest.
    """

    n_operations: int = 200
    n_keys: int = 32
    put_ratio: float = 0.7
    add_ratio: float = 0.0
    copyadd_ratio: float = 0.0
    delete_ratio: float = 0.05
    hot_fraction: float = 0.8
    hot_keys: int = 4
    value_range: int = 10_000

    def key(self, index: int) -> str:
        """The canonical key name for index ``index``."""
        return f"k{index:04d}"


def generate_kv_workload(seed: int, spec: KVWorkloadSpec | None = None) -> list[KVOp]:
    """A reproducible stream of (kind, key, value) commands."""
    spec = spec or KVWorkloadSpec()
    rng = Random(seed)
    stream: list[KVOp] = []
    for _ in range(spec.n_operations):
        if rng.random() < spec.hot_fraction:
            key = spec.key(rng.randrange(max(1, spec.hot_keys)))
        else:
            key = spec.key(rng.randrange(spec.n_keys))
        roll = rng.random()
        if roll < spec.put_ratio:
            stream.append(("put", key, rng.randrange(spec.value_range)))
        elif roll < spec.put_ratio + spec.add_ratio:
            stream.append(("add", key, 1 + rng.randrange(100)))
        elif roll < spec.put_ratio + spec.add_ratio + spec.copyadd_ratio:
            src = spec.key(rng.randrange(spec.n_keys))
            stream.append(("copyadd", key, (src, 1 + rng.randrange(100))))
        elif (
            roll
            < spec.put_ratio + spec.add_ratio + spec.copyadd_ratio + spec.delete_ratio
        ):
            stream.append(("delete", key, None))
        else:
            stream.append(("get", key, None))
    return stream


def apply_to_oracle(stream: list[KVOp]) -> dict[str, int]:
    """The final key-value mapping a correct system must expose."""
    oracle: dict[str, int] = {}
    for kind, key, value in stream:
        if kind == "put":
            oracle[key] = value  # type: ignore[assignment]
        elif kind == "add":
            oracle[key] = (oracle.get(key) or 0) + value  # type: ignore[operator]
        elif kind == "copyadd":
            src, delta = value  # type: ignore[misc]
            oracle[key] = (oracle.get(src) or 0) + delta
        elif kind == "delete":
            oracle.pop(key, None)
    return oracle


def prefixes_of(stream: list[KVOp]) -> Iterator[list[KVOp]]:
    """Every prefix of the stream (crash points for exhaustive sweeps)."""
    for cut in range(len(stream) + 1):
        yield stream[:cut]
