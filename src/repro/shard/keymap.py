"""Deterministic key→shard placement.

The :class:`Keymap` is the deployment-level analogue of
:func:`repro.methods.base.page_of`: a salted crc32 over the key, modulo
the shard count.  Determinism is the load-bearing property — every
process that agrees on ``(n_shards, seed)`` agrees on ownership, so the
router, the cold-start children, and the deployment audit can each
recompute placement independently instead of consulting a directory.

Theorem 3 rides on this: the keymap partitions the *variables* (keys,
and through each engine's ``page_of`` the pages) into disjoint sets, so
each shard's log explains exactly its own pages and the shards recover
independently.  Cross-shard operations would break the partition, which
is why :meth:`Keymap.owner` refuses a ``copyadd`` whose source lives on
a different shard rather than guessing.
"""

from __future__ import annotations

import zlib

from repro.workloads.kv import KVOp


class ShardRoutingError(ValueError):
    """A command the keymap cannot place on a single shard."""


class Keymap:
    """Deterministic, seeded key→shard hash shared by every process."""

    __slots__ = ("n_shards", "seed", "_salt")

    def __init__(self, n_shards: int, seed: int = 0):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.seed = seed
        # The salt folds the seed into the hashed bytes, so two keymaps
        # with different seeds place keys differently — the knob the
        # rebalancing experiments will turn.
        self._salt = f"{seed}:".encode()

    def shard_of(self, key: str) -> int:
        """The shard that owns ``key`` (stable across processes)."""
        return zlib.crc32(self._salt + key.encode()) % self.n_shards

    def owner(self, command: KVOp) -> int:
        """The single shard a command belongs to.

        For ``copyadd`` both keys must colocate: the operation reads the
        source and writes the destination, and a cross-shard edge would
        puncture the page-disjointness that lets shards recover
        independently (Theorem 3).  Colocation is the application's job
        (choose keys, or a future keymap with affinity); here it is
        checked, not papered over.
        """
        kind, key = command[0], command[1]
        dst = self.shard_of(key)
        if kind == "copyadd":
            src = command[2][0]
            src_shard = self.shard_of(src)
            if src_shard != dst:
                raise ShardRoutingError(
                    f"copyadd {key!r} <- {src!r} spans shards "
                    f"{dst} and {src_shard}; cross-shard operations are "
                    f"not supported — colocate the keys"
                )
        return dst

    def split(self, stream) -> list[list[KVOp]]:
        """Partition a command stream into per-shard substreams.

        Relative order within each shard is preserved, which is all the
        durability oracle needs: commands on different shards touch
        disjoint keys, so any interleaving of the substreams is
        equivalent to the original stream.
        """
        parts: list[list[KVOp]] = [[] for _ in range(self.n_shards)]
        for command in stream:
            parts[self.owner(command)].append(command)
        return parts

    def as_dict(self) -> dict:
        """Manifest serialization."""
        return {"n_shards": self.n_shards, "seed": self.seed}

    @classmethod
    def from_dict(cls, data: dict) -> "Keymap":
        """Rebuild from :meth:`as_dict` output."""
        return cls(n_shards=data["n_shards"], seed=data.get("seed", 0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Keymap)
            and self.n_shards == other.n_shards
            and self.seed == other.seed
        )

    def __hash__(self) -> int:
        return hash((self.n_shards, self.seed))

    def __repr__(self) -> str:
        return f"Keymap(n_shards={self.n_shards}, seed={self.seed})"
