"""The sharded deployment: a keyspace router over N independent engines.

Theorem 3 says page-disjoint partitions of the log recover
independently.  ``methods/lazy.py`` uses that as a *restart
optimization* — one log, replayed page by page.  This module promotes it to
the *deployment architecture*: the :class:`~repro.shard.keymap.Keymap`
partitions the keyspace up front, each shard is a full
:class:`~repro.engine.kv.KVDatabase` with its own ``FileLogStore``
directory (``shard-00/``, ``shard-01/``, …) and its own group-commit
pipeline, and the partition-disjointness that Theorem 3 *assumes* is
true by construction — no two shards ever share a page, a log record,
or an fsync.  Two consequences fall out:

- **throughput**: commits on different shards never serialize on a
  common log mutex or share a force, so aggregate capacity
  is the sum of per-shard capacity;
- **restart**: each shard's recovery reads only its own segment files
  and writes only its own pages, so a shard restarts alone — one
  :meth:`~repro.engine.kv.EngineSpec.cold_start` per shard, eager or
  lazy (:meth:`ShardedDatabase.cold_start`), with no coordination.

A deployment root is self-describing: ``DEPLOY.json`` (the manifest)
records the shard count, keymap seed, engine spec, and per-shard
directories, so ``cold_start(root)`` needs no other configuration —
the same property :meth:`LogManager.open` gives a single segment
directory, one level up.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Sequence

from repro.engine.kv import EngineSpec, KVDatabase
from repro.obs.metrics import MetricsRegistry
from repro.shard.keymap import Keymap
from repro.storage import Disk
from repro.workloads.kv import MUTATIONS, KVOp

MANIFEST_NAME = "DEPLOY.json"
MANIFEST_VERSION = 1

# Inner sessions never auto-commit; the sharded session owns the cadence.
_NEVER = 2**62


class DeploymentError(RuntimeError):
    """A deployment root that cannot be opened, or a shape mismatch."""


def shard_dirname(shard: int) -> str:
    """The conventional per-shard directory name (``shard-00``, …)."""
    return f"shard-{shard:02d}"


def write_manifest(
    root: Path, keymap: Keymap, spec: EngineSpec, shard_dirs: Sequence[str]
) -> Path:
    """Write ``DEPLOY.json`` atomically (write-then-rename, like the
    shadow root: a crash leaves the old manifest or the new, never a
    torn one)."""
    manifest = {
        "version": MANIFEST_VERSION,
        "n_shards": keymap.n_shards,
        "keymap": keymap.as_dict(),
        "spec": spec.as_dict(),
        "shard_dirs": list(shard_dirs),
    }
    path = root / MANIFEST_NAME
    tmp = root / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def read_manifest(root) -> dict:
    """Load and validate a deployment manifest."""
    path = Path(root) / MANIFEST_NAME
    if not path.is_file():
        raise DeploymentError(f"no {MANIFEST_NAME} under {root}")
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DeploymentError(f"corrupt manifest {path}: {exc}") from exc
    version = manifest.get("version")
    if version != MANIFEST_VERSION:
        raise DeploymentError(
            f"manifest version {version!r} unsupported (want {MANIFEST_VERSION})"
        )
    dirs = manifest.get("shard_dirs")
    if not isinstance(dirs, list) or len(dirs) != manifest.get("n_shards"):
        raise DeploymentError(f"manifest {path} shard_dirs/n_shards mismatch")
    return manifest


def is_deployment_root(path) -> bool:
    """Does ``path`` hold a sharded deployment manifest?"""
    return (Path(path) / MANIFEST_NAME).is_file()


def log_directories(path) -> list[tuple[str | None, Path]]:
    """``(label, directory)`` for every log under ``path``: one per
    shard of a deployment root, labelled with its directory name, else
    ``path`` itself, labelled None.  A corrupt manifest raises
    :class:`DeploymentError`."""
    path = Path(path)
    if not is_deployment_root(path):
        return [(None, path)]
    return [(name, path / name) for name in read_manifest(path)["shard_dirs"]]


class ShardedDatabase:
    """N engines behind one keymap — the deployment-level database.

    Presents the :class:`KVDatabase` surface the server front-end needs
    (``session`` / ``report`` / ``close``) plus the crash-cycle surface
    the harnesses drive (``crash`` / ``recover`` / ``verify_against`` /
    ``theory_audit``), routing every command to the shard the keymap
    names.  Construct via :meth:`create` (fresh) or :meth:`cold_start`
    (from a deployment root).
    """

    def __init__(
        self,
        shards: Sequence[KVDatabase],
        keymap: Keymap,
        spec: EngineSpec,
        root=None,
    ):
        if len(shards) != keymap.n_shards:
            raise DeploymentError(
                f"{len(shards)} shards for a {keymap.n_shards}-way keymap"
            )
        self.shards = list(shards)
        self.keymap = keymap
        self.spec = spec
        self.root = Path(root) if root is not None else None
        self._session_lock = threading.Lock()
        self._next_session_id = 0
        # One deployment-level registry over every shard's, namespaced
        # shard00., shard01., … — merge() makes collisions impossible.
        self.metrics = MetricsRegistry()
        for index, shard in enumerate(self.shards):
            self.metrics.merge(f"shard{index:02d}", shard.metrics)
        self.cold_report: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root=None,
        n_shards: int = 2,
        spec: EngineSpec | None = None,
        seed: int = 0,
        tracer=None,
    ) -> "ShardedDatabase":
        """A fresh deployment: N identically-configured shards.

        With ``root`` set, each shard gets its own segment directory
        under it and the manifest is written, making the root
        self-describing for :meth:`cold_start`; with ``root=None`` the
        shards are in-memory (tests and quick experiments).
        """
        spec = spec if spec is not None else EngineSpec()
        keymap = Keymap(n_shards, seed=seed)
        if root is None:
            shards = [spec.build(tracer=tracer) for _ in range(n_shards)]
            return cls(shards, keymap, spec)
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if is_deployment_root(root):
            raise DeploymentError(
                f"{root} already holds a deployment; use cold_start"
            )
        dirs = [shard_dirname(index) for index in range(n_shards)]
        shards = [spec.build(log_dir=root / d, tracer=tracer) for d in dirs]
        write_manifest(root, keymap, spec, dirs)
        return cls(shards, keymap, spec, root=root)

    @classmethod
    def cold_start(
        cls,
        root,
        disks: Sequence[Disk] | None = None,
        tracer=None,
        on_progress=None,
        lazy: bool = False,
    ) -> "ShardedDatabase":
        """Restart a whole deployment from its root directory.

        Reads the manifest, then restarts the shards one after another
        in this process, each with :meth:`EngineSpec.cold_start` on its
        own segment directory (the torn-tail rule applied to the real
        files).  Shards share nothing, so no step waits on another
        shard.  Eager by default: each shard has replayed its stable log
        before the next begins.  ``lazy=True`` is the instant-restart
        path: every shard runs analysis only and serves at once, its
        redo backlog draining in the background and on first page touch;
        ``health`` reports the per-shard backlogs until the drain
        completes (or :meth:`drain_lazy` forces it).

        ``disks`` optionally supplies per-shard survivor images (the
        crash harnesses' snapshot of what the page store held at the
        crash); ``tracer`` reaches every shard's recovery.

        ``self.cold_report`` afterwards holds ``wall_s``, ``lazy``, and
        one summary per shard: ``shard``, ``dir``, ``elapsed_s`` (that
        shard's restart), ``time_to_ready_s`` (from the start of the
        whole restart until that shard could serve), ``stable_lsn``,
        ``replayed`` (records replayed so far — all of them when eager),
        ``torn_tails`` and ``replay_backlog`` (0 when eager).
        ``on_progress``, if given, receives each summary as its shard
        becomes ready.
        """
        root = Path(root)
        manifest = read_manifest(root)
        keymap = Keymap.from_dict(manifest["keymap"])
        spec = EngineSpec.from_dict(manifest["spec"])
        dirs = manifest["shard_dirs"]
        if disks is not None and len(disks) != keymap.n_shards:
            raise DeploymentError(
                f"{len(disks)} survivor disks for {keymap.n_shards} shards"
            )
        started = time.perf_counter()
        shards = []
        per_shard = []
        for index, dirname in enumerate(dirs):
            shard_started = time.perf_counter()
            shard = spec.cold_start(
                root / dirname,
                disk=disks[index] if disks is not None else None,
                lazy=lazy,
                tracer=tracer,
            )
            ready = time.perf_counter()
            log = shard.method.machine.log
            summary = {
                "shard": index,
                "dir": str(root / dirname),
                "elapsed_s": ready - shard_started,
                "time_to_ready_s": ready - started,
                "stable_lsn": log.stable_lsn,
                "replayed": shard.method.stats.records_replayed,
                "torn_tails": log.store.torn_tails,
                "replay_backlog": shard.replay_backlog(),
            }
            shards.append(shard)
            per_shard.append(summary)
            if on_progress is not None:
                on_progress(summary)
        deployment = cls(shards, keymap, spec, root=root)
        deployment.cold_report = {
            "wall_s": time.perf_counter() - started,
            "per_shard": per_shard,
            "lazy": lazy,
        }
        return deployment

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, key: str) -> int:
        """The shard index owning ``key``."""
        return self.keymap.shard_of(key)

    def execute(self, command: KVOp) -> Any:
        """Run one command on the owning shard (its cadence applies)."""
        return self.shards[self.keymap.owner(command)].execute(command)

    def run(self, stream: Sequence[KVOp]) -> None:
        """Execute every command of ``stream`` in order."""
        for command in stream:
            self.execute(command)

    def get(self, key: str) -> Any:
        """Read ``key`` from its owning shard."""
        return self.shards[self.keymap.shard_of(key)].get(key)

    def session(self, commit_every: int | None = None) -> "ShardedSession":
        """A per-client stream over the whole deployment (what the
        server front-end binds per connection)."""
        with self._session_lock:
            session_id = self._next_session_id
            self._next_session_id += 1
        return ShardedSession(
            self,
            session_id,
            commit_every=(commit_every if commit_every is not None else 1),
        )

    # ------------------------------------------------------------------
    # Durability control
    # ------------------------------------------------------------------

    def commit(self) -> None:
        """Commit every shard."""
        for shard in self.shards:
            shard.commit()

    def sync(self) -> None:
        """Hard durability barrier on every shard."""
        for shard in self.shards:
            shard.sync()

    def checkpoint(self) -> None:
        """Checkpoint every shard."""
        for shard in self.shards:
            shard.checkpoint()

    # ------------------------------------------------------------------
    # Crash / recovery / verification
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Crash every shard: caches and unforced log tails are lost.

        One deployment-wide failure (the box dies) rather than N
        independent ones — per-shard faults are the fault campaign's
        territory.
        """
        for shard in self.shards:
            shard.crash()

    def recover(self) -> None:
        """Warm recovery, shard by shard — the same recovery an eager
        :meth:`cold_start` runs, so the two land on the same bytes."""
        for shard in self.shards:
            shard.recover()

    def drain_lazy(self) -> None:
        """Finish every shard's background replay synchronously (a
        no-op after an eager cold start)."""
        for shard in self.shards:
            shard.drain_lazy()

    def replay_backlog(self) -> int:
        """Deployment-wide pages still awaiting lazy replay."""
        return sum(shard.replay_backlog() for shard in self.shards)

    def close(self) -> None:
        """Shut down every shard cleanly."""
        for shard in self.shards:
            shard.close()

    def durable_count(self) -> int:
        """Deployment-wide operations that would survive a crash."""
        return sum(shard.durable_count() for shard in self.shards)

    def dump(self) -> dict[str, Any]:
        """The merged visible key-value mapping (shards are disjoint,
        so a plain union is exact)."""
        merged: dict[str, Any] = {}
        for shard in self.shards:
            merged.update(shard.method.dump())
        return merged

    def verify_against(self, mutation_stream: Sequence[KVOp]) -> int:
        """Per-shard durability contract; returns the deployment's
        durable count.

        The keymap splits the stream into the per-shard substreams
        (order within a shard is what each shard's oracle needs —
        commands on other shards touch disjoint keys).
        """
        parts = self.keymap.split(
            [c for c in mutation_stream if c[0] in MUTATIONS]
        )
        return sum(
            shard.verify_against(parts[index])
            for index, shard in enumerate(self.shards)
        )

    def theory_audit(self):
        """The whole-deployment Recovery Invariant verdict (per-shard
        witnesses stitched by :func:`repro.sim.audit.audit_deployment`)."""
        from repro.sim.audit import audit_deployment

        return audit_deployment(self)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Every shard's counters in one flat dict, ``shardNN_``-prefixed
        via the merged registry, plus deployment identity labels."""
        stats: dict[str, Any] = {}
        for name, value in self.metrics.snapshot().items():
            key = name.replace(".", "_")
            assert key not in stats, f"report key collision on {key!r}"
            stats[key] = value
        for label, value in (
            ("n_shards", self.keymap.n_shards),
            ("keymap_seed", self.keymap.seed),
            ("spec_method", self.spec.method),
        ):
            assert label not in stats, f"report key collision on {label!r}"
            stats[label] = value
        return stats

    def health(self) -> dict[str, Any]:
        """Per-shard liveness (:meth:`KVDatabase.health` per shard) plus
        deployment shape — the payload behind the server's ``health`` op.
        The deployment has failed when any shard has."""
        per_shard = [shard.health() for shard in self.shards]
        backlog_total = sum(h["replay_backlog"] for h in per_shard)
        failed = any(h["state"] == "failed" for h in per_shard)
        return {
            "n_shards": self.keymap.n_shards,
            "stable_lsn_total": sum(h["stable_lsn"] for h in per_shard),
            "pipeline_depth_total": sum(h["pipeline_depth"] for h in per_shard),
            "dirty_pages_total": sum(h["dirty_pages"] for h in per_shard),
            "replay_backlog_total": backlog_total,
            "state": "failed" if failed else "recovering" if backlog_total else "ready",
            "shards": per_shard,
        }

    def __repr__(self) -> str:
        return (
            f"ShardedDatabase(n_shards={self.keymap.n_shards}, "
            f"method={self.spec.method!r}, root={str(self.root)!r})"
        )


class ShardedSession:
    """One client's stream over the deployment.

    Wraps one never-auto-committing inner :class:`~repro.engine.kv.Session`
    per shard and owns the commit cadence itself, so a cadence commit
    covers exactly the shards this session touched since its last commit
    — an untouched shard pays nothing, which is where the fan-out
    throughput comes from.  The surface mirrors ``Session`` (``execute``
    / ``get`` / ``commit`` / ``sync`` / ``last_lsn``), which is all the
    server handler uses, so the front-end routes per-command without a
    single sharding special case.

    LSNs are per-shard streams; ``last_lsn`` is the LSN of this
    session's last mutation *on its shard* (``last_shard``), which is
    the pair a client needs to correlate an ack with a durability point.
    """

    def __init__(self, db: ShardedDatabase, session_id: int, commit_every: int = 1):
        self.db = db
        self.session_id = session_id
        self.commit_every = max(1, commit_every)
        self._inner = [shard.session(commit_every=_NEVER) for shard in db.shards]
        self._touched: set[int] = set()
        self._since_commit = 0
        self.ops = 0
        self.commits = 0
        self.last_lsn = -1
        self.last_shard = -1

    def execute(self, command: KVOp) -> Any:
        """Apply one command on its owning shard; auto-commits every
        touched shard on this session's cadence."""
        shard = self.db.keymap.owner(command)
        inner = self._inner[shard]
        result = inner.execute(command)
        if command[0] in MUTATIONS:
            self._touched.add(shard)
            self.ops += 1
            self.last_lsn = inner.last_lsn
            self.last_shard = shard
            self._since_commit += 1
            if self._since_commit >= self.commit_every:
                self.commit()
        return result

    def run(self, stream: Sequence[KVOp]) -> None:
        """Execute every command of ``stream`` in order."""
        for command in stream:
            self.execute(command)

    def commit(self) -> int:
        """Make this session's records durable: commit every shard
        touched since the last commit.  Returns the stable LSN covering
        this session's last mutation on its shard (what a server acks).
        """
        self._since_commit = 0
        self.commits += 1
        touched, self._touched = self._touched, set()
        stable = -1
        for shard in sorted(touched):
            observed = self._inner[shard].commit()
            if shard == self.last_shard:
                stable = observed
        if stable < 0 and self.last_shard >= 0:
            stable = self.db.shards[self.last_shard].method.machine.log.stable_lsn
        return stable

    def sync(self) -> int:
        """Hard barrier on *every* shard — all sessions' records on all
        shards are durable on return."""
        self._since_commit = 0
        self._touched.clear()
        stable = -1
        for index, inner in enumerate(self._inner):
            observed = inner.sync()
            if index == self.last_shard:
                stable = observed
        return stable

    def get(self, key: str) -> Any:
        """Read ``key`` from its owning shard."""
        return self._inner[self.db.keymap.shard_of(key)].get(key)

    def __repr__(self) -> str:
        return (
            f"ShardedSession(#{self.session_id} ops={self.ops} "
            f"commits={self.commits} last=({self.last_shard},{self.last_lsn}))"
        )
