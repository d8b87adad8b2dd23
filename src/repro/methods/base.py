"""Common machinery for the §6 recovery-method engines.

A :class:`Machine` bundles one node's disk, log, and cache, with the
standard failure semantics: :meth:`Machine.crash` drops the cache and the
volatile log tail and leaves the disk alone.  A machine never builds a
file-backed log itself: it takes whatever log it is handed (the engine
opens one with :meth:`~repro.logmgr.manager.LogManager.open`) and
defaults to an in-memory one.

:class:`RecoveryMethodKV` is the contract every method implements.  All
methods store key-value pairs hashed across a fixed set of data pages, so
their log volumes, IO counts, and recovery work are directly comparable —
the E5 benchmarks rely on this.

The durability contract shared by all methods: after ``crash()`` +
``recover()``, the visible key-value state equals the result of applying
exactly the operations whose log records were stable at the crash
(``durable_count()`` of them, a prefix of the operation stream).
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.cache import BufferPool
from repro.logmgr import LogManager, LogRecord
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage import Disk


@dataclass
class MethodStats:
    """Counters the benchmarks report for each method."""

    operations: int = 0
    checkpoints: int = 0
    records_scanned: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    recoveries: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (for benchmark reports)."""
        return dict(vars(self))


class Machine:
    """One simulated node: disk (stable), log and cache (volatile tail).

    ``disk`` and ``log`` default to a fresh :class:`~repro.storage.Disk`
    and an in-memory :class:`~repro.logmgr.LogManager` with a simulated
    stable boundary; passing them in is how the engine puts the log on
    files and how a cold start injects a crash survivor's disk image.
    """

    def __init__(
        self,
        cache_capacity: int = 16,
        enforce_wal: bool = True,
        tracer: Tracer | None = None,
        disk: Disk | None = None,
        log: LogManager | None = None,
    ):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.disk = disk if disk is not None else Disk()
        self.log = log if log is not None else LogManager(tracer=self.tracer)
        self.enforce_wal = enforce_wal
        self.pool = self._new_pool(cache_capacity)
        self.crashed = False

    def _new_pool(self, capacity: int) -> BufferPool:
        return BufferPool(
            self.disk,
            self.log if self.enforce_wal else None,
            capacity=capacity,
            tracer=self.tracer,
        )

    def crash(self) -> None:
        """Lose everything volatile: cached pages and the log tail."""
        self.pool.crash()
        self.log.crash()
        self.crashed = True

    def reboot_pool(self) -> None:
        """A fresh (empty) buffer pool for the recovered incarnation."""
        self.pool = self._new_pool(self.pool.capacity)
        self.crashed = False


def page_of(key: str, n_pages: int, prefix: str = "data") -> str:
    """Deterministic key-to-page placement (crc32, not Python's salted hash)."""
    return f"{prefix}{zlib.crc32(key.encode()) % n_pages:03d}"


class RecoveryMethodKV(ABC):
    """A recoverable key-value store driven by one recovery discipline."""

    name = "abstract"
    # Wire tags (repro.logmgr.codec) of the record kinds recovery replays.
    replays: frozenset[int] = frozenset()

    def __init__(self, machine: Machine | None = None, n_pages: int = 8):
        self.machine = machine if machine is not None else Machine()
        self.n_pages = n_pages
        self.stats = MethodStats()

    @classmethod
    def refuse_unreplayed(cls, tag: int, log_dir=None) -> None:
        """Raise ``ValueError``, naming both methods, unless this method
        replays the records of wire ``tag``: restarted from a log another
        method wrote, its recovery would skip them and come up short."""
        if tag in cls.replays:
            return
        from repro.methods import METHODS  # the registry imports this module

        writers = " or ".join(name for name, kind in METHODS.items() if tag in kind.replays)
        raise ValueError(
            f"{log_dir or 'the log'} holds records the {writers} method wrote; "
            f"it cannot restart under method={cls.name!r}"
        )

    @property
    def tracer(self) -> Tracer:
        """The machine's tracer (the :data:`~repro.obs.trace.NULL_TRACER`
        unless the engine was constructed with tracing on)."""
        return self.machine.tracer

    # -- the KV interface ------------------------------------------------

    @abstractmethod
    def put(self, key: str, value: Any) -> None:
        """Durably-loggable upsert."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Durably-loggable removal."""

    @abstractmethod
    def add(self, key: str, delta: int) -> None:
        """Durably-loggable read-modify-write: key <- (key or 0) + delta.

        The interesting operation of the suite: it *reads*.  How each
        method logs it is where the §6 disciplines genuinely diverge —
        physical logging computes the result and logs it blindly, while
        logical and physiological logging replay the read at recovery.
        """

    @abstractmethod
    def get(self, key: str) -> Any:
        """Read through the cache (None if absent)."""

    def copyadd(self, dst: str, src: str, delta: int) -> None:
        """Cross-key derivation: dst <- (src or 0) + delta.

        Reads one key, writes another — the operation shape that creates
        write-read edges between *different* variables.  Physical logging
        supports it trivially (log the computed result blindly); logical
        logging replays the read.  Physiological logging cannot express
        it when the keys live on different pages — one-page records are
        its defining restriction (§6.3), and lifting it is precisely what
        §6.4's generalized operations are for.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support cross-key operations"
        )

    def apply(self, command: tuple) -> Any:
        """Run one workload command (kind, key, value)."""
        kind, key, value = command
        if kind == "put":
            return self.put(key, value)
        if kind == "add":
            return self.add(key, value)
        if kind == "copyadd":
            src, delta = value
            return self.copyadd(key, src, delta)
        if kind == "delete":
            return self.delete(key)
        if kind == "get":
            return self.get(key)
        raise ValueError(f"unknown command kind {kind!r}")

    # -- durability control ----------------------------------------------

    @abstractmethod
    def checkpoint(self) -> None:
        """Take a checkpoint (method-specific)."""

    def commit(self) -> None:
        """Force the log: everything issued so far becomes durable."""
        self.machine.log.flush()

    def quiesce(self) -> None:
        """Make the current state wholly stable *without logging*: force
        the log, then flush every dirty page, so the disk image plus
        the segment files alone reconstruct this exact state.

        Unlike :meth:`checkpoint` this appends nothing, so quiescing is
        idempotent: repeated quiesce/cold-start cycles stay byte-
        identical, and a test can compare an eager and a drained lazy
        restart by their disk images alone.  Methods with volatile state
        outside the buffer pool (logical's object cache) override this.
        """
        self.machine.log.flush()
        self.machine.pool.flush_all()

    def durable_count(self) -> int:
        """How many operations would survive a crash right now: every
        method logs one record per operation, plus checkpoints."""
        return self.machine.log.stable_operation_count()

    # -- crash / recovery --------------------------------------------------

    def crash(self) -> None:
        """Crash the underlying machine (cache + log tail lost)."""
        self.machine.crash()

    @abstractmethod
    def recover(self, full_scan: bool = False) -> None:
        """Rebuild a consistent state from the disk and the stable log.

        ``full_scan=True`` ignores checkpoint shortcuts and scans the log
        from its head — required for media recovery, where the restored
        disk is *older* than the last checkpoint and the analysis-derived
        redo start point would skip work the backup has not seen.  Sound
        for every method: blind physical replays are always harmless, and
        LSN tests bypass whatever the backup does contain.  A disk that
        holds no page at all gets the same treatment without asking
        (:mod:`repro.methods.redo`).
        """

    @abstractmethod
    def redo_record(self, record: LogRecord) -> dict:
        """The method's whole redo test and apply, for one log record.

        §4's ``redo`` parameter: decide whether ``record`` is replayed
        or bypassed, apply it if so, and return the decision — the
        field set of its ``recovery.record`` trace event: ``decision``
        ("replayed" or "skipped"), a ``reason`` when skipped, and the
        ``page``/``pages`` it concerned.  Eager and lazy recovery both
        reach this through :func:`repro.methods.redo.replay`, never
        directly.
        """

    @abstractmethod
    def begin_lazy_recovery(self):
        """Analysis-only restart: run the analysis phase, defer redo.

        Returns a lazy plan (:mod:`repro.methods.lazy`) whose pages
        replay on first access while a background drainer retires the
        backlog.  After the plan drains, the state is identical to what
        eager :meth:`recover` would have produced.
        """

    # -- media failure ---------------------------------------------------

    def backup(self) -> dict:
        """A fuzzy online backup: a snapshot of the stable state.

        Any instant's disk image works — it is explained by whatever
        prefix of the installation graph was installed when the snapshot
        was cut, so Theorem 3 says replaying the surviving log recovers.
        The log is assumed to live on separate media (the standard
        archive assumption).
        """
        return self.machine.disk.snapshot()

    def media_failure(self) -> None:
        """The disk is destroyed; cache and volatile log tail go with it.
        The stable log survives on its own device."""
        self.machine.crash()
        self.machine.disk = Disk()
        self.machine.reboot_pool()

    def restore_from_backup(self, backup: dict) -> None:
        """Media recovery: lay down the backup image, then redo the whole
        surviving log against it."""
        for page in backup.values():
            self.machine.disk.write_page(page)
        self.recover(full_scan=True)

    # -- theory audit ------------------------------------------------------

    def theory_audit(self, instant: int = -1):
        """Evaluate the Recovery Invariant for this engine right now.

        Convenience wrapper over :mod:`repro.sim.audit` (imported lazily
        to keep methods importable without the sim layer): lifts the
        stable log to abstract operations, builds the incremental
        conflict/installation graphs, simulates this method's redo
        decision, and checks that the not-redone operations induce an
        installation-graph prefix explaining the stable state.  For
        repeated audits keep an ``AuditTracker`` (or use
        ``KVDatabase.theory_audit``) so the graphs carry over.
        """
        from repro.sim.audit import AuditTracker

        return AuditTracker(self).audit(instant)

    # -- inspection --------------------------------------------------------

    def page_of(self, key: str) -> str:
        """The data page this method stores ``key`` on."""
        return page_of(key, self.n_pages)

    def dump(self) -> dict[str, Any]:
        """The full visible key-value mapping (for oracle comparison)."""
        result: dict[str, Any] = {}
        for index in range(self.n_pages):
            page_id = f"data{index:03d}"
            try:
                page = self.machine.pool.get_page(page_id)
            except KeyError:
                continue
            for cell, value in page:
                result[cell] = value
        return result

    def log_bytes(self) -> int:
        """Total log bytes this method has appended."""
        return self.machine.log.total_bytes()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pages={self.n_pages}, ops={self.stats.operations})"
