"""The recoverable key-value database.

``KVDatabase`` composes a recovery method with cadence policy:

- ``commit_every``: commit every N operations of a session (N=1 is
  synchronous commit; larger N batches N operations per force and widens
  the window of operations a crash may lose);
- ``checkpoint_every``: take a method checkpoint every N operations
  (None = never), trading normal-operation work against recovery work —
  the knob behind the checkpoint-frequency benchmark;
- ``log_dir`` / ``fsync``: put the log on real binary segment files,
  where every force is one ``fsync``.  A fresh database needs a fresh
  (or empty) directory; :meth:`KVDatabase.cold_start` reopens a used one
  from its segment files alone (plus whatever disk survived), which is
  how the cross-process crash tests and ``serve --log-dir`` recover.

The durability contract is checked by :meth:`verify_against`: after a
crash and recovery, the visible state must equal the oracle applied to
exactly the first ``durable_count()`` operations of the stream.

**Concurrency contract.**  One ``KVDatabase`` serves many threads.
Command execution is serialized under the engine's re-entrant mutex —
applying a command is fast, in-memory work — but *commit waits are not*.
Every commit goes through the database's one cross-session group commit
(:class:`~repro.logmgr.pipeline.GroupCommitPipeline`), outside the
engine lock: on its own thread it either leads a force of everything
appended so far or follows the force in progress, so while one fsync is
on the disk other sessions keep executing and their commits share the
next one.  Each operation is announced to the pipeline while it applies,
so a leader about to force waits for its records instead of sleeping on
a timer.  Commands run through a :class:`Session`, which carries a commit
cadence and a last-LSN watermark: per-client streams through their own
(:meth:`KVDatabase.session`), :meth:`KVDatabase.execute` through the
database's default one.  The engine keeps no history of the commands it
ran: the caller that issued a stream holds it and hands it to
:meth:`verify_against`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Sequence

from repro.logmgr.manager import DEFAULT_SEGMENT_SIZE, LogDirectoryError, LogManager
from repro.logmgr.pipeline import GroupCommitPipeline
from repro.methods import METHODS, Machine, RecoveryMethodKV
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.workloads.kv import MUTATIONS, KVOp, apply_to_oracle


class VerificationError(AssertionError):
    """The recovered state does not match the durable-prefix oracle."""


@dataclass(frozen=True)
class EngineSpec:
    """A declarative engine configuration — the factory path.

    Everything that shapes a :class:`KVDatabase` except *where* its log
    lives: the recovery method, cache size, commit and checkpoint
    cadence, segment size.  A spec is the unit of
    configuration a deployment stores in its manifest: N shards built
    from one spec are N identically-configured engines over N log
    directories, and a process that only has the manifest can rebuild
    any of them (:meth:`build` for a fresh engine, :meth:`cold_start`
    for one recovered from its segment files).

    Specs are frozen and JSON-round-trippable (:meth:`as_dict` /
    :meth:`from_dict`), so any process that reads the manifest
    rebuilds the same engine.
    """

    method: str = "physiological"
    cache_capacity: int = 16
    n_pages: int = 8
    commit_every: int = 1
    checkpoint_every: int | None = None
    method_options: dict | None = None
    log_segment_size: int | None = None
    fsync: bool = True
    # Every engine group-commits; the field stays until its last caller
    # goes, and only its one surviving value is accepted.
    commit_pipeline: bool = True

    def __post_init__(self):
        if self.commit_pipeline is not True:
            raise ValueError(
                f"EngineSpec field commit_pipeline={self.commit_pipeline!r} is "
                f"no longer supported (only True remains)"
            )

    def build(
        self,
        log_dir=None,
        *,
        tracer: Tracer | None = None,
    ) -> "KVDatabase":
        """A fresh engine per this spec (durable when ``log_dir`` is set)."""
        return KVDatabase(log_dir=log_dir, tracer=tracer, **self.as_dict())

    def cold_start(
        self,
        log_dir,
        disk=None,
        *,
        recover: bool = True,
        lazy: bool = False,
        tracer: Tracer | None = None,
    ) -> "KVDatabase":
        """Restart an engine of this spec from its segment directory."""
        return KVDatabase.cold_start(
            log_dir,
            disk=disk,
            recover=recover,
            lazy=lazy,
            tracer=tracer,
            **self.as_dict(),
        )

    def as_dict(self) -> dict[str, Any]:
        """The spec as a JSON-safe mapping (manifest serialization)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineSpec":
        """Rebuild a spec from :meth:`as_dict` output; unknown keys are
        an error — a manifest written by a newer layout must not be
        silently half-read.  Manifests written before a field was retired
        still carry it: its one surviving value is dropped, any other is
        refused by name."""
        data = dict(data)
        for retired, kept in (
            ("install_policy", "graph"),
            ("cache_policy", "lru"),
            ("truncate_on_checkpoint", False),
            ("group_commit", 1),
        ):
            value = data.pop(retired, kept)
            if value != kept:
                raise ValueError(
                    f"EngineSpec field {retired}={value!r} is no longer "
                    f"supported (only {kept!r} remains)"
                )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown EngineSpec fields: {sorted(unknown)}")
        return cls(**data)


def _machine(spec: EngineSpec, log_dir, tracer: Tracer, disk=None) -> Machine:
    """The one step that builds an engine's machine and its log: in
    memory, or opened from ``log_dir`` by
    :meth:`~repro.logmgr.manager.LogManager.open` (an empty or missing
    directory gives a fresh log)."""
    size = spec.log_segment_size
    if size is None:
        size = DEFAULT_SEGMENT_SIZE
    if log_dir is None:
        log = LogManager(size, tracer=tracer)
    else:
        log = LogManager.open(log_dir, size, tracer=tracer, fsync=spec.fsync)
    return Machine(spec.cache_capacity, tracer=tracer, disk=disk, log=log)


class KVDatabase:
    """A crash-recoverable KV store with configurable method and cadence."""

    def __init__(
        self,
        method: str = "physiological",
        *,
        tracer: Tracer | None = None,
        log_dir=None,
        machine: Machine | None = None,
        **spec_fields,
    ):
        """``spec_fields`` are :class:`EngineSpec`'s fields (cache size,
        cadence, ``method_options``, ...), with its defaults and its
        rejection of unknown names.  A ``log_dir`` that already holds
        records raises :class:`~repro.logmgr.manager.LogDirectoryError`:
        a used log belongs to :meth:`cold_start`."""
        spec = EngineSpec(method=method, **spec_fields)
        if method not in METHODS:
            raise ValueError(
                f"unknown method {method!r}; choose from {sorted(METHODS)}"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if machine is None:
            machine = _machine(spec, log_dir, self.tracer)
            if len(machine.log):
                machine.log.close()
                raise LogDirectoryError(
                    f"{log_dir} already holds {len(machine.log)} log records; "
                    f"reopen it with KVDatabase.cold_start"
                )
        self.method: RecoveryMethodKV = METHODS[method](
            machine, n_pages=spec.n_pages, **(spec.method_options or {})
        )
        self.method_name = method
        self.pipeline = GroupCommitPipeline(self.method.machine.log)
        self.metrics = self._build_metrics()
        self.checkpoint_every = spec.checkpoint_every
        self._theory_tracker: Any = None
        self._since_checkpoint = 0
        # Serializes command application and all cadence bookkeeping;
        # re-entrant, so a holder may still checkpoint or quiesce.
        self.mutex = threading.RLock()
        self._next_session_id = 0
        # The session :meth:`execute` runs through: ``commit_every`` is its
        # cadence.
        self._session = self.session(spec.commit_every)
        # Lazy-restart state (set by _begin_lazy_restart): the method's
        # replay plan, the background drainer, and its stop flag.
        self._lazy_plan: Any = None
        self._lazy_thread: threading.Thread | None = None
        self._lazy_stop: threading.Event | None = None

    @classmethod
    def cold_start(
        cls,
        log_dir,
        disk=None,
        method: str = "physiological",
        *,
        recover: bool = True,
        lazy: bool = False,
        tracer: Tracer | None = None,
        **spec_fields,
    ) -> "KVDatabase":
        """Restart from durable state alone: segment files plus a disk.

        This is what a real process does after ``kill -9``: no Python
        objects survive, so the log manager is rebuilt from the segment
        directory (:meth:`~repro.logmgr.manager.LogManager.open`, which
        applies the torn-tail rule to whatever the crash left), the
        ``disk`` is whatever page store survived (a fresh empty
        :class:`~repro.storage.Disk` when pages lived nowhere durable —
        recovery then replays the whole log, checkpoints or not), and
        ``recover()`` replays the stable prefix.  Pass
        ``recover=False`` to inspect the pre-recovery state.
        ``spec_fields`` are :class:`EngineSpec`'s fields (cache, cadence,
        ``method_options``, ...), with its defaults and its rejection
        of unknown names.

        ``lazy=True`` is the instant-restart path: only the analysis
        phase runs before this returns — the engine serves immediately,
        each page's first access replays its own log chain through the
        buffer pool's fault hook, and a background thread drains the
        rest in recLSN order.  Once drained (``drain_lazy()`` forces
        it), the state is byte-identical to an eager cold start.  A log
        another method wrote is refused with ``ValueError``.
        """
        spec = EngineSpec(method=method, **spec_fields)
        tracer = tracer if tracer is not None else NULL_TRACER
        machine = _machine(spec, log_dir, tracer, disk)
        try:
            lsn = machine.log.first_operation_lsn()  # its tag names the writer
            if lsn is not None and spec.method in METHODS:
                METHODS[spec.method].refuse_unreplayed(machine.log.entry(lsn).payload_tag, log_dir)
            db = cls(tracer=tracer, machine=machine, **spec.as_dict())
            if recover and lazy:
                db._begin_lazy_restart()
            elif recover:
                db.recover()
        except BaseException:
            machine.log.close()  # a refused directory keeps no handle open
            raise
        return db

    def _build_metrics(self) -> MetricsRegistry:
        """One registry over every component's counters, via collectors.

        The collectors dereference ``self.method.machine`` *at snapshot
        time*, because the pool (and with it the scheduler) is replaced
        by ``reboot_pool()`` during recovery — binding the objects here
        would silently keep reading the dead incarnation.
        """
        registry = MetricsRegistry()
        registry.register_collector("method", lambda: self.method.stats.as_dict())
        registry.register_collector(
            "log",
            lambda m=self: {
                "bytes": m.method.machine.log.total_bytes(),
                "records": len(m.method.machine.log),
                "forces": m.method.machine.log.forced_flushes,
                "stable_lsn": m.method.machine.log.stable_lsn,
            },
        )
        registry.register_collector(
            "disk",
            lambda m=self: {
                "page_writes": m.method.machine.disk.page_writes,
                "bytes_written": m.method.machine.disk.bytes_written,
            },
        )
        registry.register_collector(
            "cache",
            lambda m=self: {
                "hits": m.method.machine.pool.hits,
                "misses": m.method.machine.pool.misses,
                "flushes": m.method.machine.pool.flushes,
                "evictions": m.method.machine.pool.evictions,
            },
        )
        registry.register_collector(
            "scheduler",
            lambda m=self: m.method.machine.pool.scheduler.stats.as_dict(),
        )
        registry.register_collector(
            "durable",
            lambda m=self: (
                m.method.machine.log.store.as_dict()
                if m.method.machine.log.store is not None
                else {}
            ),
        )
        registry.register_collector("pipeline", self.pipeline.stats)
        return registry

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def execute(self, command: KVOp) -> Any:
        """Run one command through the default session, honoring the
        commit/checkpoint cadence."""
        return self._execute(command, self._session)

    def _execute(self, command: KVOp, session: "Session") -> Any:
        """The one execute path.  Application and bookkeeping run under
        the engine mutex, announced to the pipeline from before the
        operation queues for the mutex until its records are appended, so
        a leader about to force can wait for them.  A due commit waits
        after the mutex is released, so other threads keep executing while
        this one's force is on the disk; a due checkpoint follows it, so
        the commit's force is never folded into the checkpoint's."""
        pipeline = self.pipeline
        pipeline.enter()
        try:
            with self.mutex:
                if self.tracer.enabled:
                    self.tracer.event(
                        "engine.command",
                        kind=command[0],
                        key=command[1],
                        session=session.session_id,
                    )
                result = self.method.apply(command)
                if command[0] not in MUTATIONS:
                    return result
                session.last_lsn = self.method.machine.log.next_lsn - 1
                session.ops += 1
                session._since_commit += 1
                commit_due = session._since_commit >= session.commit_every
                self._since_checkpoint += 1
                checkpoint_due = (
                    self.checkpoint_every is not None
                    and self._since_checkpoint >= self.checkpoint_every
                )
                if checkpoint_due:
                    self._since_checkpoint = 0  # one thread takes it
        finally:
            pipeline.leave()
        if commit_due:
            session.commit()
        if checkpoint_due:
            self.checkpoint()
        return result

    def run(self, stream: Sequence[KVOp]) -> None:
        """Execute every command of ``stream`` in order."""
        for command in stream:
            self.execute(command)

    def session(self, commit_every: int | None = None) -> "Session":
        """A per-client command stream over this shared database.

        ``commit_every`` is the session's own commit cadence (default:
        the database's, :attr:`commit_every`).  Sessions are cheap — a
        server creates one per connection — and any number may execute
        concurrently.
        """
        with self.mutex:
            session_id = self._next_session_id
            self._next_session_id += 1
        return Session(
            self,
            session_id,
            commit_every=(
                commit_every if commit_every is not None else self.commit_every
            ),
        )

    @property
    def commit_every(self) -> int:
        """The default session's commit cadence (``EngineSpec.commit_every``)."""
        return self._session.commit_every

    def commit(self) -> None:
        """Make everything issued so far durable; resets the default
        session's operation-batching counter.  The request leads or
        follows a shared force and blocks until its records are stable."""
        self._session._since_commit = 0
        self.pipeline.commit()

    def sync(self) -> None:
        """Force the log directly: everything issued so far is durable
        on return, whatever pipeline force is in flight."""
        self.method.machine.log.flush()

    def quiesce(self) -> None:
        """Make the state wholly stable without appending to the log:
        force it, then flush every volatile overlay (dirty pool
        pages; logical's object cache via a root swing).  Afterwards the
        disk snapshot plus the segment files alone reproduce this exact
        state, so tests can compare disk images directly.  Idempotent,
        unlike :meth:`checkpoint`."""
        with self.mutex:
            self.drain_lazy()
            self._session._since_commit = 0
            self.method.quiesce()

    def checkpoint(self) -> None:
        """Take a method checkpoint; resets the cadence counter.

        A pending lazy-restart backlog is drained first: a fuzzy
        checkpoint logs the pool's live dirty-page table, which cannot
        see pages whose replay has not happened yet — checkpointing past
        them would cut them out of the next analysis.
        """
        with self.mutex:
            self.drain_lazy()
            span = self.tracer.span("checkpoint", method=self.method_name)
            self.method.checkpoint()
            self._since_checkpoint = 0
            span.end(stable_lsn=self.method.machine.log.stable_lsn)

    def get(self, key: str) -> Any:
        """Read ``key`` through the method's cache."""
        return self.method.get(key)

    # ------------------------------------------------------------------
    # Theory audit
    # ------------------------------------------------------------------

    def theory_tracker(self) -> Any:
        """The incremental audit tracker for this database (created on
        first use; the import is lazy to avoid an engine <-> sim cycle)."""
        if self._theory_tracker is None:
            from repro.sim.audit import AuditTracker

            self._theory_tracker = AuditTracker(self.method)
        return self._theory_tracker

    def theory_audit(self, instant: int = -1) -> Any:
        """Evaluate the Recovery Invariant against the stable log right
        now, via the incrementally maintained graphs."""
        return self.theory_tracker().audit(instant)

    # ------------------------------------------------------------------
    # Crash / recovery / verification
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the cache and the unforced log tail.

        Nothing is forced on the way down: a commit whose records the
        crash drops raises instead of acknowledging them.  A lazy-restart
        backlog is *abandoned*, not replayed: its records are stable in
        the log and the next incarnation's analysis will find them again.
        """
        self._stop_lazy()
        with self.mutex:
            if self.tracer.enabled:
                self.tracer.event(
                    "engine.crash",
                    stable_lsn=self.method.machine.log.stable_lsn,
                    lost_tail=self.method.machine.log.next_lsn
                    - 1
                    - self.method.machine.log.stable_lsn,
                )
            self.method.crash()

    def recover(self) -> None:
        """Run the method's recovery procedure."""
        self._stop_lazy()
        with self.mutex:
            self.method.recover()

    # ------------------------------------------------------------------
    # Lazy restart (serve during recovery)
    # ------------------------------------------------------------------

    def _begin_lazy_restart(self) -> None:
        """Run analysis only and start serving; redo happens per page.

        The method's :meth:`~repro.methods.base.RecoveryMethodKV.begin_lazy_recovery`
        builds the replay plan (installing itself as the buffer pool's
        fault hook), and a daemon thread drains the backlog in recLSN
        order behind the foreground traffic.
        """
        with self.mutex:
            self._lazy_plan = self.method.begin_lazy_recovery()
            self._lazy_stop = threading.Event()
            self._lazy_thread = threading.Thread(
                target=self._drain_lazy_backlog, name="lazy-redo", daemon=True
            )
            self._lazy_thread.start()

    def _drain_lazy_backlog(self) -> None:
        plan, stop = self._lazy_plan, self._lazy_stop
        while stop is not None and not stop.is_set():
            if not plan.step():
                break
            # Yield between steps: a foreground fault blocked on the
            # pool mutex takes it here instead of waiting out the drain.
            time.sleep(0)
        if plan.done and stop is not None and not stop.is_set():
            if self.tracer.enabled:
                self.tracer.event(
                    "engine.lazy_drained",
                    records=plan.records_fetched,
                )

    def drain_lazy(self) -> None:
        """Synchronously finish any pending background replay.

        A no-op after an eager start or once the backlog is gone.  The
        byte-identity contract holds from here on: the state equals an
        eager cold start's.
        """
        plan = self._lazy_plan
        if plan is not None:
            plan.drain()

    def _stop_lazy(self) -> None:
        """Abandon any lazy restart in progress (crash/shutdown): stop
        the drainer and detach the plan; unreplayed records stay in the
        log for the next incarnation."""
        stop, thread, plan = self._lazy_stop, self._lazy_thread, self._lazy_plan
        if stop is not None:
            stop.set()
        if plan is not None:
            plan.close()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._lazy_plan = None
        self._lazy_thread = None
        self._lazy_stop = None

    def replay_backlog(self) -> int:
        """Pages (records, for logical) still awaiting lazy replay."""
        plan = self._lazy_plan
        return 0 if plan is None else plan.backlog()

    def close(self) -> None:
        """Shut down cleanly: finish any background replay, stop its
        drainer, then close the log's segment files once any force in
        flight on a committing thread has finished."""
        self.drain_lazy()
        self._stop_lazy()
        self.method.machine.log.close()

    def crash_and_recover(self) -> None:
        """Crash, then recover — one full fault cycle."""
        self.crash()
        self.recover()

    def durable_count(self) -> int:
        """Operations that would survive a crash right now."""
        return self.method.durable_count()

    def verify_against(self, mutation_stream: Sequence[KVOp]) -> int:
        """Check the durability contract; returns the durable count.

        ``mutation_stream`` is the stream this database ran, in log order
        (gets are filtered out).  The recovered state must equal the
        oracle applied to its durable prefix.
        """
        mutations = [c for c in mutation_stream if c[0] in MUTATIONS]
        durable = self.durable_count()
        if durable > len(mutations):
            raise VerificationError(
                f"durable count {durable} exceeds mutations issued {len(mutations)}"
            )
        expected = apply_to_oracle(mutations[:durable])
        actual = self.method.dump()
        if actual != expected:
            missing = {k: v for k, v in expected.items() if actual.get(k) != v}
            extra = {k: v for k, v in actual.items() if expected.get(k) != v}
            raise VerificationError(
                f"recovered state diverges from the durable prefix of "
                f"{durable} operations; missing/wrong={missing!r} extra={extra!r}"
            )
        return durable

    # ------------------------------------------------------------------
    # Stats for benchmarks
    # ------------------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """Every component's counters, namespaced, plus identity labels.

        Built from the metrics registry's snapshot — each counter
        arrives as ``namespace.key`` and is reported as
        ``namespace_key`` (``method_records_replayed``, ``log_forces``,
        ``scheduler_elisions``, ...).  The registry raises on any name
        collision, and the underscore flattening is re-checked here, so
        the historical silent-overwrite hazard of merging flat dicts is
        structurally gone.
        """
        stats: dict[str, Any] = {}
        for name, value in self.metrics.snapshot().items():
            key = name.replace(".", "_")
            assert key not in stats, f"report key collision on {key!r}"
            stats[key] = value
        assert "method" not in stats, "report key collision on 'method'"
        stats["method"] = self.method_name
        return stats

    def health(self) -> dict[str, Any]:
        """The liveness essentials, cheap enough to poll.

        ``pipeline_depth`` is the volatile log tail in records (appended
        but not yet stable — what a crash right now would lose);
        ``dirty_pages`` reads the install scheduler's live dirty-page
        table (:meth:`~repro.cache.scheduler.InstallScheduler.rec_lsns`),
        the same table a post-crash analysis pass would reconstruct.
        ``state`` is ``"failed"`` once a force has failed — the file
        store's sticky ``failure``, whichever thread's force hit it — and
        ``errno`` is then that failure's.
        """
        with self.mutex:
            log = self.method.machine.log
            stable = log.stable_lsn
            next_lsn = log.next_lsn
            dirty = len(self.method.machine.pool.scheduler.rec_lsns())
        backlog = self.replay_backlog()
        failure = getattr(log.store, "failure", None)
        return {
            "method": self.method_name,
            "stable_lsn": stable,
            "next_lsn": next_lsn,
            "pipeline_depth": max(0, next_lsn - 1 - stable),
            "dirty_pages": dirty,
            "operations": self.method.stats.operations,
            "recoveries": self.method.stats.recoveries,
            "replay_backlog": backlog,
            "state": "failed" if failure else "recovering" if backlog else "ready",
            "errno": getattr(failure, "errno", None),
        }


class Session:
    """One client's command stream against a shared :class:`KVDatabase`.

    A session owns nothing but cadence state: a commit counter and the
    LSN of its last mutation.  Application is serialized by the engine
    mutex; :meth:`commit` waits for durability of *this session's*
    records through the database's group commit, leading or following a
    shared force outside the engine mutex (many sessions, one fsync).
    Commands reach the log in the engine mutex's acquisition order;
    ``last_lsn`` places this session's last mutation in that order.
    """

    def __init__(self, db: KVDatabase, session_id: int, commit_every: int = 1):
        self.db = db
        self.session_id = session_id
        self.commit_every = max(1, commit_every)
        self.ops = 0
        self.commits = 0
        self.last_lsn = -1
        self._since_commit = 0

    def execute(self, command: KVOp) -> Any:
        """Apply one command; auto-commits on this session's cadence."""
        return self.db._execute(command, self)

    def run(self, stream: Sequence[KVOp]) -> None:
        """Execute every command of ``stream`` in order."""
        for command in stream:
            self.execute(command)

    def commit(self) -> int:
        """Block until this session's records are stable; returns the
        stable LSN observed on return (>= this session's last LSN).
        Raises ``RuntimeError`` if a crash dropped those records, and
        ``ValueError`` once the database is closed."""
        self._since_commit = 0
        self.commits += 1
        return self.db.pipeline.commit(self.last_lsn)

    def sync(self) -> int:
        """Force the log directly: everything appended so far — all
        sessions' — is durable on return."""
        log = self.db.method.machine.log
        log.flush()
        return log.stable_lsn

    def get(self, key: str) -> Any:
        """Read ``key`` through the shared method cache."""
        with self.db.mutex:
            return self.db.method.get(key)

    def __repr__(self) -> str:
        return (
            f"Session(#{self.session_id} ops={self.ops} "
            f"commits={self.commits} last_lsn={self.last_lsn})"
        )
