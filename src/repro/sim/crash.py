"""Crash-anywhere sweeps.

A recovery method is only correct if it recovers from a crash at *every*
instant — §4.5's point that the invariant must hold continuously.  These
harnesses operationalize that: run the workload to instant ``t``, crash,
recover, verify against the durable-prefix oracle, and optionally
continue the workload afterwards to check the recovered incarnation is
fully functional (not just readable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine import KVDatabase, VerificationError
from repro.workloads.kv import MUTATIONS, KVOp


@dataclass
class CrashResult:
    """Outcome of one crash/recover cycle."""

    crash_point: int
    durable_count: int
    recovered: bool
    error: str | None = None
    replayed: int = 0
    scanned: int = 0
    audits: int = 0
    audit_failures: int = 0


def crash_once(
    make_db: Callable[[], KVDatabase],
    stream: Sequence[KVOp],
    crash_point: int,
    continue_after: bool = True,
    audit_every: int | None = None,
) -> CrashResult:
    """Run ``stream[:crash_point]``, crash, recover, verify — then (by
    default) run the rest of the stream and verify again after a final
    clean flush, proving the recovered system is a working system.

    With ``audit_every=N``, the Recovery Invariant (Corollary 5, plus
    the install-scheduler cross-check) is evaluated after every N-th
    pre-crash command via one incremental
    :class:`~repro.sim.audit.AuditTracker` — §4.5's "the invariant must
    hold continuously", enforced during normal operation rather than
    only at the crash point.  Failed audits are counted, not raised, so
    sweeps report them alongside recovery verdicts.
    """
    db = make_db()
    history = [c for c in stream[:crash_point] if c[0] in MUTATIONS]
    audits = audit_failures = 0
    if audit_every is not None and audit_every > 0:
        from repro.sim.audit import AuditTracker

        tracker = AuditTracker(db.method)
        for index, command in enumerate(stream[:crash_point], start=1):
            db.execute(command)
            if index % audit_every == 0:
                audits += 1
                if not tracker.audit(instant=index):
                    audit_failures += 1
    else:
        db.run(stream[:crash_point])
    db.crash_and_recover()
    # Read the redo-work counters through the metrics registry, the same
    # namespaced path production reporting uses (sim and report() must
    # agree by construction, not by parallel bookkeeping).
    snapshot = db.metrics.snapshot()
    replayed = snapshot["method.records_replayed"]
    scanned = snapshot["method.records_scanned"]
    try:
        durable = db.verify_against(history)
    except VerificationError as exc:
        return CrashResult(
            crash_point=crash_point,
            durable_count=db.durable_count(),
            recovered=False,
            error=str(exc),
            replayed=replayed,
            scanned=scanned,
            audits=audits,
            audit_failures=audit_failures,
        )
    if continue_after:
        # The recovered incarnation must accept the rest of the workload.
        # Its logical history is the durable prefix plus the remainder.
        history = history[:durable] + list(stream[crash_point:])
        db.run(stream[crash_point:])
        # Force what the commit cadence left unforced: the oracle compare
        # below needs every applied operation durable.
        db.sync()
        try:
            db.verify_against(history)
        except VerificationError as exc:
            return CrashResult(
                crash_point=crash_point,
                durable_count=durable,
                recovered=False,
                error=f"post-recovery run diverged: {exc}",
                replayed=replayed,
                scanned=scanned,
                audits=audits,
                audit_failures=audit_failures,
            )
    return CrashResult(
        crash_point=crash_point,
        durable_count=durable,
        recovered=True,
        replayed=replayed,
        scanned=scanned,
        audits=audits,
        audit_failures=audit_failures,
    )


def crash_sweep(
    make_db: Callable[[], KVDatabase],
    stream: Sequence[KVOp],
    crash_points: Sequence[int] | None = None,
    continue_after: bool = True,
    audit_every: int | None = None,
) -> list[CrashResult]:
    """Crash at every instant (default) or at the given sample of points."""
    if crash_points is None:
        crash_points = range(len(stream) + 1)
    return [
        crash_once(
            make_db,
            stream,
            point,
            continue_after=continue_after,
            audit_every=audit_every,
        )
        for point in crash_points
    ]


def canonical_state(db: KVDatabase) -> dict:
    """A method-agnostic canonical serialization of recovered state.

    Covers everything the durability contract talks about: the visible
    key-value mapping, the durable operation count, the stable LSN, and
    the full disk image (cells and LSN tag of every page — for the
    logical method this includes the shadow pages and the root, so two
    equal states are equal all the way down, not just at the KV surface).
    Used by the cold-start tests to assert the file-backed recovery path
    lands *identically* to the in-memory one.
    """
    machine = db.method.machine
    return {
        "dump": db.method.dump(),
        "durable": db.durable_count(),
        "stable_lsn": machine.log.stable_lsn,
        "disk": {
            page_id: (dict(page.cells), page.lsn)
            for page_id, page in sorted(machine.disk.snapshot().items())
        },
    }


def cold_restart_states(
    db: KVDatabase, log_dir, **cold_kwargs
) -> tuple[dict, dict]:
    """Crash ``db`` and recover it twice — warm and cold — and return
    both canonical states.

    The *warm* path is the ordinary in-memory one: the same Python
    objects survive, ``crash()`` truncates the volatile tail, and
    ``recover()`` replays.  The *cold* path is what a real restart has:
    only the segment files in ``log_dir`` and a copy of the
    crash-surviving disk image; :meth:`KVDatabase.cold_start` rebuilds
    the log manager from the files (torn-tail rule applied) and recovers
    on a second, fully independent database, closed again once its state
    is taken.  Corollary 4 demands these agree — the test asserts the
    returned pair is equal.

    ``cold_kwargs`` are forwarded to :meth:`KVDatabase.cold_start`
    (``n_pages`` and ``method`` default to the warm database's).
    """
    from repro.storage import Disk

    db.crash()
    snapshot = db.method.machine.disk.snapshot()
    db.recover()
    warm = canonical_state(db)
    survivor = Disk()
    for page in snapshot.values():
        survivor.write_page(page)
    cold_kwargs.setdefault("method", db.method_name)
    cold_kwargs.setdefault("n_pages", db.method.n_pages)
    cold_db = KVDatabase.cold_start(log_dir, disk=survivor, **cold_kwargs)
    cold = canonical_state(cold_db)
    cold_db.close()
    return warm, cold


def sharded_cold_restart_states(deployment, root) -> tuple[list[dict], list[dict]]:
    """Crash a whole deployment and recover it twice — warm and cold —
    returning both per-shard canonical-state lists.

    The sharded analogue of :func:`cold_restart_states`: the warm path
    crashes and recovers the live :class:`~repro.shard.ShardedDatabase`
    in place; the cold path hands
    :meth:`~repro.shard.ShardedDatabase.cold_start` only what a real
    restart has — the deployment root (manifest + per-shard segment
    files) and copies of each shard's crash-surviving disk image.
    Theorem 3 at deployment scale demands the lists agree element-wise.
    """
    from repro.shard import ShardedDatabase
    from repro.storage import Disk

    deployment.crash()
    survivors = []
    for shard in deployment.shards:
        survivor = Disk()
        for page in shard.method.machine.disk.snapshot().values():
            survivor.write_page(page)
        survivors.append(survivor)
    deployment.recover()
    warm = [canonical_state(shard) for shard in deployment.shards]
    cold = ShardedDatabase.cold_start(root, disks=survivors)
    cold_states = [canonical_state(shard) for shard in cold.shards]
    cold.close()
    return warm, cold_states


def repeated_crashes(
    make_db: Callable[[], KVDatabase],
    stream: Sequence[KVOp],
    crash_points: Sequence[int],
) -> CrashResult:
    """One database surviving several crashes at increasing points —
    recovery must be idempotent and re-crashable."""
    db = make_db()
    history: list[KVOp] = []
    done = 0
    for point in sorted(crash_points):
        db.run(stream[done:point])
        history += [c for c in stream[done:point] if c[0] in MUTATIONS]
        done = point
        db.crash_and_recover()
        durable = db.durable_count()
        del history[durable:]
        try:
            db.verify_against(history)
        except VerificationError as exc:
            return CrashResult(
                crash_point=point,
                durable_count=durable,
                recovered=False,
                error=str(exc),
            )
    db.run(stream[done:])
    db.sync()
    try:
        durable = db.verify_against(history + list(stream[done:]))
    except VerificationError as exc:
        return CrashResult(
            crash_point=len(stream), durable_count=db.durable_count(),
            recovered=False, error=str(exc),
        )
    return CrashResult(
        crash_point=len(stream), durable_count=durable, recovered=True
    )
