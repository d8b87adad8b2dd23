"""Auditing a live engine against the theory — the bridge module.

The §6 arguments were checked abstractly in :mod:`repro.core`; this
module checks them *against the running engines*.  At any instant of
normal operation it:

1. lifts the engine's **stable log records** to abstract operations
   (variables = keys) — and here the disciplines genuinely diverge:
   a physical record lifts to a *blind* write (the result was computed
   before logging), while logical and physiological ``add`` records lift
   to read-modify-writes, so the *same* workload yields different
   conflict and installation graphs under different methods;
2. reconstructs the engine's **stable model state** (what recovery would
   start from: disk pages, or the shadow store's current directory);
3. simulates the engine's **redo decision** per record (checkpoint
   cut-off, pointer LSN, or page-LSN test against the disk image);
4. evaluates the **Recovery Invariant**: the not-redone operations must
   induce an installation-graph prefix explaining the stable state.

`audit_instant` is the single-instant check; `audited_run` executes a
workload calling it after every command.  Because the engines' caches,
evictions, WAL forces, checkpoints, and group commits all run for real,
a bug in any of them shows up as a flagged instant — this is the
"recovery checker" use of the theory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.exposed import ExposureMemo
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.engine import KVDatabase
from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    LogicalRedo,
    MultiPageRedo,
    PhysicalRedo,
    PhysiologicalRedo,
)
from repro.methods import GeneralizedKV, LogicalKV, PhysicalKV, PhysiologicalKV
from repro.storage.page import Page
from repro.workloads.kv import KVOp


class AuditError(AssertionError):
    """A record could not be lifted to the abstract model."""


@dataclass
class InstantAudit:
    """The invariant verdict at one instant of normal operation."""

    instant: int
    stable_records: int
    redo_count: int
    holds: bool
    is_prefix: bool
    explains_state: bool
    scheduler_ok: bool = True
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds

    @classmethod
    def of(
        cls,
        instant: int,
        stable_records: int,
        redo_count: int,
        verdict: tuple[bool, set[str], set[str]],
        scheduler: tuple[bool, str] = (True, ""),
    ) -> "InstantAudit":
        """The audit for an :func:`~repro.core.explain.explanation`
        verdict plus the install-scheduler cross-check's ``(ok, detail)``."""
        is_prefix, _, mismatched = verdict
        scheduler_ok, scheduler_detail = scheduler
        details = [
            "" if is_prefix else "installed set is not an installation-graph prefix",
            f"exposed variables with wrong stable values: {sorted(mismatched)}"
            if mismatched
            else "",
            scheduler_detail,
        ]
        explains_state = is_prefix and not mismatched
        return cls(
            instant=instant,
            stable_records=stable_records,
            redo_count=redo_count,
            holds=explains_state and scheduler_ok,
            is_prefix=is_prefix,
            explains_state=explains_state,
            scheduler_ok=scheduler_ok,
            detail="; ".join(filter(None, details)),
        )


# ----------------------------------------------------------------------
# Lifting log records to abstract operations
# ----------------------------------------------------------------------

_KV_PAYLOADS = (LogicalRedo, PhysicalRedo, PhysiologicalRedo, MultiPageRedo)


def _redo_on(scratch: Page, payload) -> None:
    """Run the interpreter redo runs for ``payload`` against ``scratch``,
    one page standing for every page the record touches: a KV cell is
    its key, unique across pages."""
    if isinstance(payload, LogicalRedo):
        payload.apply_to(lambda _key: scratch, lambda _key: scratch)
    elif isinstance(payload, PhysicalRedo):
        payload.apply_to(scratch)
    elif isinstance(payload, PhysiologicalRedo):
        payload.action.apply_to(scratch)
    else:
        for actions in payload.writes.values():
            for action in actions:
                action.apply_to(scratch, reader=lambda _page_id: scratch)


def _lift_record(entry: LogRecord) -> Operation | None:
    """The abstract operation a stable log record denotes (None for
    checkpoint records, which are not operations): its keys read and
    written, and a function that loads the read values into a scratch
    page, runs redo's own interpreter and reads the written keys back
    (an absent key, as a deleted or tombstoned one is, reads None)."""
    payload = entry.payload
    if isinstance(payload, CheckpointRecord):
        return None
    if not isinstance(payload, _KV_PAYLOADS):
        raise AuditError(f"unliftable record type {type(payload).__name__}")
    try:
        read_cells, write_cells = payload.accesses()
    except ValueError as error:
        raise AuditError(f"unliftable record {payload}: {error}") from None
    if any(cell is None for _, cell in read_cells | write_cells):
        raise AuditError(
            f"unliftable record {payload}: whole-page images, truncate and "
            "split-move mix per-key and per-page granularity (the B-tree's "
            "records have their own lifter)"
        )
    reads = frozenset(cell for _, cell in read_cells)
    writes = frozenset(cell for _, cell in write_cells)

    def compute(values: dict) -> dict:
        scratch = Page("scratch", dict(values))
        _redo_on(scratch, payload)
        return {key: scratch.get(key) for key in writes}

    return Operation(f"L{entry.lsn}", reads, writes, compute)


# ----------------------------------------------------------------------
# Reconstructing the stable model state
# ----------------------------------------------------------------------

def _stable_model_state(method) -> State:
    """The key-value state recovery would start from."""
    state = State(default=None)
    if isinstance(method, LogicalKV):
        for page_id in method.shadow.current_page_ids():
            for cell, value in method.shadow.read_current(page_id):
                state.set(cell, value)
        return state
    for page in method.machine.disk.pages():
        if page.page_id.startswith("data"):
            for cell, value in page:
                state.set(cell, value)
    return state


# ----------------------------------------------------------------------
# Simulating the redo decision
# ----------------------------------------------------------------------

def _redo_lsns(method, entries: Sequence[LogRecord]) -> set[int]:
    """The LSNs the method's recovery would replay, given the current
    stable state — mirroring each §6 recovery procedure exactly."""
    if isinstance(method, LogicalKV):
        cut = method.shadow.checkpoint_lsn()
        return {
            e.lsn
            for e in entries
            if e.lsn > cut and not isinstance(e.payload, CheckpointRecord)
        }
    if isinstance(method, PhysicalKV):
        start = 0
        for entry in entries:
            if isinstance(entry.payload, CheckpointRecord):
                start = entry.lsn + 1
        # A page the disk lacks witnesses no checkpoint: its whole chain
        # is redone (the analysis of repro.methods.lazy.pagewise_plan).
        disk = method.machine.disk
        return {
            e.lsn
            for e in entries
            if not isinstance(e.payload, CheckpointRecord)
            and (e.lsn >= start or not disk.has_page(e.payload.page_id))
        }
    if isinstance(method, (PhysiologicalKV, GeneralizedKV)):
        # Each stored page's LSN, read once per instant (-1: not on disk).
        page_lsns = {page.page_id: page.lsn for page in method.machine.disk.pages()}

        # The installed set is modeled by the pure page-LSN test: a
        # record's effect is on disk iff its page's stable LSN covers it.
        # The analysis pass's redo_start is deliberately NOT applied
        # here: it is a *scan* optimization, sound because everything
        # below it replays as a no-op or is already reflected — but
        # flush elision can leave a net-identity window below redo_start
        # whose records are individually unreflected (the disk keeps the
        # pre-window image and LSN).  Treating those as installed would
        # pick a witness prefix whose determined state disagrees with
        # the disk mid-window; the page-LSN cut is the prefix whose
        # determined state the disk actually holds.
        chosen = set()
        for entry in entries:
            if isinstance(entry.payload, PhysiologicalRedo):
                if page_lsns.get(entry.payload.page_id, -1) < entry.lsn:
                    chosen.add(entry.lsn)
            elif isinstance(entry.payload, MultiPageRedo):
                if any(
                    page_lsns.get(page_id, -1) < entry.lsn
                    for page_id in entry.payload.writes
                ):
                    chosen.add(entry.lsn)
        return chosen
    raise AuditError(f"no redo model for {type(method).__name__}")


# ----------------------------------------------------------------------
# Cross-checking the buffer pool's install scheduler
# ----------------------------------------------------------------------

def _scheduler_cross_check(method) -> tuple[bool, str]:
    """Agree the engine's §5 install scheduler with the cache it governs.

    Three obligations: the scheduler's own structural invariants hold
    (live index consistent, edges symmetric, graph acyclic); the pages
    with live pending writes are exactly the dirty LSN-stamped frames
    (the live write graph *is* the dirty page table); and every recLSN is
    at most its page's current LSN (a recLSN above the page LSN would let
    analysis start past updates the page still carries).
    """
    pool = method.machine.pool
    scheduler = getattr(pool, "scheduler", None)
    if scheduler is None:
        return True, ""
    problems = scheduler.self_check()
    if problems:
        return False, f"scheduler self-check failed: {problems}"
    dirty = {
        page.page_id: page.lsn
        for page in pool
        if pool.is_dirty(page.page_id) and page.lsn >= 0
    }
    rec_lsns = scheduler.rec_lsns()
    if set(dirty) != set(rec_lsns):
        return False, (
            f"dirty frames {sorted(dirty)} disagree with scheduler "
            f"pending pages {sorted(rec_lsns)}"
        )
    for page_id, rec_lsn in rec_lsns.items():
        if rec_lsn > dirty[page_id]:
            return False, (
                f"recLSN {rec_lsn} of {page_id!r} exceeds its page LSN "
                f"{dirty[page_id]}"
            )
    return True, ""


# ----------------------------------------------------------------------
# The audit itself
# ----------------------------------------------------------------------

class AuditTracker:
    """Incremental audit state for one engine across many instants.

    Between instants the stable log only *grows*, so the tracker keeps an
    LSN watermark and lifts just the newly stable records into a growing
    conflict/installation graph pair (Lemma 1 makes left-to-right appends
    order-safe).  Each lifted record is evaluated once, into the growing
    installation state graph; an :class:`~repro.core.exposed.ExposureMemo`
    re-decides only the variables of records whose redo verdict flipped;
    and each exposed variable's determined value is read from its newest
    installed writer.  Four steps stay O(stable records) per instant
    (DESIGN §7 gives the slope): the stable-entry walk, the redo
    simulation, the installed set and the prefix test.

    The tracker accepts any §6 method engine; :class:`KVDatabase` builds
    one per database on first use (``theory_tracker()``) and keeps it
    for every later audit.  The watermark discipline rests on the log being
    append-only from LSN 0, which the log manager guarantees.
    """

    def __init__(self, method) -> None:
        self.method = method
        self.conflict = ConflictGraph()
        self.installation = InstallationGraph(self.conflict)
        self.memo = ExposureMemo(self.conflict)
        self._by_lsn: dict[int, Operation] = {}
        self._watermark = -1

    def sync(self) -> list[LogRecord]:
        """Lift records that became stable since the last call; returns
        the full stable entry list for the redo simulation."""
        entries = self.method.machine.log.stable_entries()
        for entry in entries:
            if entry.lsn <= self._watermark:
                continue
            lifted = _lift_record(entry)
            if lifted is not None:
                self.conflict.append(lifted)
                self._by_lsn[entry.lsn] = lifted
            self._watermark = entry.lsn
        return entries

    def audit(self, instant: int = -1) -> InstantAudit:
        """Evaluate the Recovery Invariant for the engine right now."""
        entries = self.sync()
        redo = _redo_lsns(self.method, entries)
        installed = {op for lsn, op in self._by_lsn.items() if lsn not in redo}
        verdict = explanation(
            self.installation,
            installed,
            _stable_model_state(self.method),
            State(default=None),
            self.memo,
        )
        return InstantAudit.of(
            instant,
            len(self._by_lsn),
            len(redo),
            verdict,
            _scheduler_cross_check(self.method),
        )


def audit_instant(db: KVDatabase, instant: int = -1) -> InstantAudit:
    """Evaluate the Recovery Invariant for ``db`` right now.

    Runs through the database's own tracker, so the graphs it lifts
    carry over to the next audit of ``db``.
    """
    return db.theory_tracker().audit(instant)


def audited_run(
    db: KVDatabase,
    stream: Sequence[KVOp],
    audit_every: int = 1,
) -> list[InstantAudit]:
    """Run ``stream`` on ``db``, auditing after every ``audit_every``-th
    command (plus once at the start and once at the end).

    One :class:`AuditTracker` carries the graphs across all instants, so
    the per-instant cost tracks the commands executed since the previous
    audit, not the whole history.
    """
    tracker = AuditTracker(db.method)
    audits = [tracker.audit(instant=0)]
    for index, command in enumerate(stream, start=1):
        db.execute(command)
        if index % audit_every == 0:
            audits.append(tracker.audit(instant=index))
    db.commit()
    audits.append(tracker.audit(instant=len(stream)))
    return audits


@dataclass
class DeploymentAudit:
    """The Recovery Invariant verdict for a whole sharded deployment.

    ``shard_audits`` are the per-shard :class:`InstantAudit` witnesses;
    ``misplaced`` maps shard index to keys visible there that the keymap
    assigns elsewhere (the routing invariant the Theorem 3 stitch relies
    on).  The deployment holds iff every shard's invariant holds and no
    key is misplaced.
    """

    holds: bool
    shard_audits: list[InstantAudit]
    misplaced: dict[int, list[str]]
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def audit_deployment(deployment) -> DeploymentAudit:
    """Stitch per-shard recoverability witnesses into one verdict.

    The stitch is Theorem 3's argument run in reverse.  The keymap
    partitions the keys — and, through each shard's private ``page_of``
    space, the pages — into disjoint sets, so the deployment's log is
    the disjoint union of the shard logs and its installation graph is
    the disjoint union of the shard graphs (no cross-shard operation
    exists to add an edge between components; :meth:`Keymap.owner`
    refuses them at the door).  A union of per-component prefixes is a
    prefix of the union, and a union of states each explained by its
    component's prefix is explained by the union prefix.  Hence: if
    every shard's Recovery Invariant holds — each shard's not-redone
    records induce a prefix explaining its stable state — the
    deployment-wide invariant holds, and independent per-shard recovery
    is exactly as sound as one global recovery would be.

    The one premise the per-shard audits cannot see is the partition
    itself, so this audit re-checks it: every key visible on a shard
    must be one the keymap routes there.  A misplaced key means some
    write bypassed the router, and the disjoint-union argument — not
    just the audit — is void.
    """
    shard_audits = [
        audit_instant(shard, instant=index)
        for index, shard in enumerate(deployment.shards)
    ]
    misplaced: dict[int, list[str]] = {}
    keymap = deployment.keymap
    for index, shard in enumerate(deployment.shards):
        wrong = sorted(
            key for key in shard.method.dump() if keymap.shard_of(key) != index
        )
        if wrong:
            misplaced[index] = wrong
    failed = [a.instant for a in shard_audits if not a.holds]
    details = []
    if failed:
        details.append(f"shard invariant failed on {failed}")
    if misplaced:
        details.append(f"misplaced keys: {misplaced}")
    return DeploymentAudit(
        holds=not failed and not misplaced,
        shard_audits=shard_audits,
        misplaced=misplaced,
        detail="; ".join(details),
    )


def installation_graph_of(db: KVDatabase) -> InstallationGraph:
    """The abstract installation graph of the engine's stable log — used
    by the E9 experiment to show the disciplines shape the graph."""
    tracker = AuditTracker(db.method)
    tracker.sync()
    return tracker.installation
