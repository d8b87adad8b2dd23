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

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
from repro.methods import LogicalKV, PhysicalKV, PhysiologicalKV
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
    scheduler = pool.scheduler
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

_INITIAL = State(default=None)  # the state before any lifted record


class AuditTracker:
    """Incremental audit state for one engine across many instants; an
    instant costs what changed since the last one (DESIGN §7).

    The stable log only grows, so the records past an LSN watermark are
    lifted into growing conflict/installation graphs (Lemma 1 makes
    left-to-right appends order-safe), each evaluated once.  Redo runs on
    per-page cursors: a chain's ascending LSNs and its bound — the stored
    page's LSN (physiological, generalized), the last stable checkpoint
    if the disk holds the page, else -1 (physical), or the shadow root's
    checkpoint LSN for logical recovery's one chain.  A record at or
    below the bounds of every page it writes is installed; when a bound
    moves either way, bisection finds exactly the records that flip, and
    they reach the :class:`~repro.core.exposed.ExposureMemo` as deltas.
    The stable state is kept, not rebuilt: no stored image is modified in
    place, so a page is read again exactly when its image changed.

    The page-LSN bound deliberately ignores the analysis pass's
    redo_start: it is a *scan* optimization, sound because everything
    below it replays as a no-op or is already reflected — but flush
    elision can leave a net-identity window below redo_start whose
    records are individually unreflected (the disk keeps the pre-window
    image and LSN).  Treating those as installed would pick a witness
    prefix whose determined state disagrees with the disk mid-window; the
    page-LSN cut is the prefix whose determined state the disk actually
    holds.

    The tracker accepts any §6 method engine; :class:`KVDatabase` builds
    one per database on first use (``theory_tracker()``) and keeps it
    for every later audit.  The watermark discipline rests on the log being
    append-only from LSN 0, which the log manager guarantees.
    """

    def __init__(self, method) -> None:
        kinds = (LogicalKV, PhysicalKV, PhysiologicalKV)
        self.method, self._kind = method, next((k for k in kinds if isinstance(method, k)), None)
        if self._kind is None:
            raise AuditError(f"no redo model for {type(method).__name__}")
        self.conflict = ConflictGraph()
        self.installation = InstallationGraph(self.conflict)
        self.memo = ExposureMemo(self.installation)
        self._by_lsn: dict[int, Operation] = {}
        self._watermark = self._checkpoint = -1
        self._chains: dict[str, list[int]] = {}  # page -> LSNs writing it
        self._bounds: dict[str, int] = {}  # page -> the bound last applied
        self._uncovered: dict[int, int] = {}  # LSN -> its pages not covering it
        self._images: dict[str, Page] = {}  # stable page -> image last read
        self._stable = State(default=None)

    def sync(self) -> int:
        """Lift the records stable since the last call; returns how many."""
        log = self.method.machine.log
        if log.stable_lsn <= self._watermark:
            return 0
        read = 0
        for entry in log.stable_records_from(self._watermark + 1):
            self._watermark, read = entry.lsn, read + 1
            operation = _lift_record(entry)
            if operation is None:
                self._checkpoint = entry.lsn
                continue
            self.conflict.append(operation)
            self._by_lsn[entry.lsn] = operation
            uncovered = 0  # a new chain's bound is -1 until the next refresh
            for key in self._chain_keys(entry.payload):
                self._chains.setdefault(key, []).append(entry.lsn)
                uncovered += entry.lsn > self._bounds.setdefault(key, -1)
            self._uncovered[entry.lsn] = uncovered
            if not uncovered:
                self.memo.install(operation)
        return read

    def _chain_keys(self, payload) -> Iterable[str]:
        """The pages whose bounds decide a record's redo: those it writes."""
        if self._kind is LogicalKV:
            return ("",)
        return payload.writes if type(payload) is MultiPageRedo else (payload.page_id,)

    def _stable_view(self) -> tuple[dict[str, Page], Callable[[str], int]]:
        """The stored data pages by page id, uncopied, and the bound of
        each chain in them: the highest LSN it covers."""
        if self._kind is LogicalKV:
            checkpoint, pages = self.method.shadow.stable_view()
            return pages, lambda _key: checkpoint
        images = self.method.machine.disk.images()
        pages = {p: page for p, page in images.items() if p.startswith("data")}
        if self._kind is PhysicalKV:
            # A page the disk lacks witnesses no checkpoint: its whole
            # chain is redone (the analysis of repro.methods.lazy).
            return pages, lambda key: self._checkpoint if key in pages else -1
        return pages, lambda key: pages[key].lsn if key in pages else -1

    def _refresh(self) -> None:
        """Re-read the stable pages whose image changed, then move each
        chain's bound, flipping the records between old and new bound."""
        current, bound = self._stable_view()
        old, self._images = self._images, current
        changed = [p for p in old.keys() | current.keys() if old.get(p) is not current.get(p)]
        for pages, keep in ((old, False), (current, True)):
            for page_id in changed:
                if page_id in pages:
                    for cell, value in pages[page_id].cells.items():
                        self._stable.set(cell, value if keep else None)
                    self.memo.touch(pages[page_id].cells)
        for key, chain in self._chains.items():
            low, high = self._bounds[key], bound(key)
            if low == high:
                continue
            self._bounds[key], step = high, -1
            if high < low:
                low, high, step = high, low, 1
            for lsn in chain[bisect_right(chain, low) : bisect_right(chain, high)]:
                self._uncovered[lsn] += step
                if self._uncovered[lsn] == (0 if step < 0 else 1):
                    flip = self.memo.install if step < 0 else self.memo.uninstall
                    flip(self._by_lsn[lsn])

    def audit(self, instant: int = -1) -> InstantAudit:
        """Evaluate the Recovery Invariant for the engine right now."""
        self.sync()
        self._refresh()
        verdict = explanation(self.installation, None, self._stable, _INITIAL, self.memo)
        lifted = len(self._by_lsn)
        redo = lifted - len(self.memo.installed_names)
        return InstantAudit.of(instant, lifted, redo, verdict, _scheduler_cross_check(self.method))


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
