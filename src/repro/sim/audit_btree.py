"""Auditing the recoverable B-tree against the theory, page-granular.

Variables here are *pages* (their value: the cell dict), matching §6's
own granularity.  Each stable log record lifts to abstract operations:

- a single-page record (put/delete/add/truncate/set-meta) lifts to one
  operation that reads and writes its page (the action transforms the
  page's prior contents);
- a whole-page physical image lifts to a blind page write;
- a multi-page record lifts to **one operation per written page**, each
  reading the pages its own actions read (plus its own page unless a
  split-move rewrites it whole).  This decomposition is legitimate precisely
  because a written page's actions never read the record's *other*
  written pages — the same fact that makes the engine's per-page LSN
  replay sound — and the audit turns that argument into a checked
  invariant: the per-page redo decisions must leave an installed set
  that is an installation-graph prefix explaining the stable disk.

Each operation's function runs the interpreter redo runs, on scratch
copies of the pages it reads.
"""

from __future__ import annotations

from functools import partial

from repro.btree.tree import FIRST_PAGE, META_PAGE, TYPE_CELL, BTree
from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    MultiPageRedo,
    PhysicalRedo,
    PhysiologicalRedo,
)
from repro.logmgr.records import page_accesses
from repro.methods.redo import actions_on
from repro.sim.audit import InstantAudit
from repro.storage.page import Page


def _page_op(name: str, page_id: str, accesses, mutate_for) -> Operation:
    """One record's write to ``page_id`` as a page-granular operation.

    It reads every page its cell ``accesses`` read, and its own page
    unless it rewrites the whole page (a split-move, a whole-page
    image).  Its function runs ``mutate_for(reader)``, the mutator redo
    runs, on scratch copies of the pages it reads.  An empty page lifts
    to None: it is an absent one, as in the stable state.
    """
    cell_reads, cell_writes = accesses
    reads = {read_page for read_page, _ in cell_reads}
    if (page_id, None) not in cell_writes:
        reads.add(page_id)

    def compute(values: dict) -> dict:
        scratch = {p: Page(p, dict(values[p] or {})) for p in reads}
        page = scratch.get(page_id, Page(page_id))
        mutate_for(scratch.__getitem__)(page)
        return {page_id: dict(page.cells) or None}

    return Operation(name, frozenset(reads), frozenset({page_id}), compute)


def lift_btree_log(entries: list[LogRecord]) -> tuple[list[Operation], dict]:
    """Lift stable records to page-granular operations.

    Returns the operations plus a map lsn -> list of (operation, page_id)
    for the per-page redo bookkeeping.
    """
    operations: list[Operation] = []
    by_lsn: dict[int, list[tuple[Operation, str]]] = {}
    for entry in entries:
        payload = entry.payload
        if isinstance(payload, CheckpointRecord):
            continue
        if isinstance(payload, PhysicalRedo):
            shares = {
                payload.page_id: (
                    payload.accesses(),
                    lambda _reader, install=payload.apply_to: install,
                )
            }
        elif isinstance(payload, (PhysiologicalRedo, MultiPageRedo)):
            writes = (
                payload.writes
                if isinstance(payload, MultiPageRedo)
                else {payload.page_id: (payload.action,)}
            )
            shares = {
                page_id: (page_accesses(page_id, actions), partial(actions_on, actions, None))
                for page_id, actions in writes.items()
            }
        else:
            raise ValueError(f"unliftable record {type(payload).__name__}")
        group = by_lsn[entry.lsn] = []
        for page_id, share in shares.items():
            name = f"L{entry.lsn}" if len(shares) == 1 else f"L{entry.lsn}.{page_id}"
            group.append((_page_op(name, page_id, *share), page_id))
            operations.append(group[-1][0])
    return operations, by_lsn


def audit_btree(tree: BTree) -> InstantAudit:
    """Evaluate the Recovery Invariant for the tree's current stable
    configuration (disk + stable log + per-page LSN redo decisions).
    ``stable_records`` counts lifted records; ``redo_count`` counts the
    per-page operations recovery would replay."""
    entries = tree.machine.log.entries(volatile=False)
    operations, by_lsn = lift_btree_log(entries)
    installation = InstallationGraph(ConflictGraph(operations))

    disk = tree.machine.disk

    redo_start = 0
    for entry in entries:
        if isinstance(entry.payload, CheckpointRecord):
            redo_start = entry.payload.data[1]

    installed = [
        op
        for lsn, group in by_lsn.items()
        for op, page_id in group
        if lsn < redo_start or disk.page_lsn(page_id) >= lsn
    ]

    # The initial state is the unlogged idempotent bootstrap (recovery
    # recreates it identically), and a page absent from disk holds its
    # initial value — states are total functions.  An empty page is an
    # absent one (None) here as in the lifter.
    initial = State(default=None)
    initial.set(META_PAGE, {"root": FIRST_PAGE})
    initial.set(FIRST_PAGE, {TYPE_CELL: "leaf"})
    stable = initial.copy()
    for page in disk.images().values():
        stable.set(page.page_id, dict(page.cells) or None)

    verdict = explanation(installation, installed, stable, initial)
    return InstantAudit.of(-1, len(by_lsn), len(operations) - len(installed), verdict)
