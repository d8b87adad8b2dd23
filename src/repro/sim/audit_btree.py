"""Auditing the recoverable B-tree against the theory, page-granular.

Variables here are *pages* (their value: the cell dict), matching §6's
own granularity.  Each stable log record lifts to abstract operations:

- a single-page record (put/delete/add/truncate/set-meta) lifts to one
  operation that reads and writes its page (the action transforms the
  page's prior contents);
- a whole-page physical image lifts to a blind page write;
- a multi-page record lifts to **one operation per written page**, each
  reading the record's read pages (plus its own page when its actions
  need the prior contents).  This decomposition is legitimate precisely
  because a written page's actions never read the record's *other*
  written pages — the same fact that makes the engine's per-page LSN
  replay sound — and the audit turns that argument into a checked
  invariant: the per-page redo decisions must leave an installed set
  that is an installation-graph prefix explaining the stable disk.
"""

from __future__ import annotations

from repro.btree.tree import FIRST_PAGE, META_PAGE, TYPE_CELL, BTree
from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
)
from repro.sim.audit import InstantAudit


def _interpret(
    actions: tuple[PageAction, ...], reads: dict, page_id: str
) -> dict | None:
    """Apply page actions functionally: reads maps page ids to cell
    dicts; returns the written page's new cell dict, or None when it is
    empty (an empty page is an absent one, as in the stable state)."""
    cells = dict(reads.get(page_id) or {})
    for action in actions:
        if action.kind in ("put", "set-meta"):
            cell, value = action.args
            cells[cell] = value
        elif action.kind == "delete":
            (cell,) = action.args
            cells.pop(cell, None)
        elif action.kind == "add":
            cell, delta = action.args
            cells[cell] = (cells.get(cell) or 0) + delta
        elif action.kind == "truncate":
            (split_key,) = action.args
            cells = {c: v for c, v in cells.items() if c < split_key}
        elif action.kind == "split-move":
            source_page_id, split_key = action.args
            source = reads.get(source_page_id) or {}
            cells = {c: v for c, v in source.items() if c >= split_key}
        else:
            raise ValueError(f"unliftable B-tree action {action.kind!r}")
    return cells or None


def _read_pages_of(actions: tuple[PageAction, ...], page_id: str) -> set[str]:
    """The pages these actions actually read, derived per action.

    Incremental actions (put/delete/add/truncate/set-meta) read the
    written page's prior state; a leading split-move replaces the
    contents wholesale (blind for the written page) and reads its source
    page instead.  Deriving this per action — rather than handing every
    written page the record's whole read set — keeps the lifted graph
    free of spurious read-write edges.
    """
    reads: set[str] = set()
    for action in actions:
        if action.kind == "split-move":
            reads.add(action.args[0])
        elif action.kind == "copyfrom":
            reads.add(action.args[0])
    # The page's own prior state is read unless the first action is a
    # wholesale replacement (split-move clears before filling).
    if not (actions and actions[0].kind == "split-move"):
        reads.add(page_id)
    return reads


def lift_btree_log(entries: list[LogRecord]) -> tuple[list[Operation], dict]:
    """Lift stable records to page-granular operations.

    Returns the operations plus a map lsn -> list of (operation, page_id)
    for the per-page redo bookkeeping.
    """
    operations: list[Operation] = []
    by_lsn: dict[int, list[tuple[Operation, str]]] = {}
    for entry in entries:
        payload = entry.payload
        name = f"L{entry.lsn}"
        if isinstance(payload, CheckpointRecord):
            continue
        if isinstance(payload, PhysicalRedo):
            cells, page_id = dict(payload.cells), payload.page_id
            op = Operation(
                name,
                frozenset(),
                frozenset({page_id}),
                lambda reads, cells=cells, page_id=page_id: {
                    page_id: dict(cells) or None
                },
            )
            operations.append(op)
            by_lsn[entry.lsn] = [(op, page_id)]
            continue
        if isinstance(payload, PhysiologicalRedo):
            writes = {payload.page_id: (payload.action,)}
        elif isinstance(payload, MultiPageRedo):
            writes = payload.writes
        else:
            raise ValueError(f"unliftable record {type(payload).__name__}")
        group = by_lsn[entry.lsn] = []
        for page_id, actions in writes.items():
            op = Operation(
                name if len(writes) == 1 else f"{name}.{page_id}",
                frozenset(_read_pages_of(actions, page_id)),
                frozenset({page_id}),
                lambda reads, actions=actions, page_id=page_id: {
                    page_id: _interpret(actions, reads, page_id)
                },
            )
            operations.append(op)
            group.append((op, page_id))
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

    def page_lsn(page_id: str) -> int:
        return disk.read_page(page_id).lsn if disk.has_page(page_id) else -1

    redo_start = 0
    for entry in entries:
        if isinstance(entry.payload, CheckpointRecord):
            redo_start = entry.payload.data[1]

    installed = [
        op
        for lsn, group in by_lsn.items()
        for op, page_id in group
        if lsn < redo_start or page_lsn(page_id) >= lsn
    ]

    # The initial state is the unlogged idempotent bootstrap (recovery
    # recreates it identically), and a page absent from disk holds its
    # initial value — states are total functions.  An empty page is an
    # absent one (None) here as in the lifter.
    initial = State(default=None)
    initial.set(META_PAGE, {"root": FIRST_PAGE})
    initial.set(FIRST_PAGE, {TYPE_CELL: "leaf"})
    stable = initial.copy()
    for page in disk.pages():
        stable.set(page.page_id, dict(page.cells) or None)

    verdict = explanation(installation, installed, stable, initial)
    return InstantAudit.of(-1, len(by_lsn), len(operations) - len(installed), verdict)
