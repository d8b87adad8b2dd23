"""The definitional redo model and stable state the audit tracker keeps
incrementally: each computed from scratch, from the whole stable log and
the whole disk, at one instant.

:class:`~repro.sim.audit.AuditTracker` maintains per-page redo cursors
and a stable state it updates by page image; these functions are what
those structures must equal at every instant.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.model import State
from repro.logmgr import CheckpointRecord, LogRecord, MultiPageRedo, PhysiologicalRedo
from repro.methods import GeneralizedKV, LogicalKV, PhysicalKV, PhysiologicalKV


def stable_model_state(method) -> State:
    """The key-value state recovery would start from."""
    state = State(default=None)
    if isinstance(method, LogicalKV):
        for page_id in method.shadow.current_page_ids():
            for cell, value in method.shadow.read_current(page_id):
                state.set(cell, value)
        return state
    for page in method.machine.disk.snapshot().values():
        if page.page_id.startswith("data"):
            for cell, value in page:
                state.set(cell, value)
    return state


def redo_lsns(method, entries: Sequence[LogRecord]) -> set[int]:
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
        # Each stored page's LSN (-1: not on disk); a record's effect is
        # on disk iff its page's stable LSN covers it.
        page_lsns = {p.page_id: p.lsn for p in method.machine.disk.snapshot().values()}
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
    raise AssertionError(f"no redo model for {type(method).__name__}")


def tracked_redo_lsns(tracker) -> set[int]:
    """The redo set the tracker's cursors hold now: its lifted records
    that the exposure memo does not count as installed."""
    installed = tracker.memo.installed_names
    return {lsn for lsn, op in tracker._by_lsn.items() if op.name not in installed}
