"""Physiological recovery (§6.3).

A physiological operation reads and writes exactly one page: a
"physical" page identifier plus a "logical" action on that page.  Every
page carries the LSN of the last operation that updated it, and the redo
test compares the page tag with the record LSN:

    page.lsn >= record.lsn  ⇒  the operation is installed; bypass it.

Because each operation touches one page, the write graph is an initial
(stable-state) node plus one independent node per page — the cache may
flush pages in *any* order (steal, no-force).  Flushing a page collapses
its node into the stable node, which bumps the stable page's LSN tag and
thereby removes the flushed operations from ``redo_set``: state change
and ``redo_set`` change are the same atomic page write, so the recovery
invariant is maintained — the §6.3 argument, executable.

Checkpoints are ARIES-flavored and *fuzzy*: a checkpoint record carries
a snapshot of the dirty page table (page -> recLSN) and flushes nothing.
Recovery begins with an **analysis phase** (§4.3): starting from the
last checkpoint's table, it adds every page dirtied since, and each
page's chain then replays from its recLSN.  This is the paper's
``analyze`` function made concrete — the analysis result is a data
structure, not just a log position.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable

from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    MultiPageRedo,
    PageAction,
    PhysiologicalRedo,
)
from repro.logmgr.codec import PAYLOAD_PHYSIOLOGICAL
from repro.logmgr.records import install
from repro.methods.base import Machine, RecoveryMethodKV
from repro.methods.lazy import pagewise_plan
from repro.methods.redo import NOT_REDO, begin_lazy, recover_eager, redo_page
from repro.storage.page import Page


def analysis_pass(records: Iterable[LogRecord]) -> tuple[dict[str, int], int]:
    """The §4.3 analysis phase for LSN-based methods, as one streaming pass.

    Returns the reconstructed dirty page table and the redo start point.
    The table starts from the last checkpoint's logged snapshot and is
    extended by every page-dirtying record after that checkpoint; the
    redo scan starts at the minimum recLSN in the table (or just after
    the checkpoint if the table is empty).

    ``records`` is consumed exactly once, in LSN order: a checkpoint
    record *replaces* the accumulated table with its snapshot (records
    before the checkpoint that still matter are in the snapshot by the
    checkpointer's contract), so feeding the whole log and feeding only
    the suffix from the last stable checkpoint reconstruct the same
    table.  Recovery reads the same table off the page index
    (:func:`~repro.methods.lazy.pagewise_plan`); this scan is the
    reference the tests pin it against.
    """
    checkpoint_lsn = -1
    table: dict[str, int] = {}
    for record in records:
        payload = record.payload
        if isinstance(payload, CheckpointRecord):
            checkpoint_lsn = record.lsn
            table = dict(payload.data[1])
        elif isinstance(payload, PhysiologicalRedo):
            table.setdefault(payload.page_id, record.lsn)
        elif isinstance(payload, MultiPageRedo):
            for page_id in payload.writes:
                table.setdefault(page_id, record.lsn)
    redo_start = min(table.values(), default=checkpoint_lsn + 1)
    return table, redo_start


class PhysiologicalKV(RecoveryMethodKV):
    """Key-value store recovered by page-LSN physiological logging."""

    name = "physiological"
    replays = frozenset({PAYLOAD_PHYSIOLOGICAL})

    def __init__(
        self,
        machine: Machine | None = None,
        n_pages: int = 8,
        sharp_checkpoints: bool = False,
    ):
        super().__init__(machine, n_pages)
        # Sharp checkpoints flush every dirty page first, buying minimal
        # recovery work at the cost of checkpoint IO; the default fuzzy
        # checkpoint just records the redo start point.
        self.sharp_checkpoints = sharp_checkpoints

    def dirty_table(self) -> dict[str, int]:
        """The ARIES dirty page table (page -> recLSN), read off the
        pool's live write graph: a page's node is born at first dirtying
        (carrying the dirtying LSN) and retired when a flush installs —
        or elides — it, so the scheduler's recLSN view *is* the dirty
        page table.  No parallel bookkeeping, no flush observer."""
        return self.machine.pool.scheduler.rec_lsns()

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def _log_and_apply(
        self, page_id: str, action: PageAction, record=None, reader=None
    ) -> None:
        """Log ``action`` on ``page_id`` as ``record`` (default: its
        one-page record) and apply it.  It reads before the append,
        inside the pool's update (the pool-then-log order of the WAL
        gate), so a refused operand logs nothing."""
        if record is None:
            record = PhysiologicalRedo(page_id, action)
        log = self.machine.log

        def mutate(page: Page) -> None:
            write = action.prepare(page, reader)
            install(page, write, log.append(record).lsn)

        self.machine.pool.update(page_id, mutate, create=True)
        self.stats.operations += 1

    def put(self, key: str, value: Any) -> None:
        self._log_and_apply(self.page_of(key), PageAction("put", (key, value)))

    def delete(self, key: str) -> None:
        self._log_and_apply(self.page_of(key), PageAction("delete", (key,)))

    def add(self, key: str, delta: int) -> None:
        """A page-logical read-modify-write.  The record carries only the
        delta; replay *re-reads the page*, which is exactly why the LSN
        redo test must be exact — replaying an installed add would
        double-apply it (see examples/invariant_checker.py)."""
        self._log_and_apply(self.page_of(key), PageAction("add", (key, delta)))

    def get(self, key: str) -> Any:
        try:
            return self.machine.pool.get_page(self.page_of(key)).get(key)
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Log a dirty-page-table snapshot; fuzzy checkpoints flush nothing."""
        if self.sharp_checkpoints:
            self.machine.log.flush()
            self.machine.pool.flush_all()
        snapshot = tuple(sorted(self.dirty_table().items()))
        self.machine.log.append(CheckpointRecord((self.name, snapshot)))
        self.machine.log.flush()
        self.stats.checkpoints += 1

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def redo_record(self, record: LogRecord) -> dict:
        """One-page records replay under the page-LSN test
        (:func:`~repro.methods.redo.redo_page`); anything else in the
        log (checkpoints) is not a redo payload."""
        payload = record.payload
        if not isinstance(payload, PhysiologicalRedo):
            return NOT_REDO
        mutate = partial(payload.action.apply_to, lsn=record.lsn)
        return redo_page(self.machine.pool, payload.page_id, record.lsn, mutate)

    def recover(self, full_scan: bool = False) -> None:
        """Eager restart: :meth:`begin_lazy_recovery`'s plan, drained
        before returning — each page's chain replays at once, so the
        pool writes a recovered page about once instead of once per
        eviction of an LSN-ordered scan.  Media recovery (``full_scan``)
        replays every chain from its head: the LSN test bypasses
        whatever the restored backup already holds."""
        recover_eager(self, full_scan, partial(pagewise_plan, self))

    def begin_lazy_recovery(self):
        """Analysis off the per-page index, redo deferred to first touch.

        The dirty page table is :func:`analysis_pass`'s — checkpoint
        snapshot plus first post-checkpoint dirtying per page — read
        from chain metadata.  Each faulted page replays its own chain
        through :meth:`redo_record`; records below a page's recLSN are
        installed in the stable state, so never fetching them changes
        nothing.  Multi-page (§6.4) records link the chains of the
        pages they read and write, so a faulted page replays its
        ancestry — the chain prefixes it depends on — merged in LSN
        order: a replayed read sees the source page with exactly its
        earlier writes, Theorem 3's premise holds, and the drained state
        equals the sequential scan's.
        """
        return begin_lazy(self, partial(pagewise_plan, self))
