"""Logical recovery (§6.1), System R style.

A logical operation is conceptually a map from one whole database state
to the next, so installing one requires atomically transforming the
entire stable state.  System R achieved this with a staging area and a
checkpoint record that "swings a pointer":

- between checkpoints the stable state is *never touched*; updated pages
  live in the cache;
- a checkpoint quiesces, forces the log, writes the cached pages to the
  staging area, and then performs one atomic root write that makes the
  staging area the stable state (see :class:`repro.storage.ShadowStore`);
- that single atomic action installs every operation logged since the
  previous checkpoint *and* removes them from ``redo_set`` (recovery
  starts after the checkpoint LSN recorded in the root), so the recovery
  invariant is maintained — the §6.1 argument, executable.

In write-graph terms the system is a two-node graph: the stable state
node and one node accumulating everything since the last checkpoint; the
pointer swing is the collapse of the two.

After a crash, recovery replays *all* logical records after the root's
checkpoint LSN through the normal update code path.
"""

from __future__ import annotations

from typing import Any

from repro.logmgr import LOGICAL_PAGE, CheckpointRecord, LogicalRedo, LogRecord
from repro.logmgr.codec import PAYLOAD_LOGICAL
from repro.logmgr.records import install
from repro.methods.base import Machine, RecoveryMethodKV
from repro.methods.lazy import SuffixLazyPlan
from repro.methods.redo import NOT_REDO, begin_lazy, recover_eager
from repro.storage import Page, ShadowStore


class LogicalKV(RecoveryMethodKV):
    """Key-value store recovered by logical logging over a shadow store."""

    name = "logical"
    replays = frozenset({PAYLOAD_LOGICAL})

    def __init__(self, machine: Machine | None = None, n_pages: int = 8):
        super().__init__(machine, n_pages)
        self.shadow = ShadowStore(self.machine.disk)
        # The System R cache: every page updated since the last checkpoint
        # stays here in full; the stable directory is never touched.
        self._cache: dict[str, Page] = {}
        # Set by begin_lazy_recovery(); first data access drains it.
        self._lazy_plan = None

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def _lazy_gate(self) -> None:
        """Drain any pending lazy-restart suffix before serving data.

        Logical recovery has one global chain, so the first access pays
        the whole remaining replay (the drain is re-entrant-safe: a
        replayed record's own page reads fall through the plan's active
        latch instead of recursing).
        """
        plan = self._lazy_plan
        if plan is not None and not plan.done:
            plan.drain()

    def _page_for_update(self, key: str) -> Page:
        """The cached page ``key`` is written on, loaded on first use."""
        page = self._page_for_read(key)
        if page is None:
            page = Page(self.page_of(key))
        return self._cache.setdefault(page.page_id, page)

    def _page_for_read(self, key: str) -> Page | None:
        """The page ``key`` is read from (None if no page holds it)."""
        self._lazy_gate()
        page_id = self.page_of(key)
        page = self._cache.get(page_id)
        if page is None and self.shadow.has_current(page_id):
            page = self.shadow.read_current(page_id)
        return page

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def _log_and_apply(self, description: tuple) -> None:
        """The normal update path: the record's interpreter reads before
        the append (a refused operand logs nothing), writes after it.
        Recovery replays through the same interpreter."""
        record = LogicalRedo(description)
        page = self._page_for_update(description[1])
        write = record.prepare(page, self._page_for_read)
        self.machine.log.append(record)
        install(page, write)
        self.stats.operations += 1

    def put(self, key: str, value: Any) -> None:
        self._log_and_apply(("kv-put", key, value))

    def delete(self, key: str) -> None:
        self._log_and_apply(("kv-delete", key, None))

    def add(self, key: str, delta: int) -> None:
        self._log_and_apply(("kv-add", key, delta))

    def copyadd(self, dst: str, src: str, delta: int) -> None:
        """A truly logical cross-key operation: the record carries the
        source key and delta; replay performs the read."""
        self._log_and_apply(("kv-copyadd", dst, (src, delta)))

    def get(self, key: str) -> Any:
        page = self._page_for_read(key)
        return None if page is None else page.get(key)

    # ------------------------------------------------------------------
    # Checkpoint: the quiesce-and-swing of §6.1
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        # A pending lazy suffix must be applied before the swing: the
        # root pointer moves past every stable LSN, so records not yet
        # replayed would silently leave redo_set.
        self._lazy_gate()
        # Force everything applied: the staged pages snapshot the live
        # cache — state through the last *applied* operation — so the
        # stable log must cover every applied LSN before the swing, or
        # the installed root would run ahead of the durable prefix.
        self.machine.log.flush()
        checkpoint_lsn = self.machine.log.stable_lsn
        # One batched staging call: the directory lookup and write loop
        # are amortized across the whole cache, like the log's window
        # encoder amortizes framing across a group-commit batch.
        self.shadow.stage_pages(self._cache.values())
        self.machine.log.append(CheckpointRecord(("logical", checkpoint_lsn)))
        self.machine.log.flush()
        # THE atomic installation: one root write installs every staged
        # page and moves every logged operation out of redo_set at once.
        self.shadow.swing_pointer(checkpoint_lsn)
        self._cache.clear()
        self.stats.checkpoints += 1

    def quiesce(self) -> None:
        """Stabilize without logging: stage the cache and swing the root,
        but append no :class:`CheckpointRecord`.

        Sound because recovery reads the replay start from the *root
        pointer*, never from checkpoint records — the swing alone moves
        the replayed suffix out of ``redo_set``.  The append-free form
        keeps repeated quiesce/cold-start cycles byte-identical: a second
        cold start replays the (now empty) suffix after the swung root
        and quiesces into a no-op.
        """
        self._lazy_gate()
        self.machine.log.flush()
        if not self._cache:
            return
        checkpoint_lsn = self.machine.log.stable_lsn
        self.shadow.stage_pages(self._cache.values())
        self.shadow.swing_pointer(checkpoint_lsn)
        self._cache.clear()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        super().crash()
        self._cache.clear()
        self._lazy_plan = None

    def _reopen_shadow(self) -> int:
        """Drop every volatile structure and reattach the shadow store
        to the surviving disk; returns the root pointer's checkpoint LSN
        — reading it is this method's whole analysis phase."""
        self._cache.clear()
        self._lazy_plan = None
        self.shadow = ShadowStore(self.machine.disk)
        self.shadow.abandon_staging()  # half-built staging is garbage
        return self.shadow.checkpoint_lsn()

    def redo_record(self, record: LogRecord) -> dict:
        """Every logical record past the root pointer replays, through
        the normal update path; the redo test is the analysis cutoff."""
        payload = record.payload
        if not isinstance(payload, LogicalRedo):
            return NOT_REDO
        payload.apply_to(self._page_for_update, self._page_for_read)
        return {"decision": "replayed"}

    def begin_lazy_recovery(self):
        """Analysis-only restart: the O(1) root-pointer read, with the
        whole replay suffix deferred.

        Logical operations are state-to-state maps over one global
        chain — there is no page granularity to exploit — so "lazy"
        here means the analysis (reading the replay start off the root
        pointer) is decoupled from the replay: the engine serves
        immediately, the background drainer consumes the suffix in
        batches, and the first foreground data access pays whatever
        remains (the :meth:`_lazy_gate` in the page accessors).
        """

        def plan_for(_full_scan: bool):
            start = self._reopen_shadow() + 1
            index = self.machine.log.page_index(start_lsn=max(0, start))
            plan = SuffixLazyPlan(self, index.chain(LOGICAL_PAGE, start))
            self._lazy_plan = plan
            return plan, {"redo_start": start}

        return begin_lazy(self, plan_for)

    def recover(self, full_scan: bool = False) -> None:
        """Start from the stable state named by the root pointer and
        replay every later stable logical record, streamed straight off
        the segmented log (the checkpoint suffix; no record list is
        materialized).  ``full_scan`` is accepted for interface parity;
        the root pointer on the disk at hand already names the right
        replay start (the backup's own checkpoint LSN, or none at all on
        an empty disk).  Cold start composes cleanly:
        the root pointer lives on the disk and the suffix streams off
        the segment files, so a process that lost every Python object
        still recovers to the identical shadow state."""

        def plan_for(_full_scan: bool):
            checkpoint_lsn = self._reopen_shadow()
            found = {"checkpoint_lsn": checkpoint_lsn, "redo_start": checkpoint_lsn + 1}
            return None, found

        recover_eager(self, full_scan, plan_for)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def dump(self) -> dict[str, Any]:
        self._lazy_gate()
        result: dict[str, Any] = {}
        page_ids = set(self.shadow.current_page_ids()) | set(self._cache)
        for page_id in sorted(page_ids):
            page = self._cache.get(page_id)
            if page is None:
                page = self.shadow.read_current(page_id)
            result.update(page.cells)
        return result
