"""Page-wise redo plans: serve first and replay as touched, or drain.

The per-page redo index (:mod:`repro.logmgr.pageindex`) decouples
analysis from replay: analysis runs up front (it is O(index), not
O(log)), and replay happens *per page* — on the page's first access,
with a background drainer retiring the backlog in recLSN order (a lazy
restart: time-to-service becomes O(analysis)), or all before returning
(an eager restart, which then writes each recovered page about once
instead of once per LRU eviction of an LSN-ordered scan).

Soundness is Theorem 3's schedule freedom made operational.  The redo
records of one page form a chain; replaying a page's chain in LSN order
is exactly the LSN-ordered scan restricted to that page.  Two restrictions
keep the reordered schedule conflict-order consistent:

- **LSN-test methods** replay each fetched record through the one
  ``redo_record`` (:mod:`repro.methods.redo`), so a record whose effect
  is already installed is bypassed as a sequential scan would.
- **Multi-page records** (§6.4) read pages other records write — a
  cross-chain conflict edge.  Chains connected by such edges are replayed
  together, as one merged LSN-ordered unit (the union-find components the
  index exposes), so a replayed read never observes a page that is
  missing earlier replayed writes.  Pages outside every component carry
  no cross-chain edges: their chains commute with everything else
  (Corollary 5 applied to the page-partitioned conflict graph).

A page untouched by the backlog is *clean* by the analysis result —
every record below its table entry is installed in the stable state —
so serving it straight off the disk before the drain finishes returns
exactly what the drained plan would have produced.

Two plan shapes:

- :class:`PagewiseLazyPlan` for the page-granular methods (physical,
  physiological, generalized): a pending table page -> replay-start LSN,
  faulted by the buffer pool's ``page_fault`` hook on first access.
- :class:`SuffixLazyPlan` for logical recovery, whose single global
  chain admits no page granularity: analysis is the O(1) root-pointer
  read, and the first data access drains the whole suffix (the gate is
  in :class:`~repro.methods.logical.LogicalKV`'s page accessors).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.logmgr import PageRedoIndex
from repro.methods.redo import replay

if TYPE_CHECKING:  # pragma: no cover
    from repro.methods.base import RecoveryMethodKV


def pagewise_plan(method: "RecoveryMethodKV", full_scan: bool):
    """The §4.3 analysis phase off the per-page index, no record scan,
    and the plan it yields, with the analysis facts.

    Reconstructs :func:`~repro.methods.physiological.analysis_pass`'s
    dirty page table and redo start: the last stable checkpoint's logged
    snapshot (none for physical's sharp checkpoint), extended with every
    page's first post-checkpoint LSN.  ``full_scan`` ignores the
    checkpoint.  Corollary 4, page by page: a page the disk does not
    hold witnesses no install, so its chain replays from its head
    whatever a checkpoint says — a disk that a crashed diskless start
    left half-written trusts no checkpoint it never saw.
    """
    log, disk = method.machine.log, method.machine.disk
    checkpoint_lsn = -1 if full_scan else log.last_stable_checkpoint_lsn
    table: dict[str, int] = {}
    if checkpoint_lsn >= 0:
        table = dict(*log.entry(checkpoint_lsn).payload.data[1:])
    index = log.page_index()
    for page_id in index.data_pages():
        if not disk.has_page(page_id):
            table[page_id] = index.first_lsn(page_id)
        elif page_id not in table:
            first = index.first_lsn(page_id, after_lsn=checkpoint_lsn)
            if first is not None:
                table[page_id] = first
    redo_start = min(table.values(), default=checkpoint_lsn + 1)
    plan = PagewiseLazyPlan(method, index, table)
    return plan, {"redo_start": redo_start, "dirty_pages": len(table)}


def _segment_runs(entries):
    """Chain entries (LSN ascending) cut into per-segment runs, the unit
    :meth:`~repro.logmgr.manager.LogManager.fetch_chain` reads."""
    return (list(run) for _base, run in groupby(entries, key=itemgetter(0)))


class PagewiseLazyPlan:
    """The pending-replay state of one page-granular restart.

    ``table`` maps each unrecovered page to its replay-start LSN; the
    plan retires pages by fetching their chains through
    :meth:`~repro.logmgr.manager.LogManager.fetch_chain` and feeding the
    records to :func:`~repro.methods.redo.replay` (the method's own
    ``redo_record``, LSN test included).  The index's components group
    pages whose chains are linked by multi-page conflict edges — a fault
    on any member replays the whole group, merged in global LSN order.

    Every mutation runs under :attr:`lock` — the buffer pool's own
    mutex, because faults arrive from inside ``get_page`` already
    holding it, and the background drainer must exclude exactly those
    callers.  The plan installs itself as the pool's ``page_fault`` hook
    and detaches when the last page retires.
    """

    def __init__(
        self,
        method: "RecoveryMethodKV",
        index: PageRedoIndex,
        table: dict[str, int],
    ):
        self.method = method
        self.index = index
        self.lock = method.machine.pool.mutex
        self._pending: dict[str, int] = dict(table)
        # recLSN order for the background drain: oldest chains first, so
        # the truncation horizon advances as fast as the drain does.
        self._order = sorted(table, key=lambda p: (table[p], p))
        self._cursor = 0
        self._components = index.components()
        self.pages_replayed = 0
        self.records_fetched = 0
        self.closed = False
        method.machine.pool.page_fault = self.fault

    # -- observation (lock-free: reads are single attribute/len peeks) --

    @property
    def done(self) -> bool:
        """No pages left (drained, or abandoned via :meth:`close`)."""
        return self.closed or not self._pending

    def backlog(self) -> int:
        """Pages still awaiting replay (0 once closed)."""
        return 0 if self.closed else len(self._pending)

    # -- replay entry points -------------------------------------------

    def fault(self, page_id: str) -> bool:
        """First-access replay, called by ``BufferPool.get_page`` under
        the pool mutex (= :attr:`lock`).  Replays the page's conflict
        group and reports whether anything was pending.  Re-entrant
        faults from inside a replay (the replay's own page reads) find
        their pages already popped and fall through.
        """
        if self.closed or page_id not in self._pending:
            return False
        self._replay_group(page_id)
        self._finish_if_drained()
        return True

    def step(self) -> bool:
        """Retire the next pending group in recLSN order; False when
        nothing is left (the drainer thread's loop condition)."""
        with self.lock:
            if self.closed:
                return False
            while self._cursor < len(self._order):
                page_id = self._order[self._cursor]
                self._cursor += 1
                if page_id in self._pending:
                    self._replay_group(page_id)
                    self._finish_if_drained()
                    return True
            self._finish_if_drained()
            return False

    def drain(self, watch: Callable | None = None) -> None:
        """Replay everything still pending, synchronously.  ``watch``
        wraps each fetched segment run (eager recovery passes its
        ``recovery.segment`` spans)."""
        with self.lock:
            while not self.closed and self._pending:
                self._replay_group(next(iter(self._pending)), watch)
            self._finish_if_drained()

    def close(self) -> None:
        """Abandon the backlog (crash/shutdown): detach the fault hook
        and drop pending pages — their records stay in the log for the
        next incarnation's analysis."""
        with self.lock:
            self.closed = True
            self._detach()

    # -- internals ------------------------------------------------------

    def _replay_group(self, page_id: str, watch: Callable | None = None) -> None:
        members = self._components.get(page_id)
        group = [m for m in members if m in self._pending] if members else [page_id]
        merged: dict[int, tuple] = {}
        for member in group:
            # Popped before any replay, so the replay's own page reads
            # fall through the fault hook.  A multi-page record sits in
            # every written member's chain; keyed by LSN, it replays once.
            for entry in self.index.chain(member, self._pending.pop(member)):
                merged[entry[2]] = entry
        # A group as large as the whole log (generalized's single
        # component can be) still keeps one segment's records resident.
        fetch = self.method.machine.log.fetch_chain
        for run in _segment_runs(merged[lsn] for lsn in sorted(merged)):
            records = fetch(run)
            replay(self.method, records if watch is None else watch(records))
            self.records_fetched += len(records)
        self.pages_replayed += len(group)

    def _finish_if_drained(self) -> None:
        if not self._pending and not self.closed:
            self.closed = True
            self._detach()

    def _detach(self) -> None:
        pool = self.method.machine.pool
        if pool.page_fault == self.fault:
            pool.page_fault = None
        _release_segment_maps(self.method)


def _release_segment_maps(method: "RecoveryMethodKV") -> None:
    """A finished plan fetches no more chains: unmap the segments its
    chain reads mapped, so the recovered store holds none for life."""
    store = method.machine.log.store
    if store is not None:
        store.release_maps()


class SuffixLazyPlan:
    """Logical recovery's lazy plan: one chain, drained on first touch.

    ``entries`` is the global logical chain (everything after the root
    pointer's checkpoint LSN); ``backlog`` counts its remaining records.
    :meth:`step` replays one batch (the background drainer's unit);
    :meth:`drain` is the foreground gate — re-entrant calls from inside
    a replayed record's own page access are absorbed by the ``_active``
    latch, because the outer drain is already consuming the suffix in
    LSN order.
    """

    BATCH = 64

    def __init__(
        self,
        method: "RecoveryMethodKV",
        entries: list[tuple[int, int, int]],
    ):
        self.method = method
        self.lock = method.machine.pool.mutex
        self._entries = entries
        self._cursor = 0
        self._active = False
        self.records_fetched = 0
        self.closed = False

    @property
    def done(self) -> bool:
        return self.closed or self._cursor >= len(self._entries)

    def backlog(self) -> int:
        """Records still awaiting replay (0 once closed)."""
        return 0 if self.closed else len(self._entries) - self._cursor

    def step(self) -> bool:
        """Replay one batch; False when the suffix is exhausted."""
        with self.lock:
            if self.done or self._active:
                return False
            self._replay_batch()
            return True

    def drain(self) -> None:
        """Replay the whole remaining suffix (the foreground gate)."""
        with self.lock:
            if self._active:
                return
            while not self.done:
                self._replay_batch()

    def close(self) -> None:
        """Abandon the rest of the suffix (crash/shutdown)."""
        with self.lock:
            self.closed = True
            _release_segment_maps(self.method)

    def _replay_batch(self) -> None:
        batch = self._entries[self._cursor : self._cursor + self.BATCH]
        self._active = True
        try:
            for run in _segment_runs(batch):
                replay(self.method, self.method.machine.log.fetch_chain(run))
        finally:
            self._active = False
        # Counted only once replayed: until then ``done`` stays False, so
        # a reader's gate waits on the lock instead of reading stale pages.
        self._cursor += len(batch)
        self.records_fetched += len(batch)
        if self.done:
            _release_segment_maps(self.method)
