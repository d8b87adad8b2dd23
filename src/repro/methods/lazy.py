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
- **Multi-page records** (§6.4) read pages other records write — the
  only conflict edges between chains.  A touched page replays its
  *ancestry*, merged in LSN order: its own chain, the prefix of every
  chain its records read (wr) or share (ww), and every reader that must
  replay before one of those prefixes moves past it (rw).  So a replayed
  read sees its page at exactly the record's LSN, and the schedule stays
  conflict-order consistent; everything outside the ancestry commutes
  with it (Corollary 5 applied to the page-partitioned conflict graph).

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

from bisect import bisect_left, bisect_right
from itertools import groupby
from math import inf
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.logmgr import PageRedoIndex
from repro.logmgr.codec import PAYLOAD_MULTIPAGE
from repro.logmgr.pageindex import ENTRY_LSN
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
    checkpoint.  Corollary 4, page by page: a disk that a crashed
    diskless start left behind trusts no checkpoint it never saw.  A
    page it lacks replays from its chain's head.  Where multi-page
    records split chains into ancestry prefixes, that start can also
    have written a page replayed only part way, so there the stored
    page's LSN bounds what is installed whatever the checkpoint says.
    """
    log, disk = method.machine.log, method.machine.disk
    checkpoint_lsn = -1 if full_scan else log.last_stable_checkpoint_lsn
    table: dict[str, int] = {}  # the checkpoint's dirty page table
    if checkpoint_lsn >= 0:
        table = dict(*log.entry(checkpoint_lsn).payload.data[1:])
    index = log.page_index()
    if index.edges:
        method.refuse_unreplayed(PAYLOAD_MULTIPAGE)
    # Without multi-page edges no replay writes a page part way, so a
    # stored page holds everything the checkpoint claims for it.
    whole_pages, cursors = not index.edges, {}
    for page_id in index.data_pages():
        installed = disk.page_lsn(page_id)
        start = checkpoint_lsn + 1
        if installed < checkpoint_lsn and (installed < 0 or not whole_pages):
            start = installed + 1
        chain, position = index.cursor(page_id, min(table.get(page_id, start), start))
        if position < len(chain):
            cursors[page_id] = chain, position
    redo_start = min(
        (chain[position][2] for chain, position in cursors.values()),
        default=checkpoint_lsn + 1,
    )
    plan = PagewiseLazyPlan(method, index, cursors)
    return plan, {"redo_start": redo_start, "dirty_pages": len(cursors)}


def _segment_runs(entries):
    """Chain entries (LSN ascending) cut into per-segment runs, the unit
    :meth:`~repro.logmgr.manager.LogManager.fetch_chain` reads."""
    return (list(run) for _base, run in groupby(entries, key=itemgetter(0)))


class PagewiseLazyPlan:
    """The pending-replay state of one page-granular restart.

    ``cursors`` maps each pending page to its index chain and the
    position its replay starts at.  A fault on a page replays its
    *ancestry* (:meth:`_ancestry`): the smallest chain prefixes the page
    depends on, merged in global LSN order, fetched through
    :meth:`~repro.logmgr.manager.LogManager.fetch_chain` and fed to
    :func:`~repro.methods.redo.replay` (the method's own
    ``redo_record``, LSN test included).  A page stays faultable while
    its chain or a record that reads it is pending.

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
        cursors: dict[str, tuple[list, int]],
    ):
        self.method = method
        self.lock = method.machine.pool.mutex
        # page -> (its index chain, the first position not yet replayed)
        self._cursors = dict(cursors)
        # recLSN order for the background drain: oldest chains first, so
        # the truncation horizon advances as fast as the drain does.
        self._order = sorted(
            cursors, key=lambda p: (cursors[p][0][cursors[p][1]][2], p)
        )
        self._next = 0
        # The multi-page records by LSN, and each page's readers' LSNs.
        self._edges = {lsn: (reads, writes) for lsn, reads, writes in index.edges}
        self._readers: dict[str, list[int]] = {}
        for lsn, reads, _writes in index.edges:
            for page_id in reads:
                self._readers.setdefault(page_id, []).append(lsn)
        self._replaying = False
        self.pages_replayed = 0
        self.records_fetched = 0
        self.closed = False
        method.machine.pool.page_fault = self.fault

    # -- observation (lock-free: reads are single attribute/len peeks) --

    @property
    def done(self) -> bool:
        """No pages left (drained, or abandoned via :meth:`close`)."""
        return self.closed or not self._cursors

    def backlog(self) -> int:
        """Pages still awaiting replay (0 once closed)."""
        return 0 if self.closed else len(self._cursors)

    # -- replay entry points -------------------------------------------

    def fault(self, page_id: str) -> bool:
        """First-access replay, called by ``BufferPool.get_page`` under
        the pool mutex (= :attr:`lock`).  Replays the page's ancestry and
        reports whether anything was pending: its chain or a reader of it.
        Faults that re-enter from inside a replay (its own page reads)
        fall through: the ancestry being replayed holds what they need.
        """
        pending = page_id in self._cursors or page_id in self._readers
        if self.closed or self._replaying or not pending:
            return False
        self._replay_ancestry(page_id)
        self._finish_if_drained()
        return True

    def step(self) -> bool:
        """Retire the next pending page in recLSN order, with its
        ancestry; False when nothing is left (the drainer thread's loop
        condition)."""
        with self.lock:
            if self.done:
                self._finish_if_drained()
                return False
            self._replay_ancestry(self._next_pending())
            self._finish_if_drained()
            return True

    def drain(self, watch: Callable | None = None) -> None:
        """Replay everything still pending, synchronously, in the same
        recLSN order as :meth:`step`.  ``watch`` wraps each fetched
        segment run (eager recovery passes its ``recovery.segment``
        spans)."""
        with self.lock:
            while not self.done:
                self._replay_ancestry(self._next_pending(), watch)
            self._finish_if_drained()

    def close(self) -> None:
        """Abandon the backlog (crash/shutdown): detach the fault hook
        and drop pending pages — their records stay in the log for the
        next incarnation's analysis."""
        with self.lock:
            self.closed = True
            self._detach()

    # -- internals ------------------------------------------------------

    def _next_pending(self) -> str:
        while self._order[self._next] not in self._cursors:
            self._next += 1
        return self._order[self._next]

    def _ancestry(self, page_id: str) -> dict[str, int]:
        """Page -> the chain position a replay of ``page_id`` must reach:
        the smallest per-page chain prefixes closed under the conflict
        edges the multi-page records add.  For each multi-page record in
        them, every page it reads is covered strictly below its LSN (wr),
        every page it writes up to and including it (ww), and every
        reader of a covered page that precedes a covered write of it is
        pulled in too (rw), as is every reader of ``page_id``, which the
        caller may write next.  Pages not pending are skipped.
        """
        cursors, edges, readers = self._cursors, self._edges, self._readers
        reach: dict[str, int] = {}
        work = [(page_id, inf)]  # (page, cover every entry with LSN < bound)
        for lsn in readers.pop(page_id, ()):
            work.extend((write, lsn + 1) for write in edges[lsn][1])
        while work:
            page, bound = work.pop()
            cursor = cursors.get(page)
            if cursor is None:
                continue
            chain, position = cursor
            reached = reach.get(page, position)
            stop = bisect_left(chain, bound, lo=reached, key=ENTRY_LSN)
            if stop <= reached:
                continue
            reach[page] = stop
            for _base, _offset, lsn in chain[reached:stop]:
                edge = edges.get(lsn)
                if edge is not None:
                    work.extend((read, lsn) for read in edge[0])
                    work.extend((write, lsn + 1) for write in edge[1])
            lsns = readers.get(page)
            if lsns:
                after = chain[reached - 1][2] if reached else -1
                first = bisect_right(lsns, after)
                last = bisect_left(lsns, chain[stop - 1][2], lo=first)
                for lsn in lsns[first:last]:
                    work.extend((write, lsn + 1) for write in edges[lsn][1])
        return reach

    def _replay_ancestry(self, page_id: str, watch: Callable | None = None) -> None:
        merged: dict[int, tuple] = {}
        for page, stop in self._ancestry(page_id).items():
            chain, position = self._cursors[page]
            # A multi-page record sits in every written page's chain;
            # keyed by LSN, it replays once, and every cursor moves past.
            for entry in chain[position:stop]:
                merged[entry[2]] = entry
            if stop == len(chain):
                del self._cursors[page]
                self.pages_replayed += 1
            else:
                self._cursors[page] = (chain, stop)
        fetch = self.method.machine.log.fetch_chain
        self._replaying = True
        try:
            for run in _segment_runs(merged[lsn] for lsn in sorted(merged)):
                records = fetch(run)
                replay(self.method, records if watch is None else watch(records))
                self.records_fetched += len(records)
        finally:
            self._replaying = False

    def _finish_if_drained(self) -> None:
        if not self._cursors and not self.closed:
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
