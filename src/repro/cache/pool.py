"""The buffer pool, driven by the §5 install scheduler.

Pages live in the pool as mutable working copies; the disk holds the last
flushed image of each.  Flushing is the *install* operation of the
theory: it atomically moves a page's accumulated updates into stable
state.  Every flush decision — what may go, in what order, what may be
skipped — is answered by one structure, the pool's
:class:`~repro.cache.scheduler.InstallScheduler`, a live write graph with
one uninstalled node per dirty page:

- **WAL** is install's stable-LSN side condition: a page whose node
  carries LSN n installs only once the log is stable through n (the log
  manager's ``ensure_stable`` gate, which forces rather than fails).
- **FlushConstraint** is just the graph's *add-edge* view: registering
  one adds an ordering edge bound to the first page's current node
  generation, so a flush that happened before registration never
  satisfies it retroactively.
- **Flush elision** is *remove-write*: a dirty page whose content equals
  its disk image needs no IO — replaying its pending records against
  that identical stable image regenerates the identical state — so the
  node retires without a page write.  Elision does not stamp the page
  LSN on disk, so it is taken only when every pending record of the
  node reads only that page (no outgoing ordering edge); a flush made
  to honour an ordering is always a real write.
- **Victim selection** is graph-driven: clean frames first (no install
  needed at all), then minimal uninstalled nodes (installable without
  prerequisite IO); recency (LRU) breaks ties within each tier.

**Concurrency contract.**  Every public method runs under the pool's
re-entrant :attr:`mutex`, held across whole check-then-act sequences
(victim selection through flush, elision check through remove-write), so
concurrent ``execute()`` callers never see a frame between states.  Lock
order is pool -> scheduler -> log manager; the log manager never calls
back into the pool, so the order is acyclic.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator

from repro.cache.scheduler import InstallScheduler, SchedulerCycleError
from repro.logmgr.manager import LogManager
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage.disk import Disk
from repro.storage.page import Page


class CachePolicyError(RuntimeError):
    """An operation violated a cache discipline (ordering, no-steal...)."""


class FlushConstraint:
    """``first_page`` must be flushed before ``then_page`` may be.

    A live view over one scheduler edge: the constraint is discharged
    exactly when that edge is gone — i.e. when the first page's node
    *generation current at registration time* (or a later one it
    collapsed into) installed.  A constraint created for an ordering the
    pool resolved eagerly (cycle avoidance) is born discharged.
    """

    def __init__(
        self,
        first_page: str,
        then_page: str,
        scheduler: InstallScheduler | None = None,
        edge: tuple[int, int] | None = None,
    ):
        self.first_page = first_page
        self.then_page = then_page
        self._scheduler = scheduler
        self._edge = edge

    @property
    def discharged(self) -> bool:
        if self._edge is None or self._scheduler is None:
            return True
        return not self._scheduler.has_edge_ids(*self._edge)

    def __repr__(self) -> str:
        state = "discharged" if self.discharged else "pending"
        return f"FlushConstraint({self.first_page!r} -> {self.then_page!r}, {state})"


class _Frame:
    __slots__ = ("page", "dirty", "pinned")

    def __init__(self, page: Page):
        self.page = page
        self.dirty = False
        self.pinned = 0


class BufferPool:
    """A fixed-capacity page cache over a :class:`Disk`."""

    def __init__(
        self,
        disk: Disk,
        log_manager: LogManager | None = None,
        capacity: int = 64,
        steal: bool = True,
        tracer: Tracer | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.disk = disk
        self.log_manager = log_manager
        self.capacity = capacity
        self.steal = steal
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.scheduler = InstallScheduler(tracer=self.tracer)
        # Guards the frame map and every flush/eviction decision;
        # re-entrant because flush_all -> _flush_with_prerequisites ->
        # flush_page all re-enter.
        self.mutex = threading.RLock()
        self._frames: dict[str, _Frame] = {}  # insertion order = LRU order
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.evictions = 0
        # Optional observer invoked with a page id after every install
        # (disk write or elision) — for tests and instrumentation.
        self.on_flush: Callable[[str], None] | None = None
        # Optional fault handler consulted on every page access, under
        # the pool mutex, *before* the frame/disk lookup — a lazy
        # restart installs its per-page replay here so a page's first
        # access redoes its log chain before anything reads the stale
        # disk image.  The handler detaches itself (sets this back to
        # None) once its backlog drains.
        self.page_fault: Callable[[str], bool] | None = None

    # ------------------------------------------------------------------
    # Page access
    # ------------------------------------------------------------------

    def get_page(self, page_id: str, create: bool = False) -> Page:
        """The pool's working copy of ``page_id`` (loaded on miss).

        With ``create=True`` a missing page springs into existence empty
        (the disk image appears at first flush).  The returned object is
        the pool's own copy: mutate it, then call :meth:`mark_dirty`, or
        use :meth:`update` which does both.
        """
        with self.mutex:
            return self._frame(page_id, create).page

    def update(self, page_id: str, mutate: Callable[[Page], None], create: bool = False) -> Page:
        """Fetch, mutate, and mark dirty in one step, under one
        acquisition of the mutex.

        The page is pinned for the duration of ``mutate``: a mutator that
        reads other pages (a split-move does) can trigger evictions, and
        the page under mutation must not be the victim.
        """
        with self.mutex:
            frame = self._frame(page_id, create)
            frame.pinned += 1
            try:
                mutate(frame.page)
                frame.dirty = True
                self.scheduler.collapse(page_id, frame.page.lsn)
            finally:
                frame.pinned -= 1
            return frame.page

    def _frame(self, page_id: str, create: bool) -> _Frame:
        """The frame of ``page_id``, touched to the MRU end, or admitted
        on a miss.  The caller holds the mutex."""
        if self.page_fault is not None:
            # Lazy-restart hook: replay this page's log chain first, so
            # the lookup below sees the recovered image.  The handler's
            # own page accesses re-enter here and fall through.
            self.page_fault(page_id)
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            # Reinsert to move to the MRU end of the ordered dict.
            del self._frames[page_id]
            self._frames[page_id] = frame
            return frame
        self.misses += 1
        if self.disk.has_page(page_id):
            page = self.disk.read_page(page_id)
        elif create:
            page = Page(page_id)
        else:
            raise KeyError(f"page {page_id!r} neither cached nor on disk")
        return self._admit(page)

    def mark_dirty(self, page_id: str) -> None:
        """Record that the cached copy of ``page_id`` differs from disk.

        This is the scheduler's *collapse*: the update merges into the
        page's live write-graph node (created on the first update of a
        generation), carrying the page's LSN tag as recLSN/lastLSN.
        """
        with self.mutex:
            frame = self._frames[page_id]
            frame.dirty = True
            self.scheduler.collapse(page_id, frame.page.lsn)

    def is_dirty(self, page_id: str) -> bool:
        """Is ``page_id`` cached with unflushed changes?"""
        with self.mutex:
            frame = self._frames.get(page_id)
            return frame is not None and frame.dirty

    def is_cached(self, page_id: str) -> bool:
        """Is ``page_id`` resident in the pool?"""
        with self.mutex:
            return page_id in self._frames

    def dirty_page_ids(self) -> list[str]:
        """Sorted ids of every dirty cached page."""
        with self.mutex:
            return sorted(
                pid for pid, frame in self._frames.items() if frame.dirty
            )

    def pin(self, page_id: str) -> None:
        """Forbid eviction of ``page_id`` until unpinned (counted)."""
        with self.mutex:
            self._frames[page_id].pinned += 1

    def unpin(self, page_id: str) -> None:
        """Release one pin on ``page_id``."""
        with self.mutex:
            frame = self._frames[page_id]
            if frame.pinned == 0:
                raise CachePolicyError(f"page {page_id!r} is not pinned")
            frame.pinned -= 1

    # ------------------------------------------------------------------
    # Flush ordering constraints (= write-graph add-edge)
    # ------------------------------------------------------------------

    def add_flush_constraint(self, first_page: str, then_page: str) -> FlushConstraint:
        """Require ``first_page`` to reach disk before ``then_page`` may.

        Pure *add-edge*: the scheduler binds the ordering to the first
        page's current node generation — if that page is clean, an empty
        obligation node is created, so only a *future* flush of it can
        discharge the constraint (never one that already happened).  If
        the edge would close a cycle the pool resolves it the way real
        systems do: flush ``first_page`` right now (with its own
        prerequisites), so the obligation is already met and no edge is
        needed — the acyclicity side condition, operationalized.  That
        flush is a real write, never an elision: the ordering it honours
        has no edge for the elision check to see.
        """
        with self.mutex:
            try:
                edge = self.scheduler.add_edge(first_page, then_page)
            except SchedulerCycleError:
                self._flush_with_prerequisites(first_page, elide=False)
                return FlushConstraint(first_page, then_page)
            return FlushConstraint(first_page, then_page, self.scheduler, edge)

    def pending_constraints(self) -> list[FlushConstraint]:
        """Every live ordering edge, as constraint views."""
        return [
            FlushConstraint(first, then, self.scheduler, edge)
            for first, then, edge in self.scheduler.pending_edges()
        ]

    # ------------------------------------------------------------------
    # Flushing (= installing)
    # ------------------------------------------------------------------

    def wal_check(self, page_lsn: int) -> None:
        """The write-ahead rule as install's stable-LSN side condition:
        delegate to the log manager's :meth:`~repro.logmgr.manager.LogManager.ensure_stable`
        gate, which forces the segment holding ``page_lsn`` if needed and
        raises only if even a forced flush could not cover the LSN (a
        genuinely torn protocol, e.g. a page tagged with a never-appended
        LSN)."""
        self.log_manager.ensure_stable(page_lsn)

    def flush_page(self, page_id: str, force: bool = False, elide: bool = True) -> None:
        """Install the cached page: WAL gate, ordering check, disk write.

        If the dirty page's content already equals its disk image and
        no other page is ordered after it, the write is *elided* (the
        scheduler's remove-write): replaying the page's pending records
        against that identical stable image regenerates the identical
        state, so skipping the IO preserves recoverability exactly.  A
        page with dependents takes the real write: its pending records
        read those pages, and only a stamped page LSN takes them out of
        the redo set.  ``elide=False`` is for a flush made to honour an
        ordering no edge records.  ``force=True`` bypasses the ordering
        check — it exists solely for the ablation experiments that
        demonstrate recovery breaking when careful write ordering is
        violated.
        """
        with self.mutex:
            frame = self._frames.get(page_id)
            if frame is None or not frame.dirty:
                return
            scheduler = self.scheduler
            if not force and not scheduler.is_minimal(page_id):
                blockers = scheduler.blockers(page_id)
                if self.tracer.enabled:
                    self.tracer.event(
                        "cache.flush_blocked", page=page_id, blockers=blockers
                    )
                raise CachePolicyError(
                    f"flush of {page_id!r} blocked until {blockers} flushed "
                    f"(careful write ordering)"
                )
            if (
                elide
                and not force
                and not scheduler.has_dependents(page_id)
                and self.disk.holds(frame.page)
            ):
                # Remove-write: content already stable; no IO needed.
                node = scheduler.remove_write(page_id)
                frame.dirty = False
                if self.tracer.enabled:
                    self.tracer.event(
                        "cache.elide",
                        page=page_id,
                        node=node.node_id if node is not None else None,
                        reason="content_equals_disk",
                    )
            else:
                if self.log_manager is not None and frame.page.lsn >= 0:
                    self.wal_check(frame.page.lsn)
                self.disk.write_page(frame.page)
                frame.dirty = False
                self.flushes += 1
                node = self.scheduler.install(page_id, force=True)
                if self.tracer.enabled:
                    self.tracer.event(
                        "cache.flush",
                        page=page_id,
                        lsn=frame.page.lsn,
                        node=node.node_id if node is not None else None,
                        writes=node.writes if node is not None else 0,
                        forced=force,
                    )
            if self.on_flush is not None:
                self.on_flush(page_id)

    def flush_all(self) -> None:
        """Flush every dirty page, in a constraint-respecting order."""
        with self.mutex:
            for page_id in self.dirty_page_ids():
                if self.is_dirty(page_id):  # may have been flushed as a prereq
                    self._flush_with_prerequisites(page_id)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def _admit(self, page: Page) -> _Frame:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        frame = self._frames[page.page_id] = _Frame(page=page)
        return frame

    def _evict_one(self) -> None:
        victim_id, tier = self._choose_victim()
        frame = self._frames[victim_id]
        if self.tracer.enabled:
            self.tracer.event(
                "cache.victim", page=victim_id, tier=tier, dirty=frame.dirty
            )
        if frame.dirty:
            if not self.steal:
                raise CachePolicyError(
                    f"no-steal pool is full of dirty pages (victim {victim_id!r})"
                )
            self._flush_with_prerequisites(victim_id)
        del self._frames[victim_id]
        self.evictions += 1

    def _flush_with_prerequisites(
        self, page_id: str, _seen: set | None = None, elide: bool = True
    ) -> None:
        """Flush ``page_id`` (a real write when ``elide`` is False),
        first flushing any pages the write graph orders before it.

        ``_seen`` marks pages already handled in this pass — duplicate
        prerequisites are common and must not recurse forever.  Genuine
        cycles cannot arise: the scheduler's add-edge refuses them (and
        :meth:`add_flush_constraint` then flushes eagerly instead),
        mirroring the write graph's acyclicity side condition.  A
        prerequisite that is *clean* (an empty obligation node) cannot
        be discharged by flushing it — only a future re-dirty-and-flush
        can — so the dependent page's flush will raise, which is the
        correct refusal (the old bookkeeping wrongly discharged it).
        """
        seen = _seen if _seen is not None else set()
        if page_id in seen:
            return
        seen.add(page_id)
        for first in self.scheduler.blockers(page_id):
            self._flush_with_prerequisites(first, seen)
        self.flush_page(page_id, elide=elide)

    def _choose_victim(self) -> tuple[str, str]:
        """Pick an eviction victim; returns ``(page_id, tier)`` where the
        tier names the rule that selected it (traced as ``cache.victim``)."""
        # Graph-driven selection: a clean frame needs no install at all
        # — evicting it costs zero IO; failing that, a minimal
        # uninstalled node (no live predecessors) installs without
        # dragging prerequisite flushes along.  Recency (the frame map's
        # LRU order) breaks ties within each tier.
        fallback = None
        for page_id, frame in self._frames.items():
            if not frame.pinned:
                if not frame.dirty:
                    return page_id, "clean_frame"
                if fallback is None:
                    fallback = page_id
        if fallback is None:
            raise CachePolicyError("every cached page is pinned; cannot evict")
        for page_id, frame in self._frames.items():
            if not frame.pinned and self.scheduler.is_minimal(page_id):
                return page_id, "minimal_node"
        return fallback, "fallback"

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose every cached page and the whole write graph (volatile)."""
        with self.mutex:
            self._frames.clear()
            self.scheduler.reset()

    def cached_page_ids(self) -> list[str]:
        """Sorted ids of every resident page."""
        with self.mutex:
            return sorted(self._frames)

    def __iter__(self) -> Iterator[Page]:
        # The resident pages as of the call, listed under the mutex: an
        # eviction racing the iteration cannot pull a page out from under it.
        with self.mutex:
            return iter([self._frames[page_id].page for page_id in sorted(self._frames)])

    def __repr__(self) -> str:
        return (
            f"BufferPool(cached={len(self._frames)}/{self.capacity}, "
            f"dirty={len(self.dirty_page_ids())})"
        )
