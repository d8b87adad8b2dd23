"""The install scheduler: a live §5 write graph over buffer-pool pages.

The paper's §5 write graphs are what a cache manager *is*, seen
abstractly: one uninstalled node per cached dirty page (the page's
accumulated, not-yet-stable updates), edges for careful write orderings,
and exactly four ways the graph may evolve —

- **collapse**: a new update to an already-dirty page merges into the
  page's node (one copy per page, last-writer-wins), and a first update
  to a clean page starts a fresh node;
- **add an edge**: a flush-ordering obligation ``first -> then`` (§6.4
  careful write ordering, Figure 8's new-B-tree-page-before-old); the
  side condition is acyclicity, and the scheduler refuses cycles so the
  pool can resolve them by eager flushing;
- **install**: the page write itself — permitted only when the node has
  no live predecessors (its ordering obligations are met) and some write
  backs it; installing discharges the node's outgoing edges;
- **remove a write**: flush *elision* — a node whose page content the
  disk already holds can be dropped without IO, because replaying its
  records against that identical image regenerates the same state (the
  unexposed-write optimization at page granularity).  The page LSN on
  disk does not move, so those records stay in the redo set: this is
  sound exactly when every one of them reads only that page, i.e. the
  node has no outgoing ordering edge.

:class:`InstallScheduler` is the **single authority** the buffer pool,
the recovery methods, and the auditors consult: what may be flushed
(:meth:`blockers`), in what order (the edge set), what may be skipped
(:meth:`remove_write`), and what is still dirty and since when
(:meth:`rec_lsns` — the dirty page table of §4.3 analysis, read straight
off the live graph instead of parallel bookkeeping).

Node *generations* fix the retroactive-discharge bug: an edge binds to
the first page's current node.  If the first page is clean when the edge
is added, an empty **obligation node** (``writes == 0``) is created; it
cannot be installed — no page write backs it — so the obligation
discharges only when the page is dirtied again and that new content
reaches disk.  A flush that happened *before* the edge was registered
never satisfies it.

**Concurrency contract.**  Every mutation (the four §5 transformations)
and every compound query runs under the scheduler's re-entrant mutex,
so concurrent ``execute()`` callers see the graph transition atomically
from one legal state to the next — a half-added edge or a half-retired
node is never observable.  The mutex is exposed as :attr:`mutex` so the
buffer pool can hold it across its own check-then-act sequences (victim
selection, elision checks) instead of re-deriving them from stale
answers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.trace import NULL_TRACER, Tracer


class SchedulerError(RuntimeError):
    """A §5 side condition was violated."""


class SchedulerCycleError(SchedulerError):
    """Adding the requested edge would close a cycle (add-edge side
    condition); the caller resolves by installing the source first."""


@dataclass
class PageNode:
    """One uninstalled write-graph node: a page's pending updates.

    ``rec_lsn`` is the LSN of the first update collapsed into this
    generation (the §4.3 recLSN); ``last_lsn`` the latest, which is what
    the WAL gate must cover before install.  ``writes`` counts collapsed
    updates — zero marks an obligation node created by add-edge against
    a clean page, which no page write backs and no install may remove.
    """

    node_id: int
    page_id: str
    rec_lsn: int = -1
    last_lsn: int = -1
    writes: int = 0
    installed: bool = False

    def __repr__(self) -> str:
        flag = "*" if self.installed else ""
        return (
            f"PageNode(#{self.node_id}{flag} {self.page_id!r} "
            f"rec={self.rec_lsn} last={self.last_lsn} writes={self.writes})"
        )


@dataclass
class SchedulerStats:
    """Counters for benchmarks: how the graph evolved."""

    installs: int = 0
    collapses: int = 0
    elisions: int = 0
    edges_added: int = 0
    cycles_refused: int = 0

    def as_dict(self) -> dict[str, int]:
        """Return the counters as a plain dict for reports and benches."""
        return dict(vars(self))


class InstallScheduler:
    """The live write graph of a buffer pool (uninstalled nodes only).

    The installed prefix is implicit: installed nodes are *removed* —
    their effects live on the disk, which is the prefix's determined
    state.  What remains is the uninstalled suffix, which is exactly
    what flush decisions need.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self._live: dict[str, PageNode] = {}  # page_id -> its one live node
        self._nodes: dict[int, PageNode] = {}  # node_id -> node
        self._preds: dict[int, set[int]] = {}
        self._succs: dict[int, set[int]] = {}
        self._next_id = 0
        self.stats = SchedulerStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Guards every mutation and compound query; re-entrant so the
        # pool can hold it across its own check-then-act sequences.
        self.mutex = threading.RLock()

    # ------------------------------------------------------------------
    # The four §5 transformations
    # ------------------------------------------------------------------

    def collapse(self, page_id: str, lsn: int = -1) -> PageNode:
        """*Collapse*: merge one more update into ``page_id``'s node.

        Creates the node if the page has no live one (first update of a
        generation); otherwise merges, keeping the earliest ``rec_lsn``
        and the latest ``last_lsn`` — the cache's one-copy-per-page rule
        as the §5 collapse of the update's singleton node into the
        page's node.
        """
        with self.mutex:
            node = self._live.get(page_id)
            if node is None:
                node = self._new_node(page_id)
            else:
                self.stats.collapses += 1
            node.writes += 1
            if lsn >= 0:
                if node.rec_lsn < 0:
                    node.rec_lsn = lsn
                node.last_lsn = max(node.last_lsn, lsn)
            return node

    def add_edge(self, first_page: str, then_page: str) -> tuple[int, int]:
        """*Add an edge*: ``first_page``'s current node must install
        before ``then_page``'s may.

        Endpoints that have no live node get an empty obligation node
        (see module docstring) — this is what makes the constraint bind
        to the *future* flush of ``first_page`` rather than being
        retroactively satisfied by one that already happened.  Raises
        :class:`SchedulerCycleError` when the edge would close a cycle
        (the §5 acyclicity side condition); the pool resolves that by
        installing ``first_page`` eagerly instead.

        Returns the ``(first_node_id, then_node_id)`` edge key, whose
        continued presence is the constraint's not-yet-discharged state.
        """
        if first_page == then_page:
            raise SchedulerCycleError(
                f"self-ordering of {first_page!r} would be a cycle"
            )
        with self.mutex:
            first = self._live.get(first_page) or self._new_node(first_page)
            then = self._live.get(then_page) or self._new_node(then_page)
            if first.node_id in self._succs and self._reaches(
                then.node_id, first.node_id
            ):
                self.stats.cycles_refused += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "scheduler.cycle_refused", first=first_page, then=then_page
                    )
                raise SchedulerCycleError(
                    f"edge {first_page!r} -> {then_page!r} would close a cycle"
                )
            if then.node_id not in self._succs[first.node_id]:
                self._succs[first.node_id].add(then.node_id)
                self._preds[then.node_id].add(first.node_id)
                self.stats.edges_added += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "scheduler.add_edge",
                        first=first_page,
                        then=then_page,
                        first_node=first.node_id,
                        then_node=then.node_id,
                    )
            return (first.node_id, then.node_id)

    def install(self, page_id: str, force: bool = False) -> PageNode | None:
        """*Install*: the page write happened; retire the node.

        Side conditions: no live predecessor (every ordering obligation
        met — ``force`` bypasses this for the ablation experiments, like
        the pool's forced flush it mirrors), and at least one write backs
        the node — an empty obligation node corresponds to no page image
        and can only discharge through a future real flush.  Discharges
        the node's outgoing edges.  Returns the retired node (None if
        the page had no live node: a clean-page flush is a no-op).
        """
        with self.mutex:
            node = self._live.get(page_id)
            if node is None:
                return None
            if node.writes == 0:
                raise SchedulerError(
                    f"page {page_id!r} has only an empty ordering obligation; "
                    f"no page write exists to install it"
                )
            if not force:
                blocking = self._preds[node.node_id]
                if blocking:
                    pages = sorted(self._nodes[b].page_id for b in blocking)
                    raise SchedulerError(
                        f"cannot install {page_id!r}: predecessors {pages} are live"
                    )
            self._retire(node)
            node.installed = True
            self.stats.installs += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "scheduler.install",
                    page=page_id,
                    node=node.node_id,
                    writes=node.writes,
                    rec_lsn=node.rec_lsn,
                    last_lsn=node.last_lsn,
                    forced=force,
                )
            return node

    def remove_write(self, page_id: str) -> PageNode | None:
        """*Remove a write*: elide the flush of ``page_id`` entirely.

        The caller (the pool) has established the content half of the
        side condition: the cached image equals the disk image, so
        replaying the node's records against it regenerates the same
        state.  The graph half is checked here.  No live predecessor, as
        for install (an ordered-before obligation is not dischargeable
        by skipping) — and no live *successor*: elision does not advance
        the stable page LSN, so the node's records stay in the redo set,
        and an outgoing edge says one of them reads the successor page;
        discharging it would let that page install a later overwrite
        for the record to mis-read at replay.  Elision is sound exactly
        when every pending record of the node reads only its own page;
        otherwise the pool takes the real write, which stamps the LSN.
        """
        with self.mutex:
            node = self._live.get(page_id)
            if node is None:
                return None
            for side, linked in (
                ("predecessors", self._preds[node.node_id]),
                ("successors", self._succs[node.node_id]),
            ):
                if linked:
                    pages = sorted(self._nodes[n].page_id for n in linked)
                    raise SchedulerError(
                        f"cannot elide {page_id!r}: {side} {pages} are live"
                    )
            self._retire(node)
            node.installed = True
            self.stats.elisions += 1
            if self.tracer.enabled:
                self.tracer.event(
                    "scheduler.remove_write",
                    page=page_id,
                    node=node.node_id,
                    writes=node.writes,
                    rec_lsn=node.rec_lsn,
                )
            return node

    # ------------------------------------------------------------------
    # Queries (what the pool and the methods consult)
    # ------------------------------------------------------------------

    def live_node(self, page_id: str) -> PageNode | None:
        """The page's current uninstalled node, if any."""
        with self.mutex:
            return self._live.get(page_id)

    def blockers(self, page_id: str) -> list[str]:
        """Pages whose live nodes must install before ``page_id`` may —
        sorted, empty when the page is flushable now."""
        with self.mutex:
            node = self._live.get(page_id)
            if node is None:
                return []
            return sorted(
                self._nodes[b].page_id for b in self._preds[node.node_id]
            )

    def is_minimal(self, page_id: str) -> bool:
        """No live predecessor: :meth:`blockers` as a boolean."""
        with self.mutex:
            node = self._live.get(page_id)
            return node is None or not self._preds[node.node_id]

    def has_dependents(self, page_id: str) -> bool:
        """Some live successor: :meth:`dependents` as a boolean."""
        with self.mutex:
            node = self._live.get(page_id)
            return node is not None and bool(self._succs[node.node_id])

    def dependents(self, page_id: str) -> list[str]:
        """Pages whose live nodes are ordered after ``page_id``'s —
        sorted, empty when nothing waits on it (the graph half of
        :meth:`remove_write`'s side condition)."""
        with self.mutex:
            node = self._live.get(page_id)
            if node is None:
                return []
            return sorted(
                self._nodes[s].page_id for s in self._succs[node.node_id]
            )

    def has_edge_ids(self, first_node_id: int, then_node_id: int) -> bool:
        """Does the edge between these node generations still exist?
        (False once discharged by install/elision or lost to a crash.)"""
        with self.mutex:
            return then_node_id in self._succs.get(first_node_id, ())

    def pending_edges(self) -> list[tuple[str, str, tuple[int, int]]]:
        """Every live ordering edge as (first_page, then_page, edge key)."""
        with self.mutex:
            result = []
            for source_id, targets in self._succs.items():
                for target_id in targets:
                    result.append(
                        (
                            self._nodes[source_id].page_id,
                            self._nodes[target_id].page_id,
                            (source_id, target_id),
                        )
                    )
            return result

    def rec_lsns(self) -> dict[str, int]:
        """The dirty page table (page -> recLSN), read off the graph.

        Obligation nodes and untagged updates carry no recLSN and are
        not the analysis pass's business, so they are omitted.
        """
        with self.mutex:
            return {
                page_id: node.rec_lsn
                for page_id, node in self._live.items()
                if node.writes > 0 and node.rec_lsn >= 0
            }

    def set_rec_lsn(self, page_id: str, lsn: int) -> None:
        """Correct a live node's recLSN (partitioned redo adopts rebuilt
        pages wholesale, where the first-replayed LSN — not the final
        page LSN the adopting update stamps — is the true recLSN)."""
        with self.mutex:
            node = self._live.get(page_id)
            if node is not None and lsn >= 0:
                node.rec_lsn = lsn
                node.last_lsn = max(node.last_lsn, lsn)

    def minimal_pages(self) -> list[str]:
        """Pages whose nodes have no live predecessors — the §5 minimal
        uninstalled nodes, i.e. everything installable right now."""
        with self.mutex:
            return sorted(
                page_id
                for page_id, node in self._live.items()
                if not self._preds[node.node_id]
            )

    def __len__(self) -> int:
        with self.mutex:
            return len(self._live)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def self_check(self) -> list[str]:
        """Structural invariants; returns problems (empty = healthy)."""
        with self.mutex:
            problems: list[str] = []
            for page_id, node in self._live.items():
                if node.page_id != page_id:
                    problems.append(
                        f"node #{node.node_id} filed under {page_id!r}"
                    )
                if node.installed:
                    problems.append(f"installed node #{node.node_id} still live")
                if node.writes > 0 and 0 <= node.last_lsn < node.rec_lsn:
                    problems.append(f"node #{node.node_id} recLSN after lastLSN")
            if len(self._nodes) != len(self._live):
                problems.append("node index and live-page index disagree")
            for source_id, targets in self._succs.items():
                for target_id in targets:
                    if target_id not in self._nodes:
                        problems.append(f"edge to retired node #{target_id}")
                    elif source_id not in self._preds[target_id]:
                        problems.append(
                            f"asymmetric edge #{source_id}->#{target_id}"
                        )
            if self._has_cycle():
                problems.append("ordering edges contain a cycle")
            return problems

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """A crash: every node and edge is volatile and lost."""
        with self.mutex:
            self._live.clear()
            self._nodes.clear()
            self._preds.clear()
            self._succs.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _new_node(self, page_id: str) -> PageNode:
        node = PageNode(node_id=self._next_id, page_id=page_id)
        self._next_id += 1
        self._live[page_id] = node
        self._nodes[node.node_id] = node
        self._preds[node.node_id] = set()
        self._succs[node.node_id] = set()
        return node

    def _retire(self, node: PageNode) -> None:
        for pred in self._preds[node.node_id]:
            self._succs[pred].discard(node.node_id)
        for succ in self._succs[node.node_id]:
            self._preds[succ].discard(node.node_id)
        del self._preds[node.node_id]
        del self._succs[node.node_id]
        del self._nodes[node.node_id]
        del self._live[node.page_id]

    def _reaches(self, source_id: int, target_id: int) -> bool:
        if source_id == target_id:
            return True
        frontier = [source_id]
        seen: set[int] = set()
        while frontier:
            current = frontier.pop()
            if current == target_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._succs.get(current, ()))
        return False

    def _has_cycle(self) -> bool:
        in_degree = {nid: len(self._preds[nid]) for nid in self._nodes}
        ready = [nid for nid, deg in in_degree.items() if deg == 0]
        removed = 0
        while ready:
            nid = ready.pop()
            removed += 1
            for succ in self._succs[nid]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        return removed != len(self._nodes)

    def __repr__(self) -> str:
        edges = sum(len(t) for t in self._succs.values())
        return f"InstallScheduler(nodes={len(self._live)}, edges={edges})"
