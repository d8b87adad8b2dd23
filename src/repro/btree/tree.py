"""The recoverable multi-level B-tree.

Layout
------
- ``btree-meta`` — one cell, ``root``: the page id of the root node.
  Root changes are logged, so recovery always finds the right root.
- node pages (``page-NNNN``) — a ``__type__`` cell (``"leaf"`` or
  ``"internal"``) plus data cells:

  * leaf: encoded key → payload;
  * internal: separator (encoded key, or ``""`` for the minimum) →
    child page id.  A separator ``s`` routes cells in ``[s, next
    separator)`` to its child.

  Keys are encoded zero-padded (``k000...123``) so lexicographic cell
  order is numeric key order; ``""`` and ``__type__`` sort below every
  encoded key, which lets the generic ``truncate`` / ``split-move``
  page actions split any node without touching its metadata cells.

Splits propagate up the tree; a root split grows the tree by one level.
Every split is logged under one of the two §6.4 disciplines:

- ``"physiological"``: the new node's contents are physically imaged
  into the log (plus single-page records for the truncation and the
  parent/meta updates);
- ``"generalized"``: one multi-page record reads the splitting node and
  writes the new node (and parent/meta), so the moved half never enters
  the log — at the price of the careful write ordering of Figure 8 (new
  page to disk before the old page is overwritten), which the tree
  registers with the buffer pool.

Recovery is LSN-based for both disciplines and runs through the one
redo kernel (:mod:`repro.methods.redo`): :meth:`BTree.redo_record` states
the tree's redo test, ``replay`` drives, counts and traces it.
Multi-page records are replayed per written page (sound because written
pages' actions read only the record's declared read pages, protected by
the constraint).

Deletions remove keys from leaves but never merge nodes (redo recovery
is orthogonal to rebalancing; underflow merging is standard engineering
the theory has nothing new to say about).
"""

from __future__ import annotations

from functools import partial
from typing import Iterator

from repro.cache import BufferPool
from repro.logmgr import (
    CheckpointRecord,
    LogRecord,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
)
from repro.methods.base import Machine, MethodStats
from repro.methods.redo import NOT_REDO, actions_on, redo_multipage, redo_page, replay
from repro.storage.page import Page

META_PAGE = "btree-meta"
TYPE_CELL = "__type__"
KEY_WIDTH = 12
FIRST_PAGE = "page-0001"


class BTreeError(RuntimeError):
    """Structural failure (invariant violation, bad discipline, ...)."""


def encode_key(key: int) -> str:
    """Fixed-width key encoding so lexicographic cell order is numeric order."""
    if key < 0 or key >= 10**KEY_WIDTH:
        raise BTreeError(f"key {key} outside supported range")
    return f"k{key:0{KEY_WIDTH}d}"


def decode_key(cell: str) -> int:
    """Inverse of :func:`encode_key`."""
    return int(cell[1:])


def data_cells(page: Page) -> list[tuple[str, object]]:
    """A node's payload cells: everything except the type marker."""
    return [(cell, value) for cell, value in page if cell != TYPE_CELL]


class BTree:
    """A crash-recoverable B-tree of arbitrary depth."""

    def __init__(
        self,
        machine: Machine | None = None,
        fanout: int = 8,
        split_discipline: str = "generalized",
        unsafe_split_flush: bool = False,
    ):
        if split_discipline not in ("generalized", "physiological"):
            raise BTreeError(f"unknown split discipline {split_discipline!r}")
        if fanout < 2:
            raise BTreeError("fanout must be at least 2")
        self.machine = machine if machine is not None else Machine(cache_capacity=32)
        self.fanout = fanout
        self.split_discipline = split_discipline
        self.unsafe_split_flush = unsafe_split_flush
        self.splits = 0
        self.root_splits = 0
        # What the redo kernel's ``replay`` counts into and traces through.
        self.stats = MethodStats()
        self.tracer = self.machine.tracer
        self._ensure_initialized()

    # ------------------------------------------------------------------
    # Bootstrapping
    # ------------------------------------------------------------------

    @property
    def pool(self) -> BufferPool:
        return self.machine.pool

    def _ensure_initialized(self) -> None:
        """Idempotent unlogged bootstrap: an empty root leaf.  A crash
        before anything is durable recovers by re-bootstrapping
        identically."""
        meta = self.pool.get_page(META_PAGE, create=True)
        if meta.get("root") is None:
            self.pool.update(META_PAGE, lambda p: p.put("root", FIRST_PAGE))
        # The first page's type marker comes from this unlogged bootstrap,
        # so restore it whenever missing: the page is invariantly a leaf
        # (splits always move cells into *fresh* pages, never re-type an
        # existing one), making this idempotent and crash-safe.
        first = self.pool.get_page(FIRST_PAGE, create=True)
        if first.get(TYPE_CELL) is None:
            self.pool.update(FIRST_PAGE, lambda p: p.put(TYPE_CELL, "leaf"))

    def root_id(self) -> str:
        """The page id of the current root node."""
        return self.pool.get_page(META_PAGE, create=True).get("root")

    def _node(self, page_id: str) -> Page:
        return self.pool.get_page(page_id, create=True)

    def _node_type(self, page: Page) -> str:
        node_type = page.get(TYPE_CELL)
        if node_type not in ("leaf", "internal"):
            raise BTreeError(f"page {page.page_id!r} has no node type")
        return node_type

    def _allocate_page(self) -> str:
        """Next unused page id, derived by walking the tree (no separate
        durable counter to keep consistent)."""
        highest = 0
        for page_id in self._all_node_ids():
            highest = max(highest, int(page_id[5:]))
        return f"page-{highest + 1:04d}"

    def _all_node_ids(self) -> list[str]:
        result = []
        stack = [self.root_id()]
        while stack:
            page_id = stack.pop()
            result.append(page_id)
            page = self._node(page_id)
            if self._node_type(page) == "internal":
                stack.extend(value for _, value in data_cells(page))
        return result

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _route(self, page: Page, cell: str) -> str:
        """The child covering ``cell`` in an internal node."""
        best = None
        for separator, child in data_cells(page):
            if separator <= cell and (best is None or separator > best[0]):
                best = (separator, child)
        if best is None:
            raise BTreeError(
                f"internal node {page.page_id!r} has no covering separator"
            )
        return best[1]

    def _descend(self, cell: str) -> list[str]:
        """Page ids from the root to the leaf covering ``cell``."""
        path = [self.root_id()]
        while True:
            page = self._node(path[-1])
            if self._node_type(page) == "leaf":
                return path
            path.append(self._route(page, cell))

    def search(self, key: int) -> bytes | None:
        """The payload stored under ``key`` (None if absent)."""
        cell = encode_key(key)
        leaf = self._node(self._descend(cell)[-1])
        return leaf.get(cell)

    def _leaves_in_order(self) -> Iterator[Page]:
        def visit(page_id: str) -> Iterator[Page]:
            page = self._node(page_id)
            if self._node_type(page) == "leaf":
                yield page
                return
            for _, child in sorted(data_cells(page)):
                yield from visit(child)

        yield from visit(self.root_id())

    def range_scan(self, low: int, high: int) -> Iterator[tuple[int, bytes]]:
        """All (key, payload) with low <= key <= high, in key order."""
        lo_cell, hi_cell = encode_key(low), encode_key(high)
        for leaf in self._leaves_in_order():
            for cell, payload in data_cells(leaf):
                if lo_cell <= cell <= hi_cell:
                    yield decode_key(cell), payload

    def items(self) -> dict[int, bytes]:
        """Every (key, payload) pair, as a dict (the oracle-comparison view)."""
        result: dict[int, bytes] = {}
        for leaf in self._leaves_in_order():
            for cell, payload in data_cells(leaf):
                result[decode_key(cell)] = payload
        return result

    def height(self) -> int:
        """Number of levels (1 = a single leaf)."""
        levels = 1
        page = self._node(self.root_id())
        while self._node_type(page) == "internal":
            levels += 1
            page = self._node(sorted(data_cells(page))[0][1])
        return levels

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: int, payload: bytes) -> None:
        """Upsert ``key`` with ``payload``, splitting overflowing nodes."""
        cell = encode_key(key)
        path = self._descend(cell)
        self._log_action(path[-1], PageAction("put", (cell, payload)))
        self._split_along(path)

    def delete(self, key: int) -> None:
        """Remove ``key`` if present (leaves are never merged)."""
        cell = encode_key(key)
        self._log_action(self._descend(cell)[-1], PageAction("delete", (cell,)))

    def _log_action(self, page_id: str, action: PageAction) -> None:
        """Log one single-page action, then apply it through the
        interpreter redo runs."""
        entry = self.machine.log.append(PhysiologicalRedo(page_id, action))
        self.pool.update(page_id, partial(action.apply_to, lsn=entry.lsn), create=True)

    def commit(self) -> None:
        """Force the log: all inserts/deletes so far become durable."""
        self.machine.log.flush()

    # ------------------------------------------------------------------
    # Splits (any level, both disciplines)
    # ------------------------------------------------------------------

    def _split_along(self, path: list[str]) -> None:
        """Split overflowing nodes bottom-up along the insert path."""
        for depth in range(len(path) - 1, -1, -1):
            page_id = path[depth]
            page = self._node(page_id)
            if len(data_cells(page)) <= self.fanout:
                return
            parent_id = path[depth - 1] if depth > 0 else None
            self._split_node(page_id, parent_id)

    def _split_node(self, old_id: str, parent_id: str | None) -> None:
        old = self._node(old_id)
        cells = sorted(cell for cell, _ in data_cells(old))
        split_cell = cells[len(cells) // 2]
        node_type = self._node_type(old)
        new_id = self._allocate_page()

        new_root_id = None
        if parent_id is None:
            # Root split: the tree grows a level.
            new_root_id = self._allocate_page()
            if new_root_id == new_id:  # allocate distinct ids
                new_root_id = f"page-{int(new_id[5:]) + 1:04d}"
            self.root_splits += 1

        if self.split_discipline == "generalized":
            self._split_generalized(
                old_id, new_id, split_cell, node_type, parent_id, new_root_id
            )
        else:
            self._split_physiological(
                old_id, new_id, split_cell, node_type, parent_id, new_root_id
            )
        self.splits += 1

    def _parent_actions(
        self,
        old_id: str,
        new_id: str,
        split_cell: str,
        parent_id: str | None,
        new_root_id: str | None,
    ) -> dict[str, tuple[PageAction, ...]]:
        """The separator / root bookkeeping writes a split entails."""
        if parent_id is not None:
            return {parent_id: (PageAction("put", (split_cell, new_id)),)}
        # Root split: a fresh internal root and a meta pointer update.
        return {
            new_root_id: (
                PageAction("set-meta", (TYPE_CELL, "internal")),
                PageAction("put", ("", old_id)),
                PageAction("put", (split_cell, new_id)),
            ),
            META_PAGE: (PageAction("put", ("root", new_root_id)),),
        }

    def _split_physiological(
        self, old_id, new_id, split_cell, node_type, parent_id, new_root_id
    ) -> None:
        """Conventional split: physically image the moved half."""
        old = self._node(old_id)
        moved = {
            cell: value
            for cell, value in data_cells(old)
            if cell >= split_cell
        }
        moved[TYPE_CELL] = node_type
        log = self.machine.log

        image = log.append(PhysicalRedo(new_id, dict(moved), whole_page=True))
        self.pool.update(
            new_id,
            lambda p: (p.cells.update(moved), p.stamp(image.lsn)),
            create=True,
        )
        self._log_action(old_id, PageAction("truncate", (split_cell,)))
        for page_id, actions in self._parent_actions(
            old_id, new_id, split_cell, parent_id, new_root_id
        ).items():
            for action in actions:
                self._log_action(page_id, action)
        # No ordering constraints: every record is self-contained.

    def _split_generalized(
        self, old_id, new_id, split_cell, node_type, parent_id, new_root_id
    ) -> None:
        """§6.4 split: read the old node, write the new node — the moved
        half never enters the log."""
        log = self.machine.log
        writes = {
            new_id: (
                PageAction("split-move", (old_id, split_cell)),
                PageAction("set-meta", (TYPE_CELL, node_type)),
            ),
        }
        writes.update(
            self._parent_actions(old_id, new_id, split_cell, parent_id, new_root_id)
        )
        split_record = log.append(
            MultiPageRedo(read_page_ids=(old_id,), writes=writes)
        )
        for page_id, actions in split_record.payload.writes.items():
            mutate = actions_on(actions, split_record.lsn, self._node)
            self.pool.update(page_id, mutate, create=True)
            if page_id == new_id:
                # THE careful write ordering of Figure 8, expressed as the
                # write graph's add-edge: the new page must install before
                # the truncated old page may.  Register while the new
                # page's node is live — a later update in this loop could
                # evict (install) it, and an edge registered against an
                # already-installed generation must not count.
                self.pool.add_flush_constraint(new_id, old_id)

        self._log_action(old_id, PageAction("truncate", (split_cell,)))
        if self.unsafe_split_flush:
            # Ablation hook: do exactly the wrong thing — put the
            # truncated old page on disk first, new page still volatile.
            self.machine.log.flush()
            self.pool.flush_page(old_id, force=True)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Force the log, install everything (in constraint order), and
        record the redo start point."""
        self.machine.log.flush()
        self.pool.flush_all()
        self.machine.log.append(
            CheckpointRecord(("btree", self.machine.log.next_lsn))
        )
        self.machine.log.flush()

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the cache and the unforced log tail; the disk survives."""
        self.machine.crash()

    def recover(self) -> None:
        """LSN-test redo over the stable log (both disciplines): the
        last checkpoint names the redo start, the kernel's ``replay``
        does the rest."""
        self.machine.reboot_pool()
        self._ensure_initialized()
        log = self.machine.log
        checkpoint_lsn = log.last_stable_checkpoint_lsn
        redo_start = (
            log.entry(checkpoint_lsn).payload.data[1] if checkpoint_lsn >= 0 else 0
        )
        replay(self, log.stable_records_from(redo_start))
        self.stats.recoveries += 1

    def redo_record(self, record: LogRecord) -> dict:
        """The tree's redo test: every record type it logs replays under
        the page-LSN test.  Unlike §6.2's blind replay, a split's
        whole-page image is LSN-tested too (reinstalling it over a page
        that already holds later updates would wipe them, and their own
        LSN test would then bypass them), and a replayed multi-page
        split re-arms Figure 8's ordering for node pages only — normal
        operation never orders the meta page either."""
        payload, lsn = record.payload, record.lsn
        if isinstance(payload, PhysiologicalRedo):
            mutate = partial(payload.action.apply_to, lsn=lsn)
            return redo_page(self.pool, payload.page_id, lsn, mutate)
        if isinstance(payload, PhysicalRedo):

            def reinstall(page: Page) -> None:
                payload.apply_to(page)
                page.stamp(lsn)

            return redo_page(self.pool, payload.page_id, lsn, reinstall)
        if isinstance(payload, MultiPageRedo):
            return redo_multipage(
                self.pool, record, lambda page_id: page_id.startswith("page-")
            )
        return NOT_REDO

    # ------------------------------------------------------------------
    # Invariants and verification
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Structural soundness across all levels: every node is typed,
        every cell lies in the key interval its ancestors dictate, no
        cell appears twice, and every node (except a lone root leaf)
        respects the fanout bound."""
        seen_cells: set[str] = set()
        seen_pages: set[str] = set()

        def visit(page_id: str, low: str, high: str | None) -> None:
            if page_id in seen_pages:
                raise BTreeError(f"page {page_id!r} reachable twice")
            seen_pages.add(page_id)
            page = self._node(page_id)
            node_type = self._node_type(page)
            entries = sorted(data_cells(page))
            if len(entries) > self.fanout + 1:
                raise BTreeError(
                    f"node {page_id!r} holds {len(entries)} cells "
                    f"(fanout {self.fanout})"
                )
            for cell, value in entries:
                if cell < low or (high is not None and cell >= high):
                    raise BTreeError(
                        f"cell {cell!r} in {page_id!r} outside "
                        f"[{low!r}, {high!r})"
                    )
            if node_type == "leaf":
                for cell, _ in entries:
                    if cell in seen_cells:
                        raise BTreeError(f"cell {cell!r} in two leaves")
                    seen_cells.add(cell)
                return
            if not entries:
                raise BTreeError(f"internal node {page_id!r} is empty")
            if entries[0][0] != low:
                raise BTreeError(
                    f"internal node {page_id!r} lowest separator "
                    f"{entries[0][0]!r} != interval low {low!r}"
                )
            for index, (separator, child) in enumerate(entries):
                upper = entries[index + 1][0] if index + 1 < len(entries) else high
                visit(child, separator, upper)

        visit(self.root_id(), "", None)

    def durable_insert_count(self) -> int:
        """Inserts whose log records are stable (split/bookkeeping records
        excluded; deletes excluded for the insert-only experiment loads)."""
        count = 0
        for entry in self.machine.log.stable_records_from(0):
            if (
                isinstance(entry.payload, PhysiologicalRedo)
                and entry.payload.action.kind == "put"
                and isinstance(entry.payload.action.args[1], bytes)
            ):
                # Leaf inserts carry bytes payloads; separator and meta
                # bookkeeping puts carry page-id strings.
                count += 1
        return count

    def log_bytes(self) -> int:
        """Total bytes appended to the log (the E6 metric)."""
        return self.machine.log.total_bytes()

    def __repr__(self) -> str:
        return (
            f"BTree(discipline={self.split_discipline}, fanout={self.fanout}, "
            f"height={self.height()}, splits={self.splits})"
        )
