"""Typed log records for the four §6 recovery disciplines.

Every payload is plain data: replay is performed by interpreting the
record against pages, never by calling captured closures, because a log
that survives a crash can only contain data.  A record's size is the
length of its binary frame (:mod:`repro.logmgr.codec`), so the
log-volume experiments (notably E6, the B-tree split comparison) count
the bytes the durable log writes.

The action vocabulary for page-logical records is deliberately small —
``put``, ``delete``, ``add``, ``copycell``, ``copyfrom``,
``split-move``, ``truncate``, ``set-meta`` — matching exactly what the
KV engines and the B-tree need.  This module is the one place that says
what each kind means: ``PageAction.apply_to``, ``PhysicalRedo.apply_to``
and ``LogicalRedo.apply_to`` are the interpreters normal operation and
redo both run, and every payload's ``accesses()`` names the cells it
reads and writes.  The audits lift records by running the same
interpreters on scratch pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.storage.page import Page


def install(page: Page, write, lsn: int | None = None) -> None:
    """Perform on ``page`` a write ``prepare`` returned — one ``(cell,
    value)``, or a many-cell kind's list of them, written in order —
    and stamp ``lsn`` (if not None).  :data:`TOMBSTONE` removes a cell."""
    cells = page.cells
    for cell, value in (write,) if type(write) is tuple else write:
        if value is TOMBSTONE:
            cells.pop(cell, None)
        else:
            cells[cell] = value
    if lsn is not None:
        page.stamp(lsn)


@dataclass(frozen=True)
class PageAction:
    """One logical action against one page.

    ``kind`` selects the interpretation:

    - ``"put"``: args = (cell, value) — upsert a cell.
    - ``"delete"``: args = (cell,) — remove a cell.
    - ``"add"``: args = (cell, delta) — cell <- (cell or 0) + delta, an
      arithmetic update reading the cell (absent and None both count as 0).
    - ``"split-move"``: args = (source_page_id, split_key) — fill this page
      with every cell of the *source* page whose key is >= split_key
      (reads another page: only legal in multi-page records).
    - ``"truncate"``: args = (split_key,) — drop every cell >= split_key.
    - ``"set-meta"``: args = (cell, value) — metadata cell upsert (same as
      put; named separately so traces read well).
    - ``"copycell"``: args = (dst_cell, src_cell, delta) — dst <- (src or
      0) + delta, both cells on this page.
    - ``"copyfrom"``: args = (src_page_id, src_cell, dst_cell, delta) —
      like copycell but the source cell lives on another page (reads
      another page: only legal in multi-page records).
    """

    kind: str
    args: tuple = ()

    def prepare(self, page: Page, reader=None):
        """Read what this action reads; return the write of its result,
        for :func:`install`.  ``reader`` (page_id -> Page) supplies the
        other page a ``copyfrom`` or ``split-move`` reads.  Operands that
        do not add raise ``TypeError`` here, before any write: engines
        prepare, log, then write, so the log never holds a record that
        replay cannot apply."""
        kind, args = self.kind, self.args
        if reader is None and kind in ("copyfrom", "split-move"):
            raise ValueError(f"{kind} needs a page reader (multi-page record)")
        if kind in ("put", "set-meta"):
            return args
        if kind == "delete":
            return args[0], TOMBSTONE
        if kind == "add":
            cell, delta = args
            return cell, (page.get(cell) or 0) + delta
        if kind == "copycell":
            dst_cell, src_cell, delta = args
            return dst_cell, (page.get(src_cell) or 0) + delta
        if kind == "copyfrom":
            src_page_id, src_cell, dst_cell, delta = args
            return dst_cell, (reader(src_page_id).get(src_cell) or 0) + delta
        if kind == "truncate":
            (split_key,) = args
            return [(cell, TOMBSTONE) for cell in page.cells if cell >= split_key]
        if kind == "split-move":
            source_page_id, split_key = args
            source = reader(source_page_id)
            moved = [(cell, value) for cell, value in source if cell >= split_key]
            return [(cell, TOMBSTONE) for cell in page.cells] + moved
        raise ValueError(f"unknown page action kind {self.kind!r}")

    def apply_to(self, page: Page, lsn: int | None = None, reader=None) -> None:
        """Interpret this action on ``page``: :meth:`prepare`, then :func:`install`."""
        install(page, self.prepare(page, reader), lsn)

    def accesses(self, page_id: str) -> tuple[frozenset, frozenset]:
        """The cells this action reads and writes on page ``page_id``, as
        ``(page_id, cell)`` pairs; ``(page_id, None)`` stands for every
        cell of a page.  A write is blind when its cell is not read."""
        kind, args = self.kind, self.args
        if kind in ("put", "set-meta", "delete"):
            return frozenset(), frozenset({(page_id, args[0])})
        if kind == "add":
            return frozenset({(page_id, args[0])}), frozenset({(page_id, args[0])})
        if kind == "copycell":
            return frozenset({(page_id, args[1])}), frozenset({(page_id, args[0])})
        if kind == "copyfrom":
            return frozenset({(args[0], args[1])}), frozenset({(page_id, args[2])})
        if kind in ("truncate", "split-move"):
            source = args[0] if kind == "split-move" else page_id
            return frozenset({(source, None)}), frozenset({(page_id, None)})
        raise ValueError(f"unknown page action kind {self.kind!r}")

    def __str__(self) -> str:
        return f"{self.kind}{self.args}"


class _Tombstone:
    """The value a physical record writes to say "this cell is gone".

    One instance, :data:`TOMBSTONE`; it survives ``copy``, ``deepcopy``
    and ``pickle`` as itself, so identity (``is TOMBSTONE``) is the test.
    """

    __slots__ = ()

    def __reduce__(self) -> str:
        return "TOMBSTONE"

    def __repr__(self) -> str:
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class PhysicalRedo:
    """§6.2: the exact cells (byte ranges) written, by location.

    Physical operations only write — replay blindly installs the cells.
    A cell whose value is :data:`TOMBSTONE` is removed: a tombstone is
    still a blind write (of "absent"), so replay never reads.
    ``whole_page`` distinguishes full-page from partial-page logging [1]:
    the page is cleared first, so its cells are all the page holds.
    """

    page_id: str
    cells: dict = field(hash=False)
    whole_page: bool = False

    def apply_to(self, page: Page) -> None:
        """Install this record's cells into ``page`` (the caller stamps
        it).  No page ever stores a tombstone: the cell is popped."""
        cells = page.cells
        if self.whole_page:
            cells.clear()
        for cell, value in self.cells.items():
            if value is TOMBSTONE:
                cells.pop(cell, None)
            else:
                cells[cell] = value

    def accesses(self) -> tuple[frozenset, frozenset]:
        """Blind writes only: the logged cells, or every cell of a
        whole-page image (see :meth:`PageAction.accesses`)."""
        cells = [None] if self.whole_page else self.cells
        return frozenset(), frozenset((self.page_id, cell) for cell in cells)


@dataclass(frozen=True)
class PhysiologicalRedo:
    """§6.3: a logical action against one physically identified page."""

    page_id: str
    action: PageAction

    def accesses(self) -> tuple[frozenset, frozenset]:
        """The action's cells on this record's page."""
        return self.action.accesses(self.page_id)


@dataclass(frozen=True)
class LogicalRedo:
    """§6.1: a database-level operation (may read and write any page).

    ``description`` is ``(kind, key, value)`` over keys, not pages:
    ``("kv-put", key, value)``, ``("kv-delete", key, None)``,
    ``("kv-add", key, delta)`` or ``("kv-copyadd", key, (src, delta))``.
    The engine places keys on pages, so the interpreter takes its page
    accessors as callbacks; normal operation and replay both run it.
    """

    description: tuple

    def prepare(self, page: Page, page_for_read: Callable[[str], Page | None]) -> tuple:
        """:meth:`PageAction.prepare` over keys, ``page`` being the one
        the key is written on and ``page_for_read(key)`` the one ``key``
        is read from (None when no page holds it yet)."""
        kind, key, value = self.description
        if kind == "kv-put":
            return key, value
        if kind == "kv-delete":
            return key, TOMBSTONE
        if kind == "kv-add":
            # The read happens at replay time too: a logical add record
            # carries the delta, not the result.
            return key, (page.get(key) or 0) + value
        if kind == "kv-copyadd":
            src, delta = value
            source = page_for_read(src)
            src_value = source.get(src) if source is not None else None
            return key, (src_value or 0) + delta
        raise ValueError(f"unknown logical operation {kind!r}")

    def apply_to(self, page_for_update, page_for_read) -> None:
        """Interpret this operation: :meth:`prepare`, then :func:`install`."""
        page = page_for_update(self.description[1])
        install(page, self.prepare(page, page_for_read))

    def accesses(self) -> tuple[frozenset, frozenset]:
        """The keys read and written, as ``(None, key)`` cells: a
        logical record names no page."""
        kind, key, value = self.description
        written = frozenset({(None, key)})
        if kind in ("kv-put", "kv-delete"):
            return frozenset(), written
        if kind == "kv-add":
            return written, written
        if kind == "kv-copyadd":
            return frozenset({(None, value[0])}), written
        raise ValueError(f"unknown logical operation {kind!r}")


@dataclass(frozen=True)
class MultiPageRedo:
    """§6.4: a generalized operation reading and writing different pages.

    ``writes`` maps written page ids to the actions applied to them;
    ``read_page_ids`` lists the pages those actions may read.  Every
    written page is LSN-stamped with the record's LSN at replay, which is
    what makes the per-page redo test sound for multi-page operations.
    """

    read_page_ids: tuple[str, ...]
    writes: dict = field(hash=False)  # page_id -> tuple[PageAction, ...]

    def accesses(self) -> tuple[frozenset, frozenset]:
        """Every written page's :func:`page_accesses`, united."""
        return _united(page_accesses(*write) for write in self.writes.items())


def page_accesses(page_id: str, actions) -> tuple[frozenset, frozenset]:
    """The cells ``actions`` read and write, applied to page ``page_id``."""
    return _united(action.accesses(page_id) for action in actions)


def _united(accesses) -> tuple[frozenset, frozenset]:
    reads, writes = zip(*accesses)
    return frozenset().union(*reads), frozenset().union(*writes)


@dataclass(frozen=True)
class CheckpointRecord:
    """A checkpoint: data is method-specific (e.g. the swung directory for
    logical recovery, the dirty-page table for physiological)."""

    data: tuple = ()


Payload = Any  # one of the dataclasses above, or a theory-level Operation


@dataclass(frozen=True)
class LogRecord:
    """A payload with its manager-assigned LSN — THE log record type.

    Every layer of the system speaks this one record: the §6 method
    engines log typed redo payloads, while the theory core logs abstract
    :class:`~repro.core.model.Operation` objects.  ``operation`` is the
    theory-side name for the payload, so a record reads naturally in both
    vocabularies.  ``labels`` carries whatever extra bookkeeping a logger
    wants to attach (page ids, images, trace notes) — opaque to everyone
    but its writer.
    """

    lsn: int
    payload: Payload
    labels: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def operation(self) -> Payload:
        """The payload under its theory-core name (§4: a log record *is*
        an operation plus bookkeeping)."""
        return self.payload

    def size_bytes(self) -> int:
        """The record's byte count: the length of its encoded wire frame,
        computed once and cached on the instance (the durable append
        path fills the cache from the frame it just encoded).  A payload
        with no wire encoding (an abstract theory operation) counts
        ``len(repr(payload)) + 8``."""
        size = self.__dict__.get("_frame_size")
        if size is None:
            from repro.logmgr.codec import CodecError, encode_record

            try:
                size = len(encode_record(self))
            except CodecError:
                size = len(repr(self.payload)) + 8
            object.__setattr__(self, "_frame_size", size)
        return size

    def __str__(self) -> str:
        return f"[{self.lsn}] {self.payload}"
