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
KV engines and the B-tree need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.page import Page


@dataclass(frozen=True)
class PageAction:
    """One logical action against one page.

    ``kind`` selects the interpretation:

    - ``"put"``: args = (cell, value) — upsert a cell.
    - ``"delete"``: args = (cell,) — remove a cell.
    - ``"add"``: args = (cell, delta) — arithmetic update reading the cell.
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

    def apply_to(self, page: Page, lsn: int | None = None, reader=None) -> None:
        """Interpret this action against ``page``.

        ``reader`` supplies other pages for ``split-move`` (a callable
        page_id -> Page); single-page disciplines never pass one.
        """
        if self.kind in ("put", "set-meta"):
            cell, value = self.args
            page.put(cell, value, lsn)
        elif self.kind == "delete":
            (cell,) = self.args
            page.delete(cell, lsn)
        elif self.kind == "add":
            cell, delta = self.args
            page.put(cell, page.get(cell, 0) + delta, lsn)
        elif self.kind == "truncate":
            (split_key,) = self.args
            for cell in [c for c in page.cells if c >= split_key]:
                page.delete(cell)
            if lsn is not None:
                page.stamp(lsn)
        elif self.kind == "copycell":
            dst_cell, src_cell, delta = self.args
            page.put(dst_cell, (page.get(src_cell) or 0) + delta, lsn)
        elif self.kind == "copyfrom":
            src_page_id, src_cell, dst_cell, delta = self.args
            if reader is None:
                raise ValueError("copyfrom needs a page reader (multi-page record)")
            source = reader(src_page_id)
            page.put(dst_cell, (source.get(src_cell) or 0) + delta, lsn)
        elif self.kind == "split-move":
            source_page_id, split_key = self.args
            if reader is None:
                raise ValueError("split-move needs a page reader (multi-page record)")
            source = reader(source_page_id)
            page.cells.clear()
            for cell, value in source:
                if cell >= split_key:
                    page.cells[cell] = value
            if lsn is not None:
                page.stamp(lsn)
        else:
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


@dataclass(frozen=True)
class PhysiologicalRedo:
    """§6.3: a logical action against one physically identified page."""

    page_id: str
    action: PageAction


@dataclass(frozen=True)
class LogicalRedo:
    """§6.1: a database-level operation (may read and write any page).

    ``description`` is engine-interpreted data, e.g. ``("kv-put", key,
    value)``; the logical engine replays it through its normal code path.
    """

    description: tuple


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
