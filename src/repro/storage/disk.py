"""The simulated disk: atomic page writes, crash-immune contents.

The failure model is the standard one:

- :meth:`Disk.write_page` installs a page image atomically — after a
  crash the disk holds either the old image or the new one, never a mix
  (unless a :class:`TornWriteFault` is armed, which is exactly the
  violation the fault-injection tests use to show the model's assumptions
  are load-bearing);
- a crash loses nothing on disk and everything not on disk.

The disk counts writes and bytes so benchmarks can report IO alongside
log volume.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from repro.storage.page import Page


class DiskFault(Exception):
    """Base for injected faults.  Faults are armed, not raised: they
    silently corrupt the next matching write, the way real firmware bugs
    do; this class exists so tests can mark fault *kinds*."""


class LostWriteFault:
    """The next write to ``page_id`` is silently dropped."""

    def __init__(self, page_id: str):
        self.page_id = page_id
        self.fired = False


class TornWriteFault:
    """The next write to ``page_id`` applies only cells < ``keep_cells``
    (in sorted order), simulating a torn multi-sector write."""

    def __init__(self, page_id: str, keep_cells: int = 1):
        self.page_id = page_id
        self.keep_cells = keep_cells
        self.fired = False


class Disk:
    """A dictionary of page images with atomic replacement semantics."""

    def __init__(self):
        self._pages: dict[str, Page] = {}
        self.page_writes = 0
        self.bytes_written = 0
        self._faults: list[LostWriteFault | TornWriteFault] = []

    # ------------------------------------------------------------------
    # IO
    # ------------------------------------------------------------------

    def write_page(self, page: Page) -> None:
        """Atomically install a snapshot of ``page``."""
        self.page_writes += 1
        self.bytes_written += page.size_bytes()
        fault = self._pop_fault(page.page_id)
        if isinstance(fault, LostWriteFault):
            return
        image = page.copy()
        if isinstance(fault, TornWriteFault):
            old = self._pages.get(page.page_id)
            merged = old.copy() if old is not None else Page(page.page_id)
            for index, (cell, value) in enumerate(image):
                if index >= fault.keep_cells:
                    break
                merged.cells[cell] = value
            merged.lsn = max(merged.lsn, image.lsn)
            image = merged
        self._pages[page.page_id] = image

    def read_page(self, page_id: str) -> Page:
        """A snapshot of the stored image (callers may mutate their copy)."""
        if page_id not in self._pages:
            raise KeyError(f"page {page_id!r} not on disk")
        return self._pages[page_id].copy()

    def has_page(self, page_id: str) -> bool:
        """Is there a stored image for ``page_id``?"""
        return page_id in self._pages

    def page_lsn(self, page_id: str) -> int:
        """The stored image's LSN tag; -1 when there is no image."""
        page = self._pages.get(page_id)
        return -1 if page is None else page.lsn

    def holds(self, page: Page) -> bool:
        """Is ``page``'s content (its LSN tag aside) what the disk stores
        for it?  Compared in place, without :meth:`read_page`'s copy."""
        stored = self._pages.get(page.page_id)
        return stored is not None and stored.same_contents(page)

    def images(self) -> Mapping[str, Page]:
        """The stored images, uncopied and read-only: none is modified in
        place, so an image's identity says whether its page was rewritten."""
        return MappingProxyType(self._pages)

    def page_ids(self) -> list[str]:
        """Sorted ids of every stored page."""
        return sorted(self._pages)

    def drop_page(self, page_id: str) -> None:
        """Remove a page image (shadow-directory garbage collection)."""
        self._pages.pop(page_id, None)

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------

    def crash(self) -> "Disk":
        """A crash leaves the disk exactly as it is.  Returns self so
        harness code reads naturally (``disk = machine.disk.crash()``)."""
        return self

    def arm_fault(self, fault: LostWriteFault | TornWriteFault) -> None:
        """Queue a fault to corrupt the next matching write."""
        self._faults.append(fault)

    def _pop_fault(self, page_id: str):
        for fault in self._faults:
            if fault.page_id == page_id and not fault.fired:
                fault.fired = True
                self._faults.remove(fault)
                return fault
        return None

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Page]:
        """A full image of the disk (for oracles and assertions)."""
        return {page_id: page.copy() for page_id, page in self._pages.items()}

    def __repr__(self) -> str:
        return f"Disk(pages={len(self._pages)}, writes={self.page_writes})"
