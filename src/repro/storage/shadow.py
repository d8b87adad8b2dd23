"""The System R-style shadow store (§6.1 substrate).

System R keeps the stable database unchanged between checkpoints: updated
pages accumulate in a *staging area*, and writing a checkpoint record
"swings a pointer" that atomically replaces the stable versions with the
staged ones.  We model this as two page directories on one disk — the
*current* directory (stable state) and the *shadow* directory (staging
area) — plus a one-cell root page holding which directory is current.
Swinging the pointer is a single atomic page write, which is exactly the
atomicity the paper's argument needs.

After a crash, whatever the root page points at is the stable state; any
half-filled staging area is simply garbage-collected.
"""

from __future__ import annotations

from repro.storage.disk import Disk
from repro.storage.page import Page

ROOT_PAGE_ID = "__root__"


class ShadowStore:
    """Two page directories with an atomically swung root pointer."""

    def __init__(self, disk: Disk):
        self.disk = disk
        if not disk.has_page(ROOT_PAGE_ID):
            root = Page(ROOT_PAGE_ID, {"current": "A", "checkpoint_lsn": -1})
            disk.write_page(root)

    # ------------------------------------------------------------------
    # Directories
    # ------------------------------------------------------------------

    def current_directory(self) -> str:
        """The directory name the root pointer designates as stable."""
        return self.disk.read_page(ROOT_PAGE_ID).get("current")

    def staging_directory(self) -> str:
        """The other directory — where staged versions accumulate."""
        return "B" if self.current_directory() == "A" else "A"

    def checkpoint_lsn(self) -> int:
        """LSN recorded by the last pointer swing (-1 before the first)."""
        return self.disk.read_page(ROOT_PAGE_ID).get("checkpoint_lsn")

    def _qualify(self, directory: str, page_id: str) -> str:
        return f"{directory}:{page_id}"

    # ------------------------------------------------------------------
    # Reads and staged writes
    # ------------------------------------------------------------------

    def read_current(self, page_id: str) -> Page:
        """The stable version of ``page_id`` (KeyError if never written)."""
        raw = self.disk.read_page(self._qualify(self.current_directory(), page_id))
        return Page(page_id, dict(raw.cells), raw.lsn)

    def has_current(self, page_id: str) -> bool:
        """Does the stable directory hold a version of ``page_id``?"""
        return self.disk.has_page(self._qualify(self.current_directory(), page_id))

    def stable_view(self) -> tuple[int, dict[str, Page]]:
        """The stable state as the disk holds it, uncopied: the last
        swing's checkpoint LSN and each current page's stored image by
        logical page id (read-only: the disk never modifies a stored
        image in place, so an image's identity says whether it changed)."""
        images = self.disk.images()
        root = images[ROOT_PAGE_ID]
        prefix = self._qualify(root.get("current"), "")
        return root.get("checkpoint_lsn"), {
            page_id[len(prefix):]: image
            for page_id, image in images.items()
            if page_id.startswith(prefix)
        }

    def current_page_ids(self) -> list[str]:
        """Sorted logical page ids present in the stable directory."""
        return sorted(self.stable_view()[1])

    def stage_page(self, page: Page) -> None:
        """Write a page version into the staging area.  The stable state
        is untouched until :meth:`swing_pointer`."""
        self.stage_pages((page,))

    def stage_pages(self, pages) -> None:
        """Stage a whole batch of page versions at once.

        The batched form of :meth:`stage_page`: the staging directory is
        resolved from the root page once per batch instead of once per
        page (the root read is a full page copy), mirroring the batched
        window treatment on the log's append path.  The stable state is
        untouched until :meth:`swing_pointer`.
        """
        staging = self.staging_directory()
        write_page = self.disk.write_page
        for page in pages:
            write_page(
                Page(
                    self._qualify(staging, page.page_id),
                    dict(page.cells),
                    page.lsn,
                )
            )

    # ------------------------------------------------------------------
    # The atomic installation
    # ------------------------------------------------------------------

    def swing_pointer(self, checkpoint_lsn: int) -> None:
        """Atomically make the staging area the stable state (§6.1).

        Pages the staging area did not update are carried over first (a
        real shadow directory shares their entries; copying models that
        sharing without a page-table indirection).  The final root write
        is the single atomic action that installs every staged operation
        and moves them out of ``redo_set`` at once.
        """
        current, staging = self.current_directory(), self.staging_directory()
        for page_id in self.current_page_ids():
            staged_id = self._qualify(staging, page_id)
            if not self.disk.has_page(staged_id):
                carried = self.disk.read_page(self._qualify(current, page_id))
                self.disk.write_page(Page(staged_id, dict(carried.cells), carried.lsn))
        root = Page(
            ROOT_PAGE_ID,
            {"current": staging, "checkpoint_lsn": checkpoint_lsn},
        )
        self.disk.write_page(root)  # THE atomic pointer swing
        self._scrub(current)

    def _scrub(self, directory: str) -> None:
        """Garbage-collect the now-shadow directory so the next staging
        round starts clean (what System R's allocator reclaim does)."""
        prefix = directory + ":"
        for page_id in list(self.disk.page_ids()):
            if page_id.startswith(prefix):
                self.disk.drop_page(page_id)

    def abandon_staging(self) -> None:
        """Drop any half-built staging area (post-crash cleanup)."""
        self._scrub(self.staging_directory())

    def __repr__(self) -> str:
        return (
            f"ShadowStore(current={self.current_directory()!r}, "
            f"pages={len(self.current_page_ids())})"
        )
