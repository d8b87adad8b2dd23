"""Physical recovery (§6.2).

"Early recovery techniques frequently exploited physical recovery,
logging the exact bytes of data and the exact locations written."
Physical operations only *write* — there are no write–read or read–write
conflicts, the installation graph is a set of per-page ww chains, and the
write graph collapses to one node per page.

Consequences implemented here:

- A ``put`` logs the exact cell written (partial-page logging); a
  ``delete`` logs the same one cell with the value
  :data:`~repro.logmgr.records.TOMBSTONE`.  "Remove these bytes" is a
  blind write of "absent", so a delete neither reads its page nor pays
  for the page's size in the log.
- The redo test is trivially *replay everything after the checkpoint*:
  while operations sit in ``redo_set``, their target cells are unexposed
  (nothing reads them during recovery), so replaying them against
  whatever the disk holds is always harmless and always sufficient.
- A checkpoint first flushes the cache (so every logged effect is in the
  stable state), then appends and forces a checkpoint record: that single
  log append atomically moves all earlier operations out of ``redo_set``
  — their effects are already installed, so the recovery invariant is
  preserved (the §6.2 argument, executable).
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.logmgr import TOMBSTONE, CheckpointRecord, LogRecord, PhysicalRedo
from repro.logmgr.codec import PAYLOAD_PHYSICAL
from repro.methods.base import RecoveryMethodKV
from repro.methods.lazy import pagewise_plan
from repro.methods.redo import NOT_REDO, begin_lazy, recover_eager
from repro.storage.page import Page


class PhysicalKV(RecoveryMethodKV):
    """Key-value store recovered by physical (location/value) logging."""

    name = "physical"
    replays = frozenset({PAYLOAD_PHYSICAL})

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def _log_and_install(self, page_id: str, key: str, value: Any) -> None:
        """Log the blind write of ``value`` (or :data:`TOMBSTONE`) to
        ``key`` on ``page_id``, then install it as redo does."""
        record = PhysicalRedo(page_id, {key: value})
        entry = self.machine.log.append(record)
        self._install(record, entry.lsn)
        self.stats.operations += 1

    def _install(self, record: PhysicalRedo, lsn: int) -> None:
        """Install ``record``'s cells into its page and stamp ``lsn``
        (a replay never lowers a later stamp)."""

        def install(page: Page) -> None:
            record.apply_to(page)
            page.stamp(max(page.lsn, lsn))

        self.machine.pool.update(record.page_id, install, create=True)

    def put(self, key: str, value: Any) -> None:
        self._log_and_install(self.page_of(key), key, value)

    def delete(self, key: str) -> None:
        self._log_and_install(self.page_of(key), key, TOMBSTONE)

    def add(self, key: str, delta: int) -> None:
        """Physical logging of a read-modify-write: the *result* is
        computed at execution time and logged as a blind value write.
        Replay never reads — the §6.2 property that makes every variable
        in ``redo_set`` unexposed and replays unconditionally safe."""
        page_id = self.page_of(key)
        page = self.machine.pool.get_page(page_id, create=True)
        self._log_and_install(page_id, key, (page.get(key) or 0) + delta)

    def copyadd(self, dst: str, src: str, delta: int) -> None:
        """Cross-key derivation, physically logged: the read of ``src``
        happens now; the log sees only the blind write of the result."""
        src_page = self.machine.pool.get_page(self.page_of(src), create=True)
        self._log_and_install(self.page_of(dst), dst, (src_page.get(src) or 0) + delta)

    def get(self, key: str) -> Any:
        try:
            return self.machine.pool.get_page(self.page_of(key)).get(key)
        except KeyError:
            return None

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush cache, then atomically retire the log prefix (§6.2)."""
        self.machine.log.flush()          # WAL: records before pages
        self.machine.pool.flush_all()     # install every logged effect
        self.machine.log.append(CheckpointRecord(("physical",)))
        self.machine.log.flush()          # the atomic redo_set update
        self.stats.checkpoints += 1

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def redo_record(self, record: LogRecord) -> dict:
        """Blind install of one physical record into its page — §6.2:
        blind replays are always harmless, so the redo test is "yes"."""
        payload = record.payload
        if not isinstance(payload, PhysicalRedo):
            return NOT_REDO
        self._install(payload, record.lsn)
        return {"decision": "replayed", "page": payload.page_id}

    def recover(self, full_scan: bool = False) -> None:
        """Eager restart: :meth:`begin_lazy_recovery`'s plan, drained
        before returning — every stable physical record after the last
        stable checkpoint (or the whole log for media recovery and a
        diskless start), blindly, one page's chain at a time."""
        recover_eager(self, full_scan, partial(pagewise_plan, self))

    def begin_lazy_recovery(self):
        """Analysis-only restart for physical recovery: each page's own
        chain (everything after the checkpoint) replays blindly on first
        access.  Physical records are single-page blind writes — no
        cross-chain conflict edges — so per-page chain order alone is
        conflict-order consistent and the drained state equals the
        sequential scan's.
        """
        return begin_lazy(self, partial(pagewise_plan, self))
