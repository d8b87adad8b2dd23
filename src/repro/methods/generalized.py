"""Generalized LSN-based recovery (§6.4) as a key-value engine.

Physiological recovery's defining restriction is one page per operation
(§6.3).  Section 6.4 lifts it: log operations may read and write
*different* pages, every written page is tagged with the record's LSN,
and the cache manager enforces the write orderings the installation
graph implies.  Here that buys a genuinely logical cross-key operation —
``copyadd(dst, src, delta)`` — whose log record carries only the key
names and delta (the read happens again at replay), even when the two
keys live on different pages.

The careful write ordering: after ``copyadd``, the destination page must
reach disk before the source page may carry *later* updates to disk —
otherwise a crash could leave a stable source the replayed record would
mis-read.  The engine registers exactly that flush constraint, and the
pool resolves would-be cycles by eager flushing (the write graph's
acyclicity side condition, operationalized).

Everything single-page (put/add/delete, the fuzzy checkpoint, the dirty
page table) *is* :class:`~repro.methods.physiological.PhysiologicalKV` —
§6.4 is §6.3 plus multi-page records, and the subclass adds only those.
"""

from __future__ import annotations

from functools import partial

from repro.logmgr import LogRecord, MultiPageRedo, PageAction
from repro.logmgr.codec import PAYLOAD_MULTIPAGE
from repro.methods.physiological import PhysiologicalKV
from repro.methods.redo import redo_multipage


class GeneralizedKV(PhysiologicalKV):
    """Key-value store recovered by generalized LSN-based logging."""

    name = "generalized"
    replays = PhysiologicalKV.replays | {PAYLOAD_MULTIPAGE}

    # Inherited unchanged.  Named in this class body because
    # bench/layers.py wraps ``vars(cls)[name]`` of every method class and
    # raises on a miss; an alias gets one span where a delegating def
    # would nest two.
    get = PhysiologicalKV.get
    checkpoint = PhysiologicalKV.checkpoint
    recover = PhysiologicalKV.recover
    begin_lazy_recovery = PhysiologicalKV.begin_lazy_recovery

    # ------------------------------------------------------------------
    # The §6.4 operation: cross-page read-write
    # ------------------------------------------------------------------

    def copyadd(self, dst: str, src: str, delta: int) -> None:
        dst_page = self.page_of(dst)
        src_page = self.page_of(src)
        if dst_page == src_page:
            # Same page: an ordinary physiological record suffices.
            self._log_and_apply(
                dst_page, PageAction("copycell", (dst, src, delta))
            )
            return
        action = PageAction("copyfrom", (src_page, src, dst, delta))
        self._log_and_apply(
            dst_page,
            action,
            MultiPageRedo(read_page_ids=(src_page,), writes={dst_page: (action,)}),
            reader=partial(self.machine.pool.get_page, create=True),
        )
        # Careful write ordering as the write graph's add-edge: the
        # destination page must be installed before the source page can
        # carry later updates to disk.
        self.machine.pool.add_flush_constraint(dst_page, src_page)

    # ------------------------------------------------------------------
    # Recovery: the multi-page branch of the redo test
    # ------------------------------------------------------------------

    def redo_record(self, record: LogRecord) -> dict:
        """A multi-page record takes the per-written-page test of
        :func:`~repro.methods.redo.redo_multipage`, every replayed page
        re-arming its ordering against the pages it read; single-page
        records take the inherited path.

        Lazy replay stays sound because a faulted page replays its
        ancestry along the multi-page records' conflict edges (see
        :meth:`~repro.methods.physiological.PhysiologicalKV.begin_lazy_recovery`);
        a page-partitioned schedule that cut those conflict edges would
        not be conflict-order consistent, so Theorem 3 would not apply.
        """
        if not isinstance(record.payload, MultiPageRedo):
            return PhysiologicalKV.redo_record(self, record)
        return redo_multipage(self.machine.pool, record, lambda page_id: True)
