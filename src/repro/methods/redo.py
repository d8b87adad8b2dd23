"""The redo kernel: §4's recovery loop, written once.

The paper defines recovery as one procedure with two parameters:
``analyze`` picks where redo starts, and ``redo`` decides, record by
record, whether an operation is replayed or bypassed.  Each §6 method
— and the B-tree, §6.4's headline application — supplies exactly those:
an analysis and one ``redo_record`` holding its whole redo test and
apply.  This module owns the rest: the :func:`replay` loop that counts
and traces every decision, the page-LSN test the LSN-based clients share
(:func:`redo_page`, and :func:`redo_multipage` over it), and the two
schedules that feed the loop.

The schedules differ only in when records are replayed.
:func:`begin_lazy` stops after analysis and hands back a plan
(:mod:`repro.methods.lazy`) that fetches per-page chains on first
access; :func:`recover_eager` drains the same plan before returning
(logical recovery, whose one global chain has no page granularity,
streams ``log.stable_records_from(redo_start)`` instead).  All reach
the same ``redo_record``, so they cannot disagree on a decision —
Theorem 3 then says the reordered schedule lands on the same state.

Both also make the one decision analysis cannot make for itself: a
recovering machine whose disk holds no page — a cold start whose pages
lived nowhere durable — runs analysis with ``full_scan=True``.  No
checkpoint's installs survived there; only the empty prefix explains an
empty stable state (Corollary 4), so the redo set is the whole log.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable

from repro.logmgr import LogRecord
from repro.obs.trace import traced_segments
from repro.storage.page import Page

# A redo decision is the field set of its ``recovery.record`` trace
# event: ``decision`` is "replayed" or "skipped" (with a ``reason``),
# plus whatever locates it (``page``/``pages``, ``page_lsn``).  The
# methods build them as dict literals — this runs once per record.
NOT_REDO = {"decision": "skipped", "reason": "not_redo_payload"}


def redo_page(pool, page_id: str, lsn: int, mutate: Callable[[Page], None]) -> dict:
    """THE page-LSN redo test, for one page a record writes: a page tag
    at or past the record's LSN says the effect is already installed in
    the stable state; otherwise ``mutate`` replays it against the page
    (stamping ``lsn``, which is what takes the record out of the redo
    set once the page is written)."""
    page = pool.get_page(page_id, create=True)
    if page.lsn >= lsn:
        return {
            "decision": "skipped",
            "reason": "lsn_test",
            "page": page_id,
            "page_lsn": page.lsn,
        }
    pool.update(page_id, mutate)
    return {"decision": "replayed", "page": page_id}


def actions_on(actions, lsn: int, reader=None) -> Callable[[Page], None]:
    """The ``mutate`` that replays a record's page actions in order
    (``reader`` supplies the other pages a §6.4 action reads)."""

    def mutate(page: Page) -> None:
        for action in actions:
            action.apply_to(page, lsn=lsn, reader=reader)

    return mutate


def redo_multipage(pool, record: LogRecord, ordered: Callable[[str], bool]) -> dict:
    """A §6.4 multi-page record is tested per written page — each page
    it wrote carries its LSN, so a crash between the two page writes
    replays only the one still missing — and counts as replayed if any
    page needed it.  A replayed page for which ``ordered(page_id)``
    holds re-arms the careful write ordering against the pages the
    record read, for the recovered incarnation's cache — at once, while
    its write-graph node is still live: a later page's replay can evict
    (and thereby install) this one, and an edge bound afterwards to an
    empty obligation node would block the read page forever."""
    payload = record.payload
    reader = partial(pool.get_page, create=True)
    any_replayed = False
    for page_id, actions in payload.writes.items():
        mutate = actions_on(actions, record.lsn, reader)
        if redo_page(pool, page_id, record.lsn, mutate)["decision"] == "replayed":
            any_replayed = True
            if ordered(page_id):
                for read_id in payload.read_page_ids:
                    if read_id != page_id:
                        pool.add_flush_constraint(page_id, read_id)
    pages = sorted(payload.writes)
    if any_replayed:
        return {"decision": "replayed", "pages": pages}
    return {"decision": "skipped", "reason": "lsn_test", "pages": pages}


def replay(method, records: Iterable[LogRecord]) -> None:
    """THE loop: every record any recovery in ``src/`` replays goes
    through its client's ``redo_record`` here, is counted in the
    client's ``stats``, and — when tracing — leaves one
    ``recovery.record`` event carrying the decision."""
    stats, tracer, redo_record = method.stats, method.tracer, method.redo_record
    for record in records:
        stats.records_scanned += 1
        decision = redo_record(record)
        if decision["decision"] == "replayed":
            stats.records_replayed += 1
        else:
            stats.records_skipped += 1
        if tracer.enabled:
            tracer.event("recovery.record", lsn=record.lsn, **decision)


def _diskless(method) -> bool:
    """Does the recovering machine's disk hold no page at all?"""
    return not method.machine.disk.page_ids()


def _watched(method, records: Iterable[LogRecord]) -> Iterable[LogRecord]:
    """``records`` (a segment run or an LSN-ordered suffix) wrapped in
    per-segment ``recovery.segment`` spans, when tracing is on."""
    if method.tracer.enabled:
        records = traced_segments(method.tracer, method.machine.log, records)
    return records


PlanFor = Callable[[bool], tuple[Any, dict]]


def recover_eager(method, full_scan: bool, plan_for: PlanFor) -> None:
    """Eager schedule: analysis, then the whole redo before returning.
    ``plan_for(full_scan)`` runs on a rebooted pool and returns the plan
    (None for a streamed suffix) and the analysis facts, ``redo_start``
    among them.  A page-wise plan is drained one page's ancestry (its
    chain and the chain prefixes it depends on) at a time; a ``None``
    plan — logical recovery's — streams the suffix from ``redo_start``
    straight off the segmented log."""
    tracer, stats = method.tracer, method.stats
    full_scan = full_scan or _diskless(method)
    span = tracer.span("recovery", method=method.name, full_scan=full_scan)
    before = (stats.records_scanned, stats.records_replayed, stats.records_skipped)
    analysis = tracer.span("recovery.analysis")
    method.machine.reboot_pool()
    plan, found = plan_for(full_scan)
    analysis.end(**found)
    if plan is None:
        log = method.machine.log
        replay(method, _watched(method, log.stable_records_from(found["redo_start"])))
    else:
        plan.drain(partial(_watched, method))
    stats.recoveries += 1
    span.end(
        redo_start=found["redo_start"],
        scanned=stats.records_scanned - before[0],
        replayed=stats.records_replayed - before[1],
        skipped=stats.records_skipped - before[2],
    )


def begin_lazy(method, plan_for: PlanFor):
    """Lazy schedule: analysis only; the returned plan feeds fetched
    chains to :func:`replay` as pages are touched."""
    span = method.tracer.span("recovery.lazy", method=method.name)
    method.machine.reboot_pool()
    plan, found = plan_for(_diskless(method))
    method.stats.recoveries += 1
    span.end(backlog=plan.backlog(), **found)
    return plan
