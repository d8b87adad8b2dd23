"""One spelling per log record: ``accesses()`` and the audit's lifted
function both follow from the interpreter that redo runs.

For generated records of every payload and action kind the KV audit
lifts, over int, absent and ``None`` operands:

- ``accesses()`` names exactly the cells the interpreter touches, read
  off pages whose ``cells`` dict logs every ``get``, ``__setitem__`` and
  ``pop``; a blind write reads nothing;
- the lifted operation computes what :func:`repro.workloads.kv.apply_to_oracle`
  computes for the equivalent command — the oracle is the independent
  reference the audit's own spelling used to be.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import State
from repro.logmgr import (
    TOMBSTONE,
    LogicalRedo,
    LogRecord,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
)
from repro.sim.audit import _lift_record
from repro.storage.page import Page
from repro.workloads.kv import apply_to_oracle

HOME, OTHER = "data000", "data001"
KEYS = ("a", "b", "c")
ABSENT = object()


class _LoggedCells(dict):
    """A page's cells that log what the interpreter does with them."""

    def __init__(self, page_id, initial, touched):
        super().__init__(initial)
        self.page_id, self.touched = page_id, touched

    def get(self, cell, default=None):
        self.touched.add(("read", self.page_id, cell))
        return super().get(cell, default)

    def __setitem__(self, cell, value):
        self.touched.add(("write", self.page_id, cell))
        super().__setitem__(cell, value)

    def pop(self, cell, *default):
        self.touched.add(("write", self.page_id, cell))
        return super().pop(cell, *default)


def _records(command):
    """Every record of the audited kinds that logs ``command``, with the
    page each key lives on (one page, or for ``copyfrom`` the source's
    own page)."""
    kind, key, value = command
    if kind == "put":
        return [
            (PhysicalRedo(HOME, {key: value}), {}),
            (PhysiologicalRedo(HOME, PageAction("put", (key, value))), {}),
            (PhysiologicalRedo(HOME, PageAction("set-meta", (key, value))), {}),
            (LogicalRedo(("kv-put", key, value)), {}),
        ]
    if kind == "delete":
        return [
            (PhysicalRedo(HOME, {key: TOMBSTONE}), {}),
            (PhysiologicalRedo(HOME, PageAction("delete", (key,))), {}),
            (LogicalRedo(("kv-delete", key, None)), {}),
        ]
    if kind == "add":
        return [
            (PhysiologicalRedo(HOME, PageAction("add", (key, value))), {}),
            (LogicalRedo(("kv-add", key, value)), {}),
        ]
    src, delta = value
    records = [
        (PhysiologicalRedo(HOME, PageAction("copycell", (key, src, delta))), {}),
        (LogicalRedo(("kv-copyadd", key, (src, delta))), {}),
    ]
    if src != key:  # keys are unique across pages: a source elsewhere is another key
        action = PageAction("copyfrom", (OTHER, src, key, delta))
        records.append(
            (MultiPageRedo((OTHER,), {HOME: (action,)}), {src: OTHER})
        )
    return records


def _run_logged(payload, initial, placed):
    """Run the interpreter redo runs for ``payload`` against logged pages
    holding ``initial``; returns the (read|write, page, cell) touches."""
    touched = set()
    if isinstance(payload, LogicalRedo):
        # A logical record names no page: one page (id None) holds every key.
        page = Page("logical")
        page.cells = _LoggedCells(None, initial, touched)
        payload.apply_to(lambda _key: page, lambda _key: page)
        return touched
    pages = {}
    for page_id in (HOME, OTHER):
        cells = {k: v for k, v in initial.items() if placed.get(k, HOME) == page_id}
        pages[page_id] = Page(page_id)
        pages[page_id].cells = _LoggedCells(page_id, cells, touched)
    if isinstance(payload, PhysicalRedo):
        payload.apply_to(pages[HOME])
    elif isinstance(payload, PhysiologicalRedo):
        payload.action.apply_to(pages[HOME], lsn=1)
    else:
        for page_id, actions in payload.writes.items():
            for action in actions:
                action.apply_to(pages[page_id], lsn=1, reader=pages.__getitem__)
    return touched


operands = st.one_of(st.integers(-5, 5), st.none(), st.just(ABSENT))
keys = st.sampled_from(KEYS)
commands = st.one_of(
    st.tuples(st.just("put"), keys, st.one_of(st.integers(-5, 5), st.none())),
    st.tuples(st.just("delete"), keys, st.none()),
    st.tuples(st.just("add"), keys, st.integers(-5, 5)),
    st.tuples(st.just("copyadd"), keys, st.tuples(keys, st.integers(-5, 5))),
)


class TestOneSpelling:
    @settings(max_examples=300, deadline=None)
    @given(command=commands, values=st.tuples(operands, operands, operands))
    def test_accesses_and_lifted_function_follow_the_interpreter(
        self, command, values
    ):
        initial = {k: v for k, v in zip(KEYS, values) if v is not ABSENT}
        state = State(default=None)
        for key, value in initial.items():
            state.set(key, value)
        setup = [("put", key, value) for key, value in initial.items()]
        expected = apply_to_oracle(setup + [command])

        for payload, placed in _records(command):
            reads, writes = payload.accesses()
            touched = _run_logged(payload, initial, placed)
            assert {(p, c) for what, p, c in touched if what == "read"} == reads, payload
            assert {(p, c) for what, p, c in touched if what == "write"} == writes, payload
            if command[0] in ("put", "delete"):
                assert not reads, f"blind write {payload} reads {reads}"

            lifted = _lift_record(LogRecord(7, payload))
            assert lifted.read_set == {cell for _, cell in reads}
            assert lifted.write_set == {cell for _, cell in writes}
            written = lifted.evaluate(state)
            assert written == {key: expected.get(key) for key in lifted.write_set}, payload
