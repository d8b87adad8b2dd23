"""Unit tests for log records and the log manager."""

import pytest

from repro.logmgr import (
    CheckpointRecord,
    LogManager,
    LogicalRedo,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
    WalViolation,
)
from repro.storage.page import Page


class TestPageAction:
    def test_put(self):
        page = Page("p1")
        PageAction("put", ("k", 5)).apply_to(page, lsn=3)
        assert page.get("k") == 5
        assert page.lsn == 3

    def test_delete(self):
        page = Page("p1", {"k": 5})
        PageAction("delete", ("k",)).apply_to(page)
        assert page.get("k") is None

    def test_add_reads_current_value(self):
        page = Page("p1", {"k": 10})
        PageAction("add", ("k", 7)).apply_to(page)
        assert page.get("k") == 17

    def test_add_missing_cell_starts_at_zero(self):
        page = Page("p1")
        PageAction("add", ("k", 7)).apply_to(page)
        assert page.get("k") == 7

    def test_truncate(self):
        page = Page("p1", {"a": 1, "m": 2, "z": 3})
        PageAction("truncate", ("m",)).apply_to(page, lsn=4)
        assert page.cells == {"a": 1}
        assert page.lsn == 4

    def test_split_move_requires_reader(self):
        page = Page("p2")
        with pytest.raises(ValueError, match="reader"):
            PageAction("split-move", ("p1", "m")).apply_to(page)

    def test_split_move(self):
        source = Page("p1", {"a": 1, "m": 2, "z": 3})
        target = Page("p2", {"stale": 9})
        PageAction("split-move", ("p1", "m")).apply_to(
            target, lsn=5, reader=lambda pid: source
        )
        assert target.cells == {"m": 2, "z": 3}
        assert target.lsn == 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown"):
            PageAction("explode", ()).apply_to(Page("p1"))


def frame_size(payload) -> int:
    """The encoded frame length of ``payload`` logged at LSN 0."""
    from repro.logmgr.records import LogRecord

    return LogRecord(lsn=0, payload=payload).size_bytes()


class TestRecordSizes:
    def test_all_payloads_have_positive_size(self):
        payloads = [
            PhysicalRedo("p1", {"k": 1}),
            PhysiologicalRedo("p1", PageAction("put", ("k", 1))),
            LogicalRedo(("kv-put", "k", 1)),
            MultiPageRedo(("p1",), {"p2": (PageAction("split-move", ("p1", "m")),)}),
            CheckpointRecord(("A",)),
        ]
        for payload in payloads:
            assert frame_size(payload) > 0

    def test_physical_size_grows_with_payload(self):
        small = PhysicalRedo("p1", {"k": 1})
        big = PhysicalRedo("p1", {"k": "x" * 200})
        assert frame_size(big) > frame_size(small)

    def test_multipage_smaller_than_physical_image_of_moved_half(self):
        """The heart of §6.4: a split-move record costs O(1) while the
        physical image of the moved half costs O(contents) — measured on
        the encoded frames."""
        moved_half = {f"key{i}": f"value-{i}" * 3 for i in range(50)}
        physical = PhysicalRedo("new-page", moved_half, whole_page=True)
        generalized = MultiPageRedo(
            ("old-page",),
            {"new-page": (PageAction("split-move", ("old-page", "key25")),)},
        )
        assert frame_size(generalized) < frame_size(physical) / 5


class TestEncodedSizeBytes:
    """``LogRecord.size_bytes`` reports the true on-wire frame length."""

    PAYLOADS = [
        PhysicalRedo("p1", {"k": 1}),
        PhysicalRedo("data003", {"key0001": "value-123" * 3}, whole_page=True),
        PhysiologicalRedo("p1", PageAction("put", ("k", 1))),
        PhysiologicalRedo("data005", PageAction("copycell", ("a", "b", 42))),
        LogicalRedo(("kv-put", "k0001", 12345)),
        MultiPageRedo(("p1",), {"p2": (PageAction("split-move", ("p1", "m")),)}),
        CheckpointRecord(("physiological", {"data001": 5, "data002": 9})),
        CheckpointRecord(("physical",)),
    ]

    def test_size_bytes_is_exact_encoded_length(self):
        from repro.logmgr import encode_record
        from repro.logmgr.records import LogRecord

        for payload in self.PAYLOADS:
            record = LogRecord(lsn=123, payload=payload, labels={"page": "p1"})
            assert record.size_bytes() == len(encode_record(record))

    def test_size_bytes_is_cached(self):
        from repro.logmgr.records import LogRecord

        record = LogRecord(lsn=0, payload=PhysicalRedo("p1", {"k": "v" * 50}))
        first = record.size_bytes()
        assert record.size_bytes() == first
        assert record.__dict__["_frame_size"] == first

    def test_unencodable_payload_falls_back_to_estimate(self):
        """A payload with no wire encoding counts its repr plus an
        8-byte LSN header."""
        from repro.core.model import Operation
        from repro.logmgr.records import LogRecord

        op = Operation("w1", frozenset(), frozenset({"x"}), lambda env: {"x": 1})
        record = LogRecord(lsn=0, payload=op)
        assert record.size_bytes() == len(repr(op)) + 8


class TestLogManager:
    def test_lsns_are_dense_and_increasing(self):
        log = LogManager()
        lsns = [log.append(LogicalRedo(("noop",))).lsn for _ in range(5)]
        assert lsns == [0, 1, 2, 3, 4]
        assert log.next_lsn == 5

    def test_nothing_stable_before_flush(self):
        log = LogManager()
        log.append(LogicalRedo(("a",)))
        assert log.stable_lsn == -1
        assert log.stable_entries() == []

    def test_flush_all(self):
        log = LogManager()
        for i in range(3):
            log.append(LogicalRedo((i,)))
        log.flush()
        assert log.stable_lsn == 2
        assert len(log.stable_entries()) == 3

    def test_partial_flush(self):
        log = LogManager()
        for i in range(5):
            log.append(LogicalRedo((i,)))
        log.flush(up_to_lsn=2)
        assert log.stable_lsn == 2
        assert [e.lsn for e in log.stable_entries()] == [0, 1, 2]

    def test_wal_check(self):
        log = LogManager()
        entry = log.append(LogicalRedo(("a",)))
        with pytest.raises(WalViolation):
            log.wal_check(entry.lsn)
        log.flush()
        log.wal_check(entry.lsn)  # now fine

    def test_crash_truncates_volatile_tail(self):
        log = LogManager()
        log.append(LogicalRedo(("a",)))
        log.flush()
        log.append(LogicalRedo(("b",)))
        log.crash()
        assert len(log) == 1
        assert log.entries()[0].payload == LogicalRedo(("a",))

    def test_entries_from(self):
        log = LogManager()
        for i in range(4):
            log.append(LogicalRedo((i,)))
        log.flush()
        assert [e.lsn for e in log.records_from(2)] == [2, 3]

    def test_byte_accounting(self):
        log = LogManager()
        log.append(PhysicalRedo("p1", {"k": "v" * 50}))
        assert log.total_bytes() > 50
        assert log.stable_bytes() == 0
        log.flush()
        assert log.stable_bytes() == log.total_bytes()
