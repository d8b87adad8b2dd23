"""Round-trip and torn-tail tests for the binary wire format.

The property half generates randomized instances of every payload type
(all ``PageAction`` kinds, labels, checkpoints) from seeded ``Random``
streams and asserts encode→decode is the identity.  The adversarial half
flips bytes, truncates frames, and checks the torn-tail rule: a damaged
record ends the stable log, cleanly, every time.
"""

import copy
import pickle
import random

import pytest

from repro.logmgr.codec import (
    FILE_HEADER_SIZE,
    FRAME_PREFIX_SIZE,
    CodecError,
    LazyRecord,
    TornTail,
    decode_file_header,
    encode_file_header,
    encode_record,
    encode_value,
    encode_window,
    decode_value,
    read_frame_at,
    walk_frames,
)
from repro.logmgr.records import (
    CheckpointRecord,
    LogRecord,
    LogicalRedo,
    MultiPageRedo,
    PageAction,
    PhysicalRedo,
    PhysiologicalRedo,
    TOMBSTONE,
)

def decoded(lsn: int, body: bytes) -> LazyRecord:
    """One record's ``payload | labels`` bytes, decoded at once (a
    malformed body raises :class:`CodecError` here, not on first use)."""
    record = LazyRecord(lsn, bytes(body))
    record.payload
    return record


def frame_at(buf: bytes, offset: int):
    """One frame at ``offset`` through the walker recovery uses:
    ``(record, next offset)``; a tear raises :class:`TornTail`."""
    lsn, lo, hi = read_frame_at(buf, offset)
    return decoded(lsn, buf[lo:hi]), hi


def records_until_tear(buf: bytes):
    """Every record the walker reaches before the data ends or tears —
    the torn-tail rule as every production scan applies it."""
    try:
        for lsn, lo, hi in walk_frames(buf, 0):
            yield decoded(lsn, buf[lo:hi])
    except TornTail:
        return


ACTION_KINDS = (
    "put",
    "delete",
    "add",
    "split-move",
    "truncate",
    "set-meta",
    "copycell",
    "copyfrom",
)


def random_value(rng: random.Random, depth: int = 0):
    """One random codec-representable value (bounded nesting)."""
    scalar_makers = [
        lambda: None,
        lambda: rng.choice([True, False]),
        lambda: rng.randint(-(2**62), 2**62),
        lambda: rng.randint(2**64, 2**80),  # forces the bigint path
        lambda: rng.random() * 1e6 - 5e5,
        lambda: "".join(rng.choices("abcxyz-éλ0123", k=rng.randint(0, 12))),
        lambda: bytes(rng.randbytes(rng.randint(0, 16))),
        lambda: TOMBSTONE,
    ]
    makers = list(scalar_makers)
    if depth < 2:
        makers += [
            lambda: tuple(random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))),
            lambda: [random_value(rng, depth + 1) for _ in range(rng.randint(0, 3))],
            lambda: {
                rng.choice(["a", "b", "c", 1, 2]): random_value(rng, depth + 1)
                for _ in range(rng.randint(0, 3))
            },
        ]
    return rng.choice(makers)()


def random_action(rng: random.Random) -> PageAction:
    """A random action of a random kind with shape-correct args."""
    kind = rng.choice(ACTION_KINDS)
    if kind in ("put", "set-meta"):
        args = (f"k{rng.randint(0, 99)}", random_value(rng))
    elif kind == "delete":
        args = (f"k{rng.randint(0, 99)}",)
    elif kind == "add":
        args = (f"k{rng.randint(0, 99)}", rng.randint(-50, 50))
    elif kind == "split-move":
        args = (f"page{rng.randint(0, 9)}", f"k{rng.randint(0, 99)}")
    elif kind == "truncate":
        args = (f"k{rng.randint(0, 99)}",)
    elif kind == "copycell":
        args = (f"a{rng.randint(0, 9)}", f"b{rng.randint(0, 9)}", rng.randint(-9, 9))
    else:  # copyfrom
        args = (
            f"page{rng.randint(0, 9)}",
            f"src{rng.randint(0, 9)}",
            f"dst{rng.randint(0, 9)}",
            rng.randint(-9, 9),
        )
    return PageAction(kind, args)


def random_payload(rng: random.Random):
    """A random instance of a random §6 payload type."""
    choice = rng.randrange(5)
    if choice == 0:
        cells = {
            f"k{rng.randint(0, 99)}": random_value(rng)
            for _ in range(rng.randint(0, 5))
        }
        return PhysicalRedo(
            f"page{rng.randint(0, 9)}", cells, whole_page=rng.random() < 0.3
        )
    if choice == 1:
        return PhysiologicalRedo(f"page{rng.randint(0, 9)}", random_action(rng))
    if choice == 2:
        return LogicalRedo(
            tuple(random_value(rng) for _ in range(rng.randint(1, 4)))
        )
    if choice == 3:
        writes = {
            f"page{rng.randint(0, 9)}": tuple(
                random_action(rng) for _ in range(rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 3))
        }
        reads = tuple(f"page{rng.randint(0, 9)}" for _ in range(rng.randint(0, 2)))
        return MultiPageRedo(reads, writes)
    return CheckpointRecord(
        tuple(random_value(rng) for _ in range(rng.randint(0, 3)))
    )


def random_record(rng: random.Random, lsn: int) -> LogRecord:
    """A random record with random labels."""
    labels = {
        rng.choice(["page", "note", "image", "origin"]): random_value(rng)
        for _ in range(rng.randint(0, 2))
    }
    return LogRecord(lsn=lsn, payload=random_payload(rng), labels=labels)


class TestValueRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_values_round_trip(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            value = random_value(rng)
            out = bytearray()
            encode_value(value, out)
            decoded, end = decode_value(bytes(out), 0)
            assert decoded == value
            assert end == len(out)

    def test_bool_is_not_confused_with_int(self):
        for value in (True, False, 0, 1):
            out = bytearray()
            encode_value(value, out)
            decoded, _ = decode_value(bytes(out), 0)
            assert decoded == value and type(decoded) is type(value)

    def test_bigint_beyond_i64(self):
        for value in (2**63, -(2**63) - 1, 10**40, -(10**40)):
            out = bytearray()
            encode_value(value, out)
            decoded, _ = decode_value(bytes(out), 0)
            assert decoded == value

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError, match="no wire encoding"):
            encode_value(object(), bytearray())

    def test_truncated_value_raises_codec_error(self):
        out = bytearray()
        encode_value("hello world", out)
        with pytest.raises(CodecError, match="truncated"):
            decode_value(bytes(out[:-3]), 0)

    def test_tombstone_is_one_tag_and_decodes_as_itself(self):
        out = bytearray()
        encode_value(TOMBSTONE, out)
        assert bytes(out) == b"\x0b"
        assert decode_value(bytes(out), 0) == (TOMBSTONE, 1)
        assert decode_value(bytes(out), 0)[0] is TOMBSTONE

    def test_tombstone_survives_copy_and_pickle_as_itself(self):
        cells = {"k": TOMBSTONE}
        assert copy.copy(TOMBSTONE) is TOMBSTONE
        assert copy.deepcopy(cells)["k"] is TOMBSTONE
        assert pickle.loads(pickle.dumps(cells))["k"] is TOMBSTONE

    def test_unknown_value_tag_raises(self):
        with pytest.raises(CodecError, match="unknown value tag 0x0c"):
            decode_value(b"\x0c", 0)


class TestRecordRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_records_round_trip(self, seed):
        rng = random.Random(1000 + seed)
        for lsn in range(30):
            record = random_record(rng, lsn)
            frame = encode_record(record)
            decoded, end = frame_at(frame, 0)
            assert end == len(frame)
            assert decoded.lsn == record.lsn
            assert decoded.payload == record.payload
            assert decoded.labels == record.labels

    def test_every_action_kind_round_trips(self):
        rng = random.Random(7)
        kinds_seen = set()
        for _ in range(400):
            action = random_action(rng)
            kinds_seen.add(action.kind)
            record = LogRecord(lsn=0, payload=PhysiologicalRedo("p", action))
            decoded, _ = frame_at(encode_record(record), 0)
            assert decoded.payload.action == action
        assert kinds_seen == set(ACTION_KINDS)

    def test_unencodable_payload_raises(self):
        record = LogRecord(lsn=0, payload=("not", "a", "payload"))
        with pytest.raises(CodecError, match="no wire encoding"):
            encode_record(record)


class TestTornTail:
    def _frames(self, n=5):
        rng = random.Random(42)
        return [encode_record(random_record(rng, lsn)) for lsn in range(n)]

    def test_clean_buffer_decodes_fully(self):
        frames = self._frames()
        buf = b"".join(frames)
        assert [r.lsn for r in records_until_tear(buf)] == [0, 1, 2, 3, 4]

    def test_truncated_last_frame_ends_stream(self):
        frames = self._frames()
        buf = b"".join(frames)[:-3]  # tear inside the last frame
        assert [r.lsn for r in records_until_tear(buf)] == [0, 1, 2, 3]

    def test_corrupted_byte_ends_stream_at_that_record(self):
        frames = self._frames()
        # Flip a byte in the body of frame 2.
        offset = len(frames[0]) + len(frames[1]) + FRAME_PREFIX_SIZE + 2
        buf = bytearray(b"".join(frames))
        buf[offset] ^= 0xFF
        assert [r.lsn for r in records_until_tear(bytes(buf))] == [0, 1]

    def test_decode_frame_reports_tear_offset_and_reason(self):
        frames = self._frames(2)
        buf = b"".join(frames)[:-1]
        _, offset = frame_at(buf, 0)
        with pytest.raises(TornTail) as info:
            frame_at(buf, offset)
        assert info.value.offset == offset
        assert "truncated" in info.value.reason

    def test_crc_mismatch_is_a_tear_not_an_error(self):
        frame = bytearray(self._frames(1)[0])
        frame[-1] ^= 0x01
        with pytest.raises(TornTail, match="crc mismatch"):
            frame_at(bytes(frame), 0)

    def test_bytes_after_a_tear_are_never_decoded(self):
        """The torn-tail rule: even a perfectly valid frame after a torn
        one is firmware noise, not history."""
        frames = self._frames(3)
        damaged = bytearray(frames[1])
        damaged[FRAME_PREFIX_SIZE] ^= 0xFF
        buf = frames[0] + bytes(damaged) + frames[2]
        assert [r.lsn for r in records_until_tear(buf)] == [0]


class TestFileHeader:
    def test_round_trip(self):
        header = encode_file_header(123456)
        assert len(header) == FILE_HEADER_SIZE
        assert decode_file_header(header) == 123456

    def test_bad_magic_raises(self):
        header = bytearray(encode_file_header(0))
        header[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            decode_file_header(bytes(header))

    def test_short_header_raises(self):
        with pytest.raises(CodecError, match="shorter"):
            decode_file_header(b"RL")


class TestWindowEncoding:
    """The batch encoder is a pure packing optimization: its output must
    be byte-identical to the per-record encoder's frames, concatenated."""

    def _random_records(self, seed: int, n: int = 40) -> list:
        rng = random.Random(seed)
        return [random_record(rng, lsn) for lsn in range(n)]

    @pytest.mark.parametrize("seed", range(6))
    def test_window_bytes_identical_to_per_record_frames(self, seed):
        records = self._random_records(seed)
        window = bytes(encode_window(records))
        assert window == b"".join(encode_record(record) for record in records)

    def test_window_round_trips_every_payload_kind(self):
        payloads = [PhysiologicalRedo("p1", PageAction(kind, args)) for kind, args in [
            ("put", ("k1", 7)),
            ("delete", ("k1",)),
            ("add", ("k2", -3)),
            ("split-move", ("p2", "k9")),
            ("truncate", ("k5",)),
            ("set-meta", ("root", "p3")),
            ("copycell", ("a1", "b1", 4)),
            ("copyfrom", ("p4", "src", "dst", 2)),
        ]]
        payloads += [
            PhysicalRedo("p9", {"k": [1, "x", None]}, whole_page=True),
            LogicalRedo(("op", ("nested",), {"m": 2})),
            MultiPageRedo(("p1",), {"p2": (PageAction("put", ("k", 1)),)}),
            CheckpointRecord(("state", 42)),
        ]
        records = [
            LogRecord(lsn=i, payload=p, labels={"page": f"p{i}"} if i % 2 else {})
            for i, p in enumerate(payloads)
        ]
        buf = encode_file_header(0) + bytes(encode_window(records))
        read_back = [
            decoded(lsn, buf[lo:hi])
            for lsn, lo, hi in walk_frames(buf)
        ]
        assert read_back == records
        assert [r.labels for r in read_back] == [r.labels for r in records]

    @pytest.mark.parametrize("seed", range(3))
    def test_window_annotates_exact_frame_sizes(self, seed):
        records = self._random_records(seed, n=25)
        encode_window(records)
        for record in records:
            cached = record.__dict__["_frame_size"]  # filled by the window
            assert record.size_bytes() == cached == len(encode_record(record))

    def test_empty_window_raises(self):
        with pytest.raises(CodecError, match="empty window"):
            encode_window([])


class TestEncodedSizeProperty:
    """``record.size_bytes() == len(encode_record(record))``: a record's
    byte count is its encoded frame, for every value and payload kind,
    for fresh records and for records read back from a cold start."""

    @staticmethod
    def fresh(record: LogRecord) -> LogRecord:
        """A copy with nothing cached, so ``size_bytes`` encodes it."""
        return LogRecord(lsn=record.lsn, payload=record.payload, labels=record.labels)

    @pytest.mark.parametrize("seed", range(10))
    def test_analytic_size_matches_wire_for_random_records(self, seed):
        rng = random.Random(1000 + seed)
        for lsn in range(30):
            record = random_record(rng, lsn)
            assert record.size_bytes() == len(encode_record(self.fresh(record)))

    def test_analytic_size_matches_for_every_action_kind(self):
        cases = [
            ("put", ("k1", {"nested": (1, 2.5, None, True)})),
            ("delete", ("k1",)),
            ("add", ("k2", 10**25)),
            ("split-move", ("p2", "k9")),
            ("truncate", ("k5",)),
            ("set-meta", ("root", b"\x00\xff")),
            ("copycell", ("a1", "b1", 4)),
            ("copyfrom", ("p4", "src", "dst", 2)),
        ]
        for lsn, (kind, args) in enumerate(cases):
            record = LogRecord(
                lsn=lsn,
                payload=PhysiologicalRedo("p1", PageAction(kind, args)),
                labels={"origin": "test"},
            )
            assert record.size_bytes() == len(encode_record(self.fresh(record)))

    PAYLOADS = [
        PhysicalRedo("p1", {"k": "v"}, whole_page=False),
        PhysiologicalRedo("p1", PageAction("put", ("k", 1))),
        LogicalRedo(("op", [1, 2], {"a": "b"})),
        MultiPageRedo(("p1", "p2"), {"p3": (PageAction("delete", ("k",)),)}),
        CheckpointRecord((("dirty", "p1"),)),
    ]

    def test_analytic_size_matches_for_every_payload_class(self):
        for lsn, payload in enumerate(self.PAYLOADS):
            record = LogRecord(lsn=lsn, payload=payload, labels={})
            assert record.size_bytes() == len(encode_record(self.fresh(record)))

    def test_analytic_size_matches_for_every_value_kind(self):
        values = [None, True, False, 0, -1, 2**40, -(2**70), 3.14, "", "héλ",
                  b"", b"\x01\x02", (), (1, (2,)), [], [1, [2]], {}, {"k": {"n": 1}},
                  TOMBSTONE]
        for lsn, value in enumerate(values):
            record = LogRecord(
                lsn=lsn,
                payload=PhysiologicalRedo("p1", PageAction("put", ("k", value))),
                labels={"v": value},
            )
            assert record.size_bytes() == len(encode_record(self.fresh(record)))

    def test_record_read_back_from_a_cold_start_counts_its_frame(self, tmp_path):
        from repro.logmgr import LogManager

        warm = LogManager.open(tmp_path, segment_size=2, fsync=False)
        appended = [warm.append(payload, page="p1") for payload in self.PAYLOADS]
        warm.flush()
        warm.store.close()
        cold = LogManager.open(tmp_path, segment_size=2, fsync=False)
        read_back = list(cold.stable_records_from(0))
        assert len(read_back) == len(self.PAYLOADS)
        for record in read_back:
            assert isinstance(record, LazyRecord)
            frame = encode_record(LogRecord(record.lsn, record.payload, record.labels))
            assert record.size_bytes() == len(frame)
        assert cold.stable_bytes() == sum(
            len(encode_record(record)) for record in appended
        )
        cold.store.close()

    def test_tombstone_read_back_from_a_cold_start_is_itself(self, tmp_path):
        from repro.logmgr import LogManager

        warm = LogManager.open(tmp_path, fsync=False)
        warm.append(PhysicalRedo("p1", {"k": TOMBSTONE, "j": 1}))
        warm.flush()
        warm.store.close()
        cold = LogManager.open(tmp_path, fsync=False)
        (record,) = cold.stable_records_from(0)
        assert isinstance(record, LazyRecord)
        assert record.payload.cells["k"] is TOMBSTONE
        assert record.payload.cells["j"] == 1
        cold.store.close()
