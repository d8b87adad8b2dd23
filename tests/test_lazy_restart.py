"""Lazy restart ("instant restart") tests.

Covers the whole stack the per-page redo index enables: index/sidecar
correctness against the frame walk, analysis-only cold starts that
serve immediately (reads before the backlog drains must match an eager
cold start — Corollary 4 page by page), the on-demand fault path
through the buffer pool, checkpoint/quiesce safety while a backlog is
outstanding, backward compatibility with sidecar-less ("v1") segment
directories, and the ``logdump --pages`` verification contract.
"""

import random
import re
import shutil
import struct
import threading
import time
import zlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.engine import KVDatabase
from repro.logmgr.codec import FILE_HEADER_SIZE, encode_file_header, encode_record
from repro.logmgr.filelog import SegmentReader, pages_path, segment_filename
from repro.logmgr.pageindex import (
    PAGES_HEADER_SIZE,
    PageRedoIndex,
    SegmentPageIndex,
    encode_page_index,
    parse_page_index,
)
from repro.logmgr.records import LogRecord, PhysicalRedo
from repro.methods.base import page_of
from repro.methods.lazy import PagewiseLazyPlan
from repro.methods.physiological import analysis_pass
from repro.methods.redo import replay
from repro.sim.crash import canonical_state
from repro.storage import Disk

ALL_METHODS = ["logical", "physical", "physiological", "generalized"]
# Methods whose lazy plan is page-granular (per-page chains); logical
# recovery is suffix-granular (one global chain) and is tested apart.
PAGE_METHODS = ["physical", "physiological", "generalized"]


def mixed_stream(method, n=120):
    """Puts/adds/deletes, plus cross-page copyadds where the method
    supports them (physiological §6.3 is single-page by definition)."""
    ops = []
    for i in range(n):
        k = f"k{i % 17}"
        if method != "physiological" and i % 11 == 7:
            ops.append(("copyadd", f"d{i % 5}", (k, i)))
        elif i % 7 == 3:
            ops.append(("add", k, i))
        elif i % 13 == 9:
            ops.append(("delete", k, None))
        else:
            ops.append(("put", k, i * 10))
    return ops


def build_crashed(root, method, ckpt=25, n=120, ops=None, **engine):
    """A database crashed mid-workload over a real segment directory,
    small segments so several sealed sidecars exist."""
    db = KVDatabase(
        method=method,
        n_pages=8,
        log_dir=root,
        fsync=False,
        checkpoint_every=ckpt,
        log_segment_size=32,
        **engine,
    )
    db.run(mixed_stream(method, n) if ops is None else ops)
    db.crash()
    return db


def region_crc(sidecar):
    """The CRC of the frame region of the segment ``sidecar`` belongs to."""
    segment = sidecar.with_name(sidecar.name.removesuffix(".pages"))
    return zlib.crc32(segment.read_bytes()[FILE_HEADER_SIZE:])


def to_pre_merge(segment):
    """Give ``segment`` the two sidecars it had before its seal moved
    into the page-index sidecar: a 20-byte ``RSEA`` seal file and a
    version-1 ``RPGX`` page index (same payload, no region CRC)."""
    sidecar = pages_path(segment)
    payload = sidecar.read_bytes()[PAGES_HEADER_SIZE:]
    region = segment.read_bytes()[FILE_HEADER_SIZE:]
    with SegmentReader(segment) as reader:
        base_lsn, count = reader.base_lsn, sum(1 for _ in reader.views())
    segment.with_name(segment.name + ".seal").write_bytes(
        struct.pack("<4sIQI", b"RSEA", zlib.crc32(region), len(region), count)
    )
    sidecar.write_bytes(
        struct.pack(
            "<4sBQQII", b"RPGX", 1, base_lsn, len(region), len(payload),
            zlib.crc32(payload),
        )
        + payload
    )


def survivor(db):
    """An independent copy of the crashed machine's disk."""
    disk = Disk()
    for page in db.method.machine.disk.snapshot().values():
        disk.write_page(page.copy())
    return disk


def cold(root, method, ckpt=25, **kwargs):
    return KVDatabase.cold_start(
        root,
        method=method,
        n_pages=8,
        checkpoint_every=ckpt,
        log_segment_size=32,
        fsync=False,
        **kwargs,
    )


class TestPageRedoIndex:
    def test_sidecar_index_equals_scan_index(self, tmp_path):
        """The sidecar fast path and the rebuild scan are the same index:
        strip every sidecar and the chains and edges must not change."""
        db = build_crashed(tmp_path, "generalized")
        db.close()
        via_sidecars = cold(tmp_path, "generalized", recover=False)
        index_a = via_sidecars.method.machine.log.page_index()
        assert index_a.sidecars_used > 0
        via_sidecars.close()
        for sidecar in tmp_path.glob("*.pages"):
            sidecar.unlink()
        via_scan = cold(tmp_path, "generalized", recover=False)
        index_b = via_scan.method.machine.log.page_index()
        assert index_b.sidecars_used == 0
        assert index_b.scans == index_b.segments_indexed
        via_scan.close()
        assert index_a.pages() == index_b.pages()
        for page_id in index_a.pages():
            assert index_a.chain(page_id) == index_b.chain(page_id)
        assert index_a.edges == index_b.edges

    def test_damaged_payload_under_a_good_seal_falls_back_to_the_scan(
        self, tmp_path
    ):
        """A sidecar whose seal still holds but whose payload fails its
        CRC is ignored by the index load alone: that segment is
        rebuilt by a scan, and the index does not change."""
        build_crashed(tmp_path, "generalized").close()
        intact = cold(tmp_path, "generalized", recover=False)
        index_a = intact.method.machine.log.page_index()
        intact.close()
        victim = sorted(tmp_path.glob("*.pages"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with SegmentReader(victim.with_name(victim.name.removesuffix(".pages"))) as reader:
            assert reader.sealed
        damaged = cold(tmp_path, "generalized", recover=False)
        index_b = damaged.method.machine.log.page_index()
        damaged.close()
        assert index_b.sidecars_used == index_a.sidecars_used - 1
        assert index_b.scans == index_a.scans + 1
        for page_id in index_a.pages():
            assert index_a.chain(page_id) == index_b.chain(page_id)
        assert index_a.edges == index_b.edges

    def test_chain_filtering_and_first_lsn(self):
        index = PageRedoIndex(start_lsn=10)
        index.add_segment(
            SegmentPageIndex(
                base_lsn=0,
                region_len=100,
                pages={"data001": [12, 5, 40, 12, 60, 20]},
                edges=[(15, ("data001",), ("data002",))],
            )
        )
        # The lsn-5 entry is below start_lsn and never enters the index.
        assert index.chain("data001") == [(0, 40, 12), (0, 60, 20)]
        assert index.chain("data001", start_lsn=15) == [(0, 60, 20)]
        # A cursor is the index's own chain and the first position at or
        # above an LSN: a plan's replay start, found without a copy.
        chain, position = index.cursor("data001")
        assert chain is index.cursor("data001", start_lsn=13)[0]
        assert position == 0 and chain[position][2] == 12
        assert index.cursor("data001", start_lsn=13)[1] == 1
        assert index.cursor("data001", start_lsn=21)[1] == len(chain) == 2
        assert index.cursor("absent") == ([], 0)
        assert index.edges == [(15, ("data001",), ("data002",))]

    @staticmethod
    def _plan_over(chains, edges):
        """A plan over a hand-built index whose every page is pending
        from its head, and the LSNs each fault replays, in order."""
        replayed = []
        method = SimpleNamespace(
            stats=SimpleNamespace(
                records_scanned=0, records_replayed=0, records_skipped=0
            ),
            tracer=SimpleNamespace(enabled=False),
            redo_record=lambda record: replayed.append(record.lsn)
            or {"decision": "replayed"},
            machine=SimpleNamespace(
                pool=SimpleNamespace(mutex=threading.RLock(), page_fault=None),
                log=SimpleNamespace(
                    store=None,
                    fetch_chain=lambda run: [SimpleNamespace(lsn=e[2]) for e in run],
                ),
            ),
        )
        index = PageRedoIndex()
        index.add_segment(
            SegmentPageIndex(
                base_lsn=0,
                region_len=100,
                pages={
                    page: [field for lsn in lsns for field in (lsn, lsn)]
                    for page, lsns in chains.items()
                },
                edges=edges,
            )
        )
        plan = PagewiseLazyPlan(method, index, {page: index.cursor(page) for page in chains})
        return plan, replayed

    def test_fault_replays_the_ancestry_prefix_of_each_chain(self):
        """A fault pulls in the faulted page's whole chain, every record
        that reads it, and, per multi-page record, just the chain
        prefixes its conflict edges reach; the pages left partly
        replayed finish on their own fault, and no record replays twice."""
        cases = {
            # wr: the copy at 4 reads a, so a replays strictly below 4.
            "wr": (
                {"a": [1, 3, 6], "b": [2, 4, 5]},
                [(4, ("a",), ("b",))],
                "b", [1, 2, 3, 4, 5], {"a": [6]},
            ),
            # ww: the record at 3 writes a and b, so b replays through 3.
            "ww": (
                {"a": [1, 3, 5], "b": [2, 3, 4]},
                [(3, (), ("a", "b"))],
                "a", [1, 2, 3, 5], {"b": [4]},
            ),
            # rw: c's copy at 5 covers a below 5; the copy at 3 reads a
            # before a's write at 4, so it (and b's chain through it)
            # replays before a moves past it.
            "rw": (
                {"a": [1, 4, 6], "b": [2, 3, 7], "c": [5]},
                [(3, ("a",), ("b",)), (5, ("a",), ("c",))],
                "c", [1, 2, 3, 4, 5], {"a": [6], "b": [7]},
            ),
            # The faulted page may be written next: the copy at 2 reads a
            # after a's last write, and still replays before the caller
            # gets a, whether a has a chain left or is clean.
            "rw-root": (
                {"a": [1], "b": [2, 4]},
                [(2, ("a",), ("b",))],
                "a", [1, 2], {"b": [4]},
            ),
            "rw-clean": (
                {"b": [2, 4]},
                [(2, ("a",), ("b",))],
                "a", [2], {"b": [4]},
            ),
        }
        for name, (chains, edges, fault, first, rest) in cases.items():
            plan, replayed = self._plan_over(chains, edges)
            assert plan.fault(fault)
            assert replayed == first, name
            assert plan.backlog() == len(rest), name
            for page, lsns in rest.items():
                replayed.clear()
                assert plan.fault(page)
                assert replayed == lsns, (name, page)
            assert plan.done and not plan.fault(fault), name

    def test_sidecar_roundtrip_and_rejection(self):
        index = SegmentPageIndex(
            base_lsn=7,
            region_len=123,
            pages={"data000": [13, 7, 55, 9]},
            edges=[(8, ("data000",), ("data001",))],
        )
        blob = encode_page_index(index, 0xDEADBEEF)
        assert parse_page_index(blob) == index
        assert parse_page_index(None) is None
        assert parse_page_index(blob[:10]) is None  # truncated header
        assert parse_page_index(b"XXXX" + blob[4:]) is None  # bad magic
        assert parse_page_index(blob[:4] + b"\x01" + blob[5:]) is None  # version 1
        corrupt = bytearray(blob)
        corrupt[-1] ^= 0xFF
        assert parse_page_index(bytes(corrupt)) is None  # payload CRC


class TestLazyMatchesEager:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("ckpt", [None, 25])
    def test_serve_during_recovery_and_post_drain_identity(
        self, method, ckpt, tmp_path
    ):
        """The instant-restart contract: reads during recovery return
        exactly what an eager cold start would, writes land, and after
        the backlog drains the two incarnations are byte-identical."""
        db = build_crashed(tmp_path, method, ckpt=ckpt)
        disk_eager, disk_lazy = survivor(db), survivor(db)
        db.close()
        eager = cold(tmp_path, method, ckpt=ckpt, disk=disk_eager)
        lazy = cold(tmp_path, method, ckpt=ckpt, disk=disk_lazy, lazy=True)
        # Serve during recovery: every key, before the drain finishes.
        for i in range(17):
            assert lazy.get(f"k{i}") == eager.get(f"k{i}"), (method, ckpt, i)
        for i in range(5):
            assert lazy.get(f"d{i}") == eager.get(f"d{i}")
        # Writes during recovery land on both incarnations.
        lazy.execute(("put", "fresh", 777))
        eager.execute(("put", "fresh", 777))
        lazy.drain_lazy()
        assert lazy.replay_backlog() == 0
        health = lazy.health()
        assert health["state"] == "ready"
        assert health["replay_backlog"] == 0
        eager.quiesce()
        lazy.quiesce()
        assert canonical_state(eager) == canonical_state(lazy), (method, ckpt)
        eager.close()
        lazy.close()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_second_crash_before_drain_converges(self, method, tmp_path):
        """Crash again while the backlog is still outstanding: the
        records are all still in the log, so the next cold start (eager)
        lands exactly where an eager start before the crash would."""
        db = build_crashed(tmp_path, method)
        disk_a, disk_b = survivor(db), survivor(db)
        db.close()
        lazy = cold(tmp_path, method, disk=disk_a, lazy=True)
        lazy.crash()  # abandons the backlog, replays nothing more
        lazy.method.machine.log.store.close()
        recovered = cold(
            tmp_path, method, disk=lazy.method.machine.disk
        )
        baseline = cold(tmp_path, method, disk=disk_b)
        recovered.quiesce()
        baseline.quiesce()
        assert canonical_state(recovered) == canonical_state(baseline)
        recovered.close()
        baseline.close()


class TestSameDecisions:
    """Eager and lazy recovery share one ``redo_record`` per method, so
    they must agree decision for decision, not only byte for byte."""

    @staticmethod
    def _replayed_lsns(sink):
        from repro.obs.timeline import RecoveryTimeline

        return {
            event["fields"]["lsn"]
            for event in RecoveryTimeline.from_sink(sink).events("recovery.record")
            if event["fields"]["decision"] == "replayed"
        }

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("ckpt", [None, 25])
    def test_eager_and_lazy_replay_the_same_lsns(self, method, ckpt, tmp_path):
        from repro.obs.trace import RingBufferSink, Tracer

        db = build_crashed(tmp_path, method, ckpt=ckpt)
        disks = survivor(db), survivor(db)
        db.close()
        replayed, counts = [], []
        for disk, lazy in zip(disks, (False, True)):
            sink = RingBufferSink()
            restarted = cold(
                tmp_path, method, ckpt=ckpt, disk=disk,
                recover=False, tracer=Tracer(sink),
            )
            if lazy:
                restarted.method.begin_lazy_recovery().drain()
            else:
                restarted.method.recover()
            replayed.append(self._replayed_lsns(sink))
            counts.append(restarted.method.stats.records_replayed)
            restarted.close()
        assert replayed[0] == replayed[1], (method, ckpt)
        assert replayed[0], "the survivor state must leave something to redo"
        assert counts[0] == counts[1] == len(replayed[0])

    @pytest.mark.parametrize("method", ["physical", "physiological"])
    def test_partitioned_redo_option_is_gone(self, method):
        """The opt-in partitioned driver was removed, not left ignored."""
        with pytest.raises(TypeError):
            KVDatabase(method=method, method_options={"parallel_recovery": True})


class TestAncestryFaultOrders:
    """Seeded generalized histories, copyadds included, restarted over
    the pages their crash left: a lazy restart faulted by gets in a
    random order and then drained must land byte for byte where the
    eager and the warm restarts land, by the same redo decisions, and
    where the LSN-ordered scan lands (the one schedule not drawn from
    the ancestry)."""

    KEYS = [f"k{i}" for i in range(24)]

    @classmethod
    def _history(cls, rng, n=160):
        ops = []
        for i in range(n):
            key, roll = rng.choice(cls.KEYS), rng.random()
            if roll < 0.3:
                ops.append(("copyadd", key, (rng.choice(cls.KEYS), rng.randint(1, 9))))
            elif roll < 0.5:
                ops.append(("add", key, rng.randint(1, 9)))
            elif roll < 0.55:
                ops.append(("delete", key, None))
            else:
                ops.append(("put", key, i))
        return ops

    @staticmethod
    def _decisions(sink):
        from repro.obs.timeline import RecoveryTimeline

        return Counter(
            tuple(sorted((k, str(v)) for k, v in event["fields"].items()))
            for event in RecoveryTimeline.from_sink(sink).events("recovery.record")
        )

    @pytest.mark.parametrize("seed", range(24))
    def test_random_faults_then_drain_equal_eager_and_warm(self, seed, tmp_path):
        from repro.obs.trace import RingBufferSink, Tracer

        rng = random.Random(seed)
        engine = dict(
            method="generalized", n_pages=12, cache_capacity=rng.choice([3, 6, 12]),
            checkpoint_every=rng.choice([None, 30, 70]), log_segment_size=32,
            fsync=False,
        )
        warm_sink = RingBufferSink()
        db = KVDatabase(log_dir=tmp_path, tracer=Tracer(warm_sink), **engine)
        db.run(self._history(rng))
        db.crash()
        if seed % 3 == 0:  # nothing installed survives: replay it all
            for page_id in db.method.machine.disk.page_ids():
                db.method.machine.disk.drop_page(page_id)
        disks = survivor(db), survivor(db), survivor(db)
        warm_sink.records.clear()
        db.recover()
        states, decisions = [], [self._decisions(warm_sink)]
        for disk, how in zip(disks, ("eager", "lazy", "scan")):
            sink = RingBufferSink()
            restarted = KVDatabase.cold_start(
                tmp_path, disk=disk, recover=False, tracer=Tracer(sink), **engine
            )
            if how == "lazy":
                plan = restarted.method.begin_lazy_recovery()
                for key in rng.sample(self.KEYS, rng.randint(1, len(self.KEYS))):
                    restarted.get(key)
                plan.drain()
            elif how == "eager":
                restarted.method.recover()
            else:
                TestTheorem3._lsn_order_replay(
                    restarted.method, full_scan=not disk.page_ids()
                )
            if how != "scan":  # the scan also tests pages below their recLSN
                decisions.append(self._decisions(sink))
            restarted.quiesce()
            states.append(canonical_state(restarted))
            restarted.close()
        db.quiesce()
        states.append(canonical_state(db))
        db.close()
        assert states[0] == states[1] == states[2] == states[3], seed
        assert decisions[0] == decisions[1] == decisions[2], seed

    @pytest.mark.parametrize("flushed", [False, True])
    def test_a_write_waits_for_every_pending_reader(self, flushed, tmp_path):
        """The copy at LSN 2 reads ``a`` after ``a``'s last write.  A
        write to ``a`` before ``b`` is touched must not reach that copy:
        ``a`` retired by its own fault (no page on disk), or clean from
        the start (flushed and checkpointed before the copy)."""
        engine = dict(method="generalized", n_pages=8, log_segment_size=32, fsync=False)
        db = KVDatabase(log_dir=tmp_path, checkpoint_every=None, **engine)
        assert db.method.page_of("a") != db.method.page_of("b")
        db.run([("put", "a", 1)])
        if flushed:
            db.quiesce()
            db.checkpoint()
        db.run([("copyadd", "b", ("a", 1))])
        db.crash()
        restarted = KVDatabase.cold_start(
            tmp_path, disk=survivor(db), recover=False, **engine
        )
        db.close()
        plan = restarted.method.begin_lazy_recovery()
        assert plan.backlog() == (1 if flushed else 2)
        restarted.run([("put", "a", 99)])
        assert (restarted.get("b"), restarted.get("a")) == (2, 99)
        assert plan.done
        restarted.close()

    @pytest.mark.parametrize("seed", range(24))
    def test_random_ops_mid_backlog_equal_eager_and_warm(self, seed, tmp_path):
        """Writes and copies mixed into the lazy phase, before the
        drain: every read, and the state after, must equal an eager and
        a warm restart given the same operations."""
        rng = random.Random(1000 + seed)
        engine = dict(
            method="generalized", n_pages=12, cache_capacity=rng.choice([3, 6, 12]),
            checkpoint_every=rng.choice([None, 30, 70]), log_segment_size=32,
            fsync=False,
        )
        db = KVDatabase(log_dir=tmp_path / "crashed", **engine)
        db.run(self._history(rng))
        db.crash()
        if seed % 3 == 0:
            for page_id in db.method.machine.disk.page_ids():
                db.method.machine.disk.drop_page(page_id)
        tail = [
            ("get", key, None) if roll < 0.4 else op
            for key, roll, op in (
                (rng.choice(self.KEYS), rng.random(), op)
                for op in self._history(rng, n=rng.randint(1, 40))
            )
        ]
        results = []
        for how in ("eager", "lazy", "warm"):
            if how == "warm":
                restarted = db
                db.recover()
            else:
                shutil.copytree(tmp_path / "crashed", tmp_path / how)
                restarted = KVDatabase.cold_start(
                    tmp_path / how, disk=survivor(db), recover=False, **engine
                )
            if how == "lazy":
                plan = restarted.method.begin_lazy_recovery()
            elif how == "eager":
                restarted.method.recover()
            reads = []
            for op in tail:
                if op[0] == "get":
                    reads.append(restarted.get(op[1]))
                else:
                    restarted.execute(op)
            if how == "lazy":
                plan.drain()
            results.append((reads, restarted.method.dump()))
            restarted.close()
        assert results[0] == results[1] == results[2], seed

    @pytest.mark.parametrize("seed", range(24))
    def test_crash_mid_backlog_then_restart_equals_scan(self, seed, tmp_path):
        """A lazy restart can evict a page it has replayed only part way
        (a prefix some copy read).  Crash it mid-backlog: the next
        restart, over that disk, must still land where the LSN-ordered
        scan over the first crash's disk lands."""
        rng = random.Random(seed)
        engine = dict(
            method="generalized", n_pages=12, cache_capacity=rng.choice([2, 3, 6]),
            checkpoint_every=rng.choice([None, 30, 70]), log_segment_size=32,
            fsync=False,
        )
        db = KVDatabase(log_dir=tmp_path, **engine)
        db.run(self._history(rng))
        db.crash()
        if seed % 2 == 0:  # a diskless first restart
            for page_id in db.method.machine.disk.page_ids():
                db.method.machine.disk.drop_page(page_id)
        disks = survivor(db), survivor(db)
        db.close()
        first = KVDatabase.cold_start(tmp_path, disk=disks[0], recover=False, **engine)
        first.method.begin_lazy_recovery()
        for key in rng.sample(self.KEYS, rng.randint(1, len(self.KEYS))):
            first.get(key)
        first.crash()
        first.method.machine.log.store.close()
        second = KVDatabase.cold_start(tmp_path, disk=first.method.machine.disk, **engine)
        reference = KVDatabase.cold_start(tmp_path, disk=disks[1], recover=False, **engine)
        TestTheorem3._lsn_order_replay(reference.method, full_scan=not disks[1].page_ids())
        assert second.method.dump() == reference.method.dump(), seed
        for db in (first, second, reference):
            db.close()


class TestTheorem3:
    """Eager recovery of the page-wise methods drains the per-page plan:
    it replays each page's chain (or each multi-page component) whole,
    not the log in LSN order.  Theorem 3 says any conflict-order
    consistent schedule lands on the same state; the reference here is
    the sequential scan itself — the §4.3 analysis pass over the
    checkpoint suffix, then every stable record from its redo start."""

    @staticmethod
    def _lsn_order_replay(method, full_scan):
        log = method.machine.log
        method.machine.reboot_pool()
        checkpoint_lsn = log.last_stable_checkpoint_lsn
        if full_scan:
            redo_start = 0
        elif method.name == "physical":
            redo_start = checkpoint_lsn + 1  # §6.2: replay the suffix blindly
        else:
            _table, redo_start = analysis_pass(
                log.stable_records_from(max(0, checkpoint_lsn))
            )
        replay(method, log.stable_records_from(redo_start))

    @pytest.mark.parametrize("method", PAGE_METHODS)
    @pytest.mark.parametrize("ckpt", [10, None])
    @pytest.mark.parametrize("diskless", [False, True])
    @pytest.mark.parametrize("capacity", [2, 64])
    def test_pagewise_eager_equals_lsn_order_replay(
        self, method, ckpt, diskless, capacity, tmp_path
    ):
        db = build_crashed(
            tmp_path, method, ckpt=ckpt, ops=mixed_stream(method),
            cache_capacity=capacity,
        )
        disks = (Disk(), Disk()) if diskless else (survivor(db), survivor(db))
        db.close()
        states = []
        for disk, reference in zip(disks, (False, True)):
            restarted = cold(
                tmp_path, method, ckpt=ckpt, disk=disk,
                recover=False, cache_capacity=capacity,
            )
            if reference:
                self._lsn_order_replay(restarted.method, full_scan=diskless)
            else:
                restarted.method.recover()
                assert restarted.method.theory_audit().holds
            restarted.quiesce()
            states.append(canonical_state(restarted))
            restarted.close()
        assert states[0] == states[1], (method, ckpt, diskless, capacity)

    @pytest.mark.parametrize("method", ["physiological", "generalized"])
    def test_crash_after_eager_recovery_and_fuzzy_checkpoint(self, method, tmp_path):
        """The fuzzy checkpoint logs the dirty table the drained plan
        left in the pool.  Its recLSNs must be the first LSN replayed
        into each page since the page was last written, or the next
        analysis starts a page's chain past records only the lost cache
        held."""
        stream = mixed_stream(method)
        db = KVDatabase(
            method=method, n_pages=8, log_dir=tmp_path, fsync=False,
            checkpoint_every=None, log_segment_size=32,
        )
        db.run(stream[:40])
        db.quiesce()  # every page on the disk, then 80 records past it
        db.run(stream[40:])
        db.crash()
        disk = survivor(db)
        assert len(disk.page_ids()) == 8
        db.close()
        first = cold(tmp_path, method, ckpt=None, disk=disk)
        expected = first.method.dump()
        assert len(first.method.dirty_table()) == 8, "recovered pages stay dirty"
        first.checkpoint()
        first.crash()
        second = cold(tmp_path, method, ckpt=None, disk=first.method.machine.disk)
        assert second.method.dump() == expected
        assert second.method.theory_audit().holds
        first.close()
        second.close()

    @pytest.mark.parametrize("method", PAGE_METHODS)
    def test_crash_right_after_a_diskless_start(self, method, tmp_path):
        """A diskless start over a checkpointed log replays everything,
        writes the pages it evicts and keeps the rest in the pool.  A
        crash then leaves a disk that holds some pages but witnessed no
        checkpoint: the next start must replay the chains of the pages
        it lacks from their heads, or their pre-checkpoint writes are
        lost.  Four frames leave some of the eight pages unwritten
        whatever order the drain retires them in.  The original run has
        four frames too, so it flushes pages before its last checkpoint,
        whose dirty page table then no longer reaches back to their
        chains' heads: trusting the checkpoint for a page the disk lacks
        loses writes for every method, not just physical's table-less
        one."""
        db = build_crashed(
            tmp_path, method, ckpt=10, ops=mixed_stream(method), cache_capacity=4
        )
        db.close()
        first = cold(tmp_path, method, ckpt=10, disk=Disk(), cache_capacity=4)
        expected = first.method.dump()
        assert first.method.theory_audit().holds
        disk = first.method.machine.disk
        assert 0 < len(disk.page_ids()) < 8, "some pages written, some not"
        first.crash()
        second = cold(tmp_path, method, ckpt=10, disk=disk, cache_capacity=2)
        assert second.method.dump() == expected
        first.close()
        second.close()


class TestPageAtATimeRestart:
    """Exact counts of a diskless cold start over 6 000 mutations on 256
    pages through 64 frames, with no checkpoint."""

    @pytest.mark.parametrize("method", PAGE_METHODS)
    def test_each_page_written_once_and_each_segment_mapped_once(
        self, method, tmp_path, monkeypatch
    ):
        from repro.logmgr import filelog, manager

        engine = dict(
            method=method, n_pages=256, cache_capacity=64,
            checkpoint_every=None, fsync=False,
        )
        db = KVDatabase(log_dir=tmp_path, commit_every=32, **engine)
        for i in range(6000):
            if method == "generalized" and i % 10 == 7:
                # Cross-page copyadds: 600 multi-page conflict edges.
                db.execute(("copyadd", f"k{i * 7 % 2000}", (f"k{i % 2000}", 1)))
            else:
                db.execute(("put", f"k{i * 7919 % 2000}", i))
        db.sync()
        db.crash()
        db.close()
        segment_files = len(list(tmp_path.glob("*.wal")))
        opens, fetched = [], []
        open_reader = filelog.SegmentReader.__init__
        fetch_chain = manager.LogManager.fetch_chain

        def counting_open(reader, *args, **kwargs):
            opens.append(args[0])
            open_reader(reader, *args, **kwargs)

        def recording_fetch(log, entries):
            records = fetch_chain(log, entries)
            fetched.append(
                {log.segment_containing(r.lsn).base_lsn for r in records}
            )
            return records

        monkeypatch.setattr(filelog.SegmentReader, "__init__", counting_open)
        monkeypatch.setattr(manager.LogManager, "fetch_chain", recording_fetch)
        for lazy in (False, True):
            restarted = KVDatabase.cold_start(tmp_path, recover=False, **engine)
            opens.clear()
            if lazy:
                plan = restarted.method.begin_lazy_recovery()
                restarted.get("k5")
                # The first fault fetches its page's ancestry, not the log.
                assert plan.records_fetched < 6000 // 10, plan.records_fetched
                plan.drain()
            else:
                restarted.method.recover()
                writes = restarted.method.machine.disk.page_writes
                if method == "generalized":
                    assert writes <= 480, writes
                else:
                    assert writes == 192, writes
                    assert restarted.method.machine.pool.misses == 256
            assert restarted.method.stats.records_replayed == 6000
            assert len(opens) <= segment_files, (lazy, len(opens))
            restarted.crash()
            restarted.close()
        assert fetched and all(len(bases) == 1 for bases in fetched), (
            max(map(len, fetched), default=0)
        )


class TestFaultPathReplay:
    @pytest.mark.parametrize("method", PAGE_METHODS)
    def test_first_access_replays_exactly_that_page(self, method, tmp_path):
        """Drive the plan by hand (no background thread): a get faults
        the page in through the pool hook, shrinking the backlog by that
        page's replay group only."""
        db = build_crashed(tmp_path, method, ckpt=None)
        disk_lazy, disk_eager = survivor(db), survivor(db)
        db.close()
        lazy = cold(tmp_path, method, ckpt=None, disk=disk_lazy, recover=False)
        plan = lazy.method.begin_lazy_recovery()
        assert plan is not None
        backlog = plan.backlog()
        assert backlog > 0
        lazy.get("k0")  # faults the key's page (and its replay group) in
        assert plan.pages_replayed >= 1
        assert plan.backlog() < backlog
        plan.drain()
        assert plan.done
        assert plan.backlog() == 0
        # The pool hook detaches itself once the backlog is gone.
        assert lazy.method.machine.pool.page_fault is None
        eager = cold(tmp_path, method, ckpt=None, disk=disk_eager)
        lazy.quiesce()
        eager.quiesce()
        assert canonical_state(lazy) == canonical_state(eager)
        lazy.close()
        eager.close()

    def test_logical_first_access_drains_the_suffix(self, tmp_path):
        """Logical recovery is suffix-granular: the first data access
        gates on the whole outstanding chain (replaying it through the
        normal code path), so one get leaves the plan done."""
        db = build_crashed(tmp_path, "logical", ckpt=None)
        disk = survivor(db)
        db.close()
        lazy = cold(tmp_path, "logical", ckpt=None, disk=disk, recover=False)
        plan = lazy.method.begin_lazy_recovery()
        assert plan is not None and plan.backlog() > 0
        lazy.get("k0")
        assert plan.done
        assert plan.backlog() == 0
        lazy.close()


class TestCheckpointDuringLazy:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_checkpoint_drains_first(self, method, tmp_path):
        """A fuzzy checkpoint (or a root swing) taken mid-backlog would
        record state that cannot see the unreplayed pages — so the
        engine drains before checkpointing, and nothing is lost."""
        db = build_crashed(tmp_path, method)
        disk_lazy, disk_eager = survivor(db), survivor(db)
        db.close()
        lazy = cold(tmp_path, method, disk=disk_lazy, lazy=True)
        eager = cold(tmp_path, method, disk=disk_eager)
        lazy.checkpoint()
        assert lazy.replay_backlog() == 0
        assert lazy.method.dump() == eager.method.dump()
        lazy.close()
        eager.close()


class TestBackwardCompat:
    @pytest.mark.parametrize("method", ["physiological", "logical"])
    def test_sidecarless_directory_cold_starts_both_ways(
        self, method, tmp_path
    ):
        """A pre-sidecar directory (every ``.pages`` file stripped) must
        cold-start eagerly AND lazily — lazy falls back to the one-pass
        rebuild scan and lands on the identical state."""
        db = build_crashed(tmp_path, method)
        disk_eager, disk_lazy = survivor(db), survivor(db)
        db.close()
        stripped = [p for p in tmp_path.glob("*.pages")]
        assert stripped, "workload too small to seal any segment"
        for sidecar in stripped:
            sidecar.unlink()
        eager = cold(tmp_path, method, disk=disk_eager)
        lazy = cold(tmp_path, method, disk=disk_lazy, lazy=True)
        for i in range(17):
            assert lazy.get(f"k{i}") == eager.get(f"k{i}")
        lazy.drain_lazy()
        eager.quiesce()
        lazy.quiesce()
        assert canonical_state(eager) == canonical_state(lazy)
        eager.close()
        lazy.close()

    def test_pre_merge_directory_cold_starts_like_a_fresh_one(self, tmp_path):
        """A directory written while the seal had its own ``.seal`` file
        reads like a pre-sidecar one — same state, no sidecar used — and
        its segments get one new sidecar each as they rotate."""
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        build_crashed(fresh, "generalized").close()
        shutil.copytree(fresh, old)
        sealed = [s for s in sorted(old.glob("*.wal")) if pages_path(s).exists()]
        assert len(sealed) >= 2
        for segment in sealed:
            to_pre_merge(segment)
        expected = cold(fresh, "generalized")
        restarted = cold(old, "generalized")
        assert restarted.method.dump() == expected.method.dump()
        assert expected.method.machine.log.page_index().sidecars_used > 0
        assert restarted.method.machine.log.page_index().sidecars_used == 0
        expected.close()
        tail = sorted(old.glob("*.wal"))[-1]
        restarted.run([("put", f"n{i}", i) for i in range(40)])  # > 1 segment
        restarted.sync()
        restarted.close()
        assert sorted(p.name for p in old.glob(tail.name + "*")) == [
            tail.name, pages_path(tail).name,
        ]
        with SegmentReader(tail) as reader:
            assert reader.sealed
        assert parse_page_index(pages_path(tail).read_bytes()) is not None

    def test_handwritten_v1_segment_directory(self, tmp_path):
        """A segment file written by hand from codec primitives alone —
        header plus frames, no seal, no sidecar — is a faithful v1
        directory; eager and lazy cold starts both serve it."""
        n_pages = 8
        frames = bytearray(encode_file_header(0))
        expected = {}
        for i in range(40):
            key, value = f"k{i}", i * 3
            expected[key] = value
            frames += encode_record(
                LogRecord(
                    lsn=i,
                    payload=PhysicalRedo(
                        page_id=page_of(key, n_pages), cells={key: value}
                    ),
                )
            )
        (tmp_path / segment_filename(0)).write_bytes(bytes(frames))
        eager = KVDatabase.cold_start(
            tmp_path, method="physical", n_pages=n_pages,
            checkpoint_every=None, fsync=False,
        )
        lazy = KVDatabase.cold_start(
            tmp_path, method="physical", n_pages=n_pages,
            checkpoint_every=None, fsync=False, lazy=True,
        )
        for key, value in expected.items():
            assert lazy.get(key) == value
            assert eager.get(key) == value
        lazy.drain_lazy()
        eager.quiesce()
        lazy.quiesce()
        assert canonical_state(eager) == canonical_state(lazy)
        eager.close()
        lazy.close()


class TestLogdumpPages:
    def _prepare(self, tmp_path):
        db = build_crashed(tmp_path / "log", "generalized")
        db.close()
        return tmp_path / "log"

    def test_clean_directory_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        assert main(["logdump", str(root), "--pages"]) == 0
        out = capsys.readouterr().out
        assert "sidecar(s) verified against the frame walk" in out
        assert "data000" in out
        edges = re.search(r"(\d+) multi-page edge\(s\)", out)
        assert edges and int(edges.group(1)) > 0  # the copyadds' edges

    def test_corrupt_sidecar_exits_two(self, tmp_path, capsys):
        """A sidecar that covers the segment's bytes but disagrees with
        the frame walk is corruption, not staleness: exit 2."""
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        victim = sorted(root.glob("*.pages"))[0]
        index = parse_page_index(victim.read_bytes())
        pages = {p: list(flat) for p, flat in index.pages.items()}
        page_id = next(iter(pages))
        pages[page_id][1] += 1  # one shifted LSN: valid blob, wrong content
        victim.write_bytes(
            encode_page_index(
                SegmentPageIndex(
                    index.base_lsn, index.region_len, pages, index.edges
                ),
                region_crc(victim),
            )
        )
        assert main(["logdump", str(root), "--pages"]) == 2
        assert "DISAGREES" in capsys.readouterr().err

    def test_stale_sidecar_is_ignored_not_fatal(self, tmp_path, capsys):
        """A sidecar for different bytes (region_len off) is what the
        lifecycle produces when a write races a crash — the runtime
        ignores it, and so does the dump."""
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        victim = sorted(root.glob("*.pages"))[0]
        index = parse_page_index(victim.read_bytes())
        victim.write_bytes(
            encode_page_index(
                SegmentPageIndex(
                    index.base_lsn,
                    index.region_len + 1,
                    index.pages,
                    index.edges,
                ),
                region_crc(victim),
            )
        )
        assert main(["logdump", str(root), "--pages"]) == 0
        assert "stale page-index sidecar" in capsys.readouterr().out

    def test_crc_damaged_sidecar_is_treated_as_absent(self, tmp_path):
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        victim = sorted(root.glob("*.pages"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["logdump", str(root), "--pages"]) == 0

    def test_restamped_crc_over_damaged_payload_is_not_fatal(
        self, tmp_path, capsys
    ):
        """Damaged payload bytes under a *recomputed* CRC must not crash
        the decoder: the parse fails cleanly, the dump reports the
        sidecar as undecodable, and the runtime (which uses the same
        parse) falls back to the rebuild scan — exit 0, not a
        traceback."""
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        victim = sorted(root.glob("*.pages"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        header = struct.Struct("<4sBQQIII")
        *seal, plen, _crc = header.unpack_from(blob, 0)
        payload = bytes(blob[PAGES_HEADER_SIZE : PAGES_HEADER_SIZE + plen])
        blob[: PAGES_HEADER_SIZE] = header.pack(*seal, plen, zlib.crc32(payload))
        victim.write_bytes(bytes(blob))
        assert parse_page_index(bytes(blob)) is None
        assert main(["logdump", str(root), "--pages"]) == 0
        assert "undecodable page-index sidecar" in capsys.readouterr().out

    def test_single_file_and_pages_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        root = self._prepare(tmp_path)
        segment = sorted(root.glob("segment-*.wal"))[0]
        assert main(["logdump", str(segment), "--pages"]) == 0
        assert "page" in capsys.readouterr().out


class TestBackgroundDrain:
    def test_background_thread_finishes_without_access(self, tmp_path):
        """With no foreground traffic at all, the drainer alone empties
        the backlog and flips health to ready."""
        db = build_crashed(tmp_path, "physiological", ckpt=None)
        disk = survivor(db)
        db.close()
        lazy = cold(tmp_path, "physiological", ckpt=None, disk=disk, lazy=True)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and lazy.replay_backlog():
            time.sleep(0.01)
        assert lazy.replay_backlog() == 0
        assert lazy.health()["state"] == "ready"
        lazy.close()

    def test_lazy_restart_is_visible_in_the_trace(self, tmp_path):
        """A traced lazy cold start leaves one ``recovery.lazy`` span with
        the backlog analysis left, and the drainer's exit one
        ``engine.lazy_drained`` event counting every record it fetched."""
        from repro.obs.timeline import RecoveryTimeline
        from repro.obs.trace import RingBufferSink, Tracer

        db = build_crashed(tmp_path, "physiological", ckpt=None)
        disk = survivor(db)
        db.close()
        sink = RingBufferSink()
        lazy = cold(
            tmp_path, "physiological", ckpt=None, disk=disk,
            lazy=True, tracer=Tracer(sink),
        )
        plan, drainer = lazy._lazy_plan, lazy._lazy_thread
        lazy.drain_lazy()
        drainer.join(timeout=10.0)
        assert not drainer.is_alive()
        timeline = RecoveryTimeline.from_sink(sink)
        [span] = timeline.spans("recovery.lazy")
        assert span.field("backlog") > 0
        [drained] = timeline.events("engine.lazy_drained")
        assert drained["fields"]["records"] == plan.records_fetched > 0
        lazy.close()

    def test_first_request_does_not_wait_out_the_drain(self, tmp_path):
        """The drainer yields the pool mutex between groups, so the first
        foreground ``get`` after a lazy cold start is answered while most
        of the backlog is still pending — not after the whole drain."""
        engine = dict(
            method="physiological",
            n_pages=64,
            cache_capacity=16,
            commit_every=256,
            checkpoint_every=None,
            log_segment_size=512,
            fsync=False,
        )
        db = KVDatabase(log_dir=tmp_path, **engine)
        db.run([("put", f"k{i}", i) for i in range(16_000)])
        db.commit()
        db.crash()
        disk = survivor(db)
        db.close()
        lazy = KVDatabase.cold_start(tmp_path, disk=disk, lazy=True, **engine)
        assert lazy.get("k0") == 0
        assert lazy.replay_backlog() > 0
        lazy.close()

    def test_logical_read_waits_for_the_batch_being_replayed(
        self, tmp_path, monkeypatch
    ):
        """A suffix batch counts as replayed only once it has replayed:
        while the drainer is held on the last record, the backlog stays
        above zero, health says recovering, and a read of the key waits
        for the batch and sees the last durable value."""
        from repro.methods.logical import LogicalKV

        db = KVDatabase(method="logical", log_dir=tmp_path, fsync=False)
        db.run([("put", "k", i) for i in range(200)])
        db.sync()
        db.crash()
        db.close()
        held, release = threading.Event(), threading.Event()
        redo_record = LogicalKV.redo_record

        def holding_redo(method, record):
            if getattr(record.payload, "description", None) == ("kv-put", "k", 199):
                held.set()
                release.wait(timeout=10.0)
            return redo_record(method, record)

        monkeypatch.setattr(LogicalKV, "redo_record", holding_redo)
        lazy = KVDatabase.cold_start(tmp_path, method="logical", lazy=True)
        read = []
        reader = threading.Thread(target=lambda: read.append(lazy.get("k")))
        try:
            assert held.wait(timeout=10.0)
            assert lazy.replay_backlog() > 0
            assert lazy.health()["state"] == "recovering"
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive() and read == []
        finally:
            release.set()
        reader.join(timeout=10.0)
        assert read == [199]
        assert lazy.replay_backlog() == 0
        lazy.close()


class TestSegmentMapsReleased:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("lazy", [False, True])
    def test_restart_leaves_no_segment_mapped(self, method, lazy, tmp_path):
        """The chain reads of a restart map sealed segments; once its plan
        has drained, the store holds no mapping (eager: on return; lazy:
        after ``drain_lazy``)."""
        db = build_crashed(tmp_path, method, ckpt=None)
        db.close()
        restarted = cold(tmp_path, method, ckpt=None, lazy=lazy)
        restarted.drain_lazy()
        store = restarted.method.machine.log.store
        assert len(list(tmp_path.glob("*.wal"))) > 2
        if lazy or method != "logical":  # logical eager streams, no chains
            assert store.chain_frames_read > 0
        assert store._mapped == {}
        maps = Path("/proc/self/maps")
        if maps.exists():
            assert str(tmp_path) not in maps.read_text()
        restarted.close()
