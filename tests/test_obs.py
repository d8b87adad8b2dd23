"""Tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Histogram,
    JsonLinesSink,
    MetricsError,
    MetricsRegistry,
    NullTracer,
    RecoveryTimeline,
    RingBufferSink,
    Tracer,
    load_trace,
)
from repro.obs.timeline import TraceReadError, build_span_tree
from repro.obs.trace import NULL_SPAN, TraceError


class TestMetricsRegistry:
    def test_name_must_be_dotted(self):
        reg = MetricsRegistry()
        for bad in ("plain", "Caps.name", "a.", ".b", "a b.c"):
            with pytest.raises(MetricsError):
                reg.histogram(bad)

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("redo.scan_len")
        for v in (5, 1, 3):
            h.observe(v)
        assert reg.histogram("redo.scan_len") is h  # get-or-create
        snap = reg.snapshot()
        assert snap["redo.scan_len.count"] == 3
        assert snap["redo.scan_len.total"] == 9
        assert snap["redo.scan_len.min"] == 1
        assert snap["redo.scan_len.max"] == 5
        assert h.mean() == 3.0

    def test_collector_namespacing(self):
        reg = MetricsRegistry()
        reg.register_collector("method", lambda: {"records_replayed": 4})
        assert reg.snapshot()["method.records_replayed"] == 4

    def test_duplicate_collector_namespace_raises(self):
        reg = MetricsRegistry()
        reg.register_collector("m", lambda: {})
        with pytest.raises(MetricsError):
            reg.register_collector("m", lambda: {})

    def test_collision_raises_instead_of_overwriting(self):
        """The fix for the historical report() hazard: a collision is an
        error, never a silent overwrite."""
        reg = MetricsRegistry()
        reg.histogram("method.operations")
        reg.register_collector("method", lambda: {"operations.count": 9})
        with pytest.raises(MetricsError, match="collision"):
            reg.snapshot()


class TestTracer:
    def test_events_and_spans_are_seq_ordered(self):
        sink = RingBufferSink()
        tr = Tracer(sink)
        with tr.span("outer", tag=1):
            tr.event("ping", n=1)
            with tr.span("inner"):
                tr.event("pong", n=2)
        records = list(sink)
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        kinds = [r["type"] for r in records]
        assert kinds == [
            "span_start", "event", "span_start", "event", "span_end", "span_end",
        ]

    def test_event_attaches_to_innermost_open_span(self):
        sink = RingBufferSink()
        tr = Tracer(sink)
        outer = tr.span("outer")
        inner = tr.span("inner")
        tr.event("deep")
        inner.end()
        tr.event("shallow")
        outer.end()
        tr.event("top")
        by_name = {r["name"]: r for r in sink if r["type"] == "event"}
        assert by_name["deep"]["span"] == inner.span_id
        assert by_name["shallow"]["span"] == outer.span_id
        assert by_name["top"]["span"] is None

    def test_double_end_raises(self):
        tr = Tracer(RingBufferSink())
        span = tr.span("s")
        span.end()
        with pytest.raises(TraceError):
            span.end()

    def test_out_of_order_end_is_tolerated(self):
        tr = Tracer(RingBufferSink())
        outer = tr.span("outer")
        inner = tr.span("inner")
        outer.end()  # crash-unwind shape: outer closes while inner is open
        inner.end()
        assert tr._stack == []

    def test_null_tracer_is_disabled_and_allocation_free(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("anything") is NULL_SPAN
        NULL_TRACER.event("ignored", x=1)
        assert NULL_TRACER.records_emitted == 0
        assert isinstance(NULL_TRACER, NullTracer)

    def test_ring_buffer_drops_oldest(self):
        sink = RingBufferSink(capacity=3)
        tr = Tracer(sink)
        for i in range(5):
            tr.event("e", i=i)
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [r["fields"]["i"] for r in sink] == [2, 3, 4]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = Tracer(JsonLinesSink(str(path)))
        with tr.span("recovery", method="physical"):
            tr.event("recovery.record", lsn=3, decision="replayed")
        tr.close()
        records = load_trace(str(path))
        assert len(records) == 3
        assert records[0]["fields"]["method"] == "physical"


class TestTimeline:
    def _trace(self):
        sink = RingBufferSink()
        tr = Tracer(sink)
        with tr.span("recovery", method="demo", full_scan=False) as rec:
            with tr.span("recovery.analysis", scan_from=0) as an:
                an.end(redo_start=2, dirty_pages=1)
            with tr.span("recovery.segment", base_lsn=0, end_lsn=9):
                tr.event("recovery.record", lsn=2, decision="replayed")
                tr.event("recovery.record", lsn=3, decision="skipped", reason="lsn_test")
            rec.end(redo_start=2, scanned=2, replayed=1, skipped=1)
        return sink

    def test_span_tree_shape(self):
        timeline = RecoveryTimeline.from_sink(self._trace())
        [recovery] = timeline.recoveries()
        assert recovery.closed
        assert [c.name for c in recovery.children] == [
            "recovery.analysis",
            "recovery.segment",
        ]
        assert recovery.field("redo_start") == 2  # end fields win

    def test_totals_from_record_events(self):
        timeline = RecoveryTimeline.from_sink(self._trace())
        totals = timeline.totals()
        assert totals["method.records_scanned"] == 2
        assert totals["method.records_replayed"] == 1
        assert totals["method.records_skipped"] == 1

    def test_render_mentions_the_story(self):
        text = RecoveryTimeline.from_sink(self._trace()).render()
        assert "recovery #1" in text
        assert "redo_start=2" in text
        assert "segment [0..9]" in text
        assert "lsn_test=1" in text

    def test_unclosed_span_reports_interrupted(self):
        sink = RingBufferSink()
        tr = Tracer(sink)
        tr.span("recovery", method="demo")  # crash: never ended
        timeline = RecoveryTimeline.from_sink(sink)
        [recovery] = timeline.recoveries()
        assert not recovery.closed
        assert "INTERRUPTED" in timeline.render()

    def test_malformed_trace_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(TraceReadError):
            load_trace(str(path))

    def test_bad_record_type_raises(self, tmp_path):
        path = tmp_path / "bad2.jsonl"
        path.write_text(json.dumps({"seq": 0, "type": "mystery"}) + "\n")
        with pytest.raises(TraceReadError):
            load_trace(str(path))

    def test_event_for_unknown_span_raises(self):
        with pytest.raises(TraceReadError):
            build_span_tree(
                [{"seq": 0, "type": "event", "name": "e", "span": 99, "fields": {}}]
            )

    def test_double_close_raises(self):
        records = [
            {"seq": 0, "type": "span_start", "name": "s", "id": 0, "parent": None,
             "fields": {}},
            {"seq": 1, "type": "span_end", "name": "s", "id": 0, "fields": {}},
            {"seq": 2, "type": "span_end", "name": "s", "id": 0, "fields": {}},
        ]
        with pytest.raises(TraceReadError):
            build_span_tree(records)


class TestEngineIntegration:
    """The tracer threaded through a real engine produces the promised shape."""

    def _run(self, method="physiological", **db_kwargs):
        from repro.engine import KVDatabase
        from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

        sink = RingBufferSink()
        tracer = Tracer(sink)
        db = KVDatabase(
            method=method,
            cache_capacity=4,
            commit_every=2,
            checkpoint_every=10,
            tracer=tracer,
            **db_kwargs,
        )
        stream = generate_kv_workload(
            3, KVWorkloadSpec(n_operations=40, n_keys=8, put_ratio=0.7)
        )
        db.run(stream)
        db.crash_and_recover()
        db.verify_against(stream)
        return db, RecoveryTimeline.from_sink(sink)

    def test_recovery_span_tree_reconstructs_redo(self):
        db, timeline = self._run()
        [recovery] = timeline.recoveries()
        assert recovery.field("method") == "physiological"
        assert recovery.field("redo_start") >= 0
        analysis = recovery.find("recovery.analysis")
        assert analysis and analysis[0].field("redo_start") == recovery.field(
            "redo_start"
        )
        segments = recovery.find("recovery.segment")
        seg_records = sum(
            1
            for s in segments
            for e in s.events
            if e["name"] == "recovery.record"
        )
        assert seg_records == recovery.field("scanned")

    @pytest.mark.parametrize(
        "method,lazy",
        [
            (method, lazy)
            for method in ("logical", "physical", "physiological", "generalized")
            for lazy in (False, True)
        ]
        + [("btree-physiological", False), ("btree-generalized", False)],
    )
    def test_totals_equal_registry_snapshot(self, method, lazy, tmp_path):
        """Every redo decision leaves one ``recovery.record`` event, on
        the eager scan and on the lazy fault/drain path alike — and on
        the B-tree's recovery, which runs through the same kernel."""
        if method.startswith("btree-"):
            from repro.btree import BTree
            from repro.methods import Machine

            sink = RingBufferSink()
            tree = BTree(
                Machine(cache_capacity=4, tracer=Tracer(sink)),
                fanout=3,
                split_discipline=method.removeprefix("btree-"),
            )
            for key in range(30):
                tree.insert(key, b"v%d" % key)
            tree.commit()
            tree.crash()
            tree.recover()
            assert len(tree.items()) == 30
            totals = RecoveryTimeline.from_sink(sink).totals()
            stats = tree.stats.as_dict()
            assert stats["records_replayed"] > 0 and stats["records_skipped"] > 0
            for key in ("records_scanned", "records_replayed", "records_skipped"):
                assert totals[f"method.{key}"] == stats[key], key
            return
        if lazy:
            from repro.engine import KVDatabase

            built, _ = self._run(method, log_dir=tmp_path, fsync=False)
            for i in range(5):  # a tail past the last checkpoint
                built.execute(("put", f"tail{i}", i))
            built.commit()
            built.crash()
            built.method.machine.log.store.close()
            sink = RingBufferSink()
            db = KVDatabase.cold_start(
                tmp_path,
                disk=built.method.machine.disk,
                method=method,
                lazy=True,
                fsync=False,
                tracer=Tracer(sink),
            )
            db.drain_lazy()
            timeline = RecoveryTimeline.from_sink(sink)
            assert timeline.totals()["method.records_replayed"] > 0
        else:
            db, timeline = self._run(method)
        snapshot = db.metrics.snapshot()
        totals = timeline.totals()
        for key in (
            "method.records_scanned",
            "method.records_replayed",
            "method.records_skipped",
        ):
            assert totals[key] == snapshot[key], key
        db.close()

    def test_flush_events_carry_graph_reason(self):
        _, timeline = self._run()
        flushes = timeline.events("cache.flush")
        assert flushes, "a 4-frame cache over 8 pages must flush"
        for event in flushes:
            assert "node" in event["fields"]
            assert "writes" in event["fields"]

    def test_generalized_traces_edges_and_multipage_redo(self):
        from repro.engine import KVDatabase

        sink = RingBufferSink()
        db = KVDatabase(
            method="generalized", cache_capacity=4, tracer=Tracer(sink)
        )
        # "src" and "dst" hash to different pages, so the copyadd is a
        # genuine multi-page record with a careful-write-ordering edge.
        stream = [("put", "src", 1), ("copyadd", "dst", ("src", 5))]
        db.run(stream)
        db.commit()
        db.crash_and_recover()
        db.verify_against(stream)
        timeline = RecoveryTimeline.from_sink(sink)
        names = {r.get("name") for r in timeline.records}
        assert "scheduler.add_edge" in names  # the careful write ordering
        assert timeline.recoveries()

    def test_log_events_present(self):
        _, timeline = self._run()
        assert timeline.events("log.append")
        assert timeline.events("log.force")
        assert timeline.events("engine.crash")

    def test_checkpoint_span_present(self):
        _, timeline = self._run()
        assert timeline.spans("checkpoint")

    def test_report_is_namespaced_and_collision_free(self):
        db, _ = self._run()
        report = db.report()
        for key in (
            "method_operations",
            "method_records_replayed",
            "log_forces",
            "log_bytes",
            "disk_page_writes",
            "cache_hits",
            "scheduler_installs",
            "scheduler_elisions",
        ):
            assert key in report, key
        assert report["method"] == "physiological"

    def test_untraced_database_uses_null_tracer(self):
        from repro.engine import KVDatabase

        db = KVDatabase(method="physical")
        assert db.tracer is NULL_TRACER
        assert db.method.machine.pool.tracer is NULL_TRACER
        db.execute(("put", "k", 1))
        db.crash_and_recover()
        assert NULL_TRACER.records_emitted == 0

    def test_sim_crash_reports_through_registry(self):
        from repro.engine import KVDatabase
        from repro.sim.crash import crash_once
        from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

        stream = generate_kv_workload(
            4, KVWorkloadSpec(n_operations=20, n_keys=6, put_ratio=0.8)
        )
        result = crash_once(
            lambda: KVDatabase(method="physiological", cache_capacity=4),
            stream,
            crash_point=15,
        )
        assert result.recovered
        assert result.scanned >= result.replayed >= 0


class TestInstrumentCounters:
    def test_counter_classes_repr(self):
        assert "h.y" in repr(Histogram("h.y"))
        assert "histograms=0" in repr(MetricsRegistry())


class TestHistogramQuantiles:
    """The log-scale bucket layout behind the server's latency quantiles."""

    def test_quantile_within_one_bucket_width(self):
        h = Histogram("t.lat")
        values = [i / 1000.0 for i in range(1, 1001)]  # 1ms..1s uniform
        for v in values:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            true = values[int(q * len(values)) - 1]
            estimate = h.quantile(q)
            assert estimate >= true * 0.999  # never undershoots
            assert estimate <= true * Histogram._GROWTH * 1.001

    def test_p0_and_p100_are_exact(self):
        h = Histogram("t.lat")
        for v in (0.00317, 0.9, 0.041):
            h.observe(v)
        assert h.quantile(0.0) == 0.00317
        assert h.quantile(1.0) == 0.9

    def test_single_observation_dominates_every_quantile(self):
        h = Histogram("t.lat")
        h.observe(0.25)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.25

    def test_underflow_and_overflow_are_clamped(self):
        h = Histogram("t.lat")
        h.observe(0.0)  # below the lowest boundary
        h.observe(1e9)  # far past the top octave
        assert h.quantile(0.0) == 0.0
        assert h.quantile(1.0) == 1e9
        # the middle reads a boundary, clamped into [min, max]
        assert 0.0 <= h.quantile(0.5) <= 1e9

    def test_out_of_range_quantile_raises(self):
        h = Histogram("t.lat")
        with pytest.raises(MetricsError):
            h.quantile(1.5)

    def test_empty_summary_is_all_zero(self):
        """Regression (this PR): an empty histogram's summary divided by
        its zero count / published None min/max; now explicit zeros."""
        h = Histogram("t.lat")
        assert h.summary() == {
            "count": 0, "total": 0, "min": 0, "max": 0,
            "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
        assert h.quantile(0.5) == 0.0

    def test_empty_histogram_snapshot_publishes_zeros(self):
        reg = MetricsRegistry()
        reg.histogram("server.latency_put")
        snap = reg.snapshot()
        assert snap["server.latency_put.count"] == 0
        assert snap["server.latency_put.p99"] == 0.0
        assert snap["server.latency_put.min"] == 0  # never None on the wire

    def test_snapshot_publishes_quantile_suffixes(self):
        reg = MetricsRegistry()
        h = reg.histogram("srv.lat")
        for v in (0.001, 0.002, 0.004):
            h.observe(v)
        snap = reg.snapshot()
        for suffix in ("count", "total", "min", "max", "mean", "p50", "p95", "p99"):
            assert f"srv.lat.{suffix}" in snap
        assert snap["srv.lat.p50"] >= 0.002 * 0.999


class TestRingBufferWraparound:
    """Satellite: the in-memory ring under multiple full wraps."""

    def test_capacity_plus_k_keeps_exactly_the_last_capacity(self):
        sink = RingBufferSink(capacity=8)
        tr = Tracer(sink)
        for i in range(8 + 5):
            tr.event("e", i=i)
        kept = [r["fields"]["i"] for r in sink]
        assert kept == list(range(5, 13))  # oldest→newest, newest wins
        assert sink.dropped == 5
        assert len(sink) == 8

    def test_many_full_wraps(self):
        sink = RingBufferSink(capacity=4)
        tr = Tracer(sink)
        for i in range(43):
            tr.event("e", i=i)
        assert [r["fields"]["i"] for r in sink] == [39, 40, 41, 42]
        assert sink.dropped == 39
        seqs = [r["seq"] for r in sink]
        assert seqs == sorted(seqs)


class TestLenientTimeline:
    """Flight-ring tails: span starts may be overwritten, the rest must
    still render (satellite of the postmortem path)."""

    def test_orphan_span_end_becomes_closed_root(self):
        records = [
            {"seq": 7, "type": "span_end", "name": "s", "id": 3,
             "fields": {"outcome": "done"}},
        ]
        roots, _ = build_span_tree(records, lenient=True)
        [node] = roots
        assert node.closed
        assert node.end_fields["outcome"] == "done"

    def test_event_with_unknown_span_floats_to_top(self):
        records = [
            {"seq": 5, "type": "event", "name": "log.append", "span": 99,
             "fields": {"lsn": 4}},
        ]
        roots, top = build_span_tree(records, lenient=True)
        assert roots == []
        assert [e["name"] for e in top] == ["log.append"]

    def test_strict_mode_still_raises(self):
        records = [
            {"seq": 0, "type": "span_end", "name": "s", "id": 3, "fields": {}},
        ]
        with pytest.raises(TraceReadError):
            build_span_tree(records)

    def test_from_flight_ring_reports_open_spans(self):
        records = [
            {"seq": 0, "type": "span_start", "name": "server.serve", "id": 0,
             "parent": None, "fields": {"port": 1234}},
            {"seq": 1, "type": "event", "name": "engine.command", "span": 0,
             "fields": {"kind": "put"}},
        ]
        timeline = RecoveryTimeline.from_flight_ring(records)
        [open_span] = timeline.open_spans()
        assert open_span.name == "server.serve"
        assert not open_span.closed


class TestRetiredSurfaces:
    """Recovery is observed through the tracer's spans only, and the
    theory's recovery is one loop: the surfaces that duplicated them are
    gone, not left ignored."""

    def test_progress_option_is_gone(self, tmp_path):
        from repro.engine import EngineSpec, KVDatabase

        with pytest.raises(TypeError):
            KVDatabase(method="physiological", progress=object())
        with pytest.raises(TypeError):
            KVDatabase.cold_start(tmp_path, method="physiological", progress=object())
        with pytest.raises(TypeError):
            EngineSpec().cold_start(tmp_path, progress=object())

    @pytest.mark.parametrize(
        "name",
        [
            "recover_partial",
            "recover_partitioned",
            "VariablePartition",
            "partition_operations",
            "RecoveryProgress",
            "NULL_PROGRESS",
        ],
    )
    def test_not_exported(self, name):
        import repro
        import repro.core
        import repro.obs

        for package in (repro, repro.core, repro.obs):
            assert not hasattr(package, name), (package.__name__, name)

    def test_engine_import_loads_no_thread_pool(self):
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = (
            "import sys, repro.engine, repro.sim.audit; "
            "print('concurrent.futures' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestThreadSafety:
    """Satellite of the concurrency PR: tracer seq assignment and
    instrument increments are atomic under concurrent emitters."""

    def test_tracer_seq_gap_free_across_threads(self):
        import threading

        tracer = Tracer(RingBufferSink(capacity=100_000))
        n_threads, per_thread = 8, 500

        def emitter(i):
            for j in range(per_thread):
                tracer.event("t.event", thread=i, j=j)

        threads = [
            threading.Thread(target=emitter, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert tracer.records_emitted == total
        seqs = sorted(r["seq"] for r in tracer.sink)
        assert seqs == list(range(total))  # dense: no gaps, no duplicates

    def test_histogram_observations_do_not_race(self):
        import threading

        hist = Histogram("x.y")
        n_threads, per_thread = 8, 1000

        def observe():
            for v in range(per_thread):
                hist.observe(v)

        threads = [threading.Thread(target=observe) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hist.count == n_threads * per_thread
        assert hist.total == n_threads * sum(range(per_thread))
        assert hist.min == 0
        assert hist.max == per_thread - 1
