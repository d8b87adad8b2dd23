"""E14: streaming vs materialized recovery.

The segmented log manager lets recovery consume the checkpoint suffix as
an iterator, holding O(segment) records resident instead of copying the
whole suffix into a list.  This experiment measures both disciplines at
10k and 100k records — peak traced allocation (tracemalloc) and wall
time.

Results are emitted as E14.txt and machine-readably as
``BENCH_streaming.json`` under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from repro.logmgr import (
    CheckpointRecord,
    LogManager,
    PageAction,
    PhysiologicalRedo,
)
from repro.storage.page import Page

from benchmarks.conftest import RESULTS_DIR, emit, table

SIZES = (10_000, 100_000)
N_PAGES = 64
SEGMENT_SIZE = 1024
CHECKPOINT_EVERY = 4096


def build_log(n_records: int) -> LogManager:
    manager = LogManager(segment_size=SEGMENT_SIZE)
    for i in range(n_records):
        page_id = f"p{i % N_PAGES:03d}"
        # Keys cycle so the replayed state stays bounded and the resident
        # record set — the thing under test — dominates the measurement.
        manager.append(
            PhysiologicalRedo(page_id, PageAction("put", (f"k{i % 4096}", i)))
        )
        if i and i % CHECKPOINT_EVERY == 0:
            manager.append(CheckpointRecord(("bench", ())))
    manager.flush()
    return manager


def replay(records) -> dict[str, Page]:
    """The redo scan both disciplines share: LSN test, then apply."""
    pages: dict[str, Page] = {}
    for record in records:
        payload = record.payload
        if not isinstance(payload, PhysiologicalRedo):
            continue
        page = pages.get(payload.page_id)
        if page is None:
            page = pages[payload.page_id] = Page(payload.page_id)
        if page.lsn >= record.lsn:
            continue
        payload.action.apply_to(page, lsn=record.lsn)
    return pages


def measure(fn) -> tuple[dict, float, int]:
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def test_streaming_vs_materialized_recovery():
    rows = []
    data = {}
    for n_records in SIZES:
        manager = build_log(n_records)

        materialized, mat_time, mat_peak = measure(
            lambda: replay(manager.stable_entries())
        )
        streamed, stream_time, stream_peak = measure(
            lambda: replay(manager.stable_records_from(0))
        )

        assert {p: dict(pages.cells) for p, pages in streamed.items()} == {
            p: dict(pages.cells) for p, pages in materialized.items()
        }
        assert stream_peak < mat_peak, (
            "streaming recovery should hold fewer records resident "
            f"({stream_peak} vs {mat_peak} bytes at n={n_records})"
        )
        rows.append(
            [
                n_records,
                f"{mat_peak / 1e6:.2f}",
                f"{stream_peak / 1e6:.2f}",
                f"{mat_peak / max(stream_peak, 1):.1f}x",
                f"{mat_time * 1e3:.1f}",
                f"{stream_time * 1e3:.1f}",
            ]
        )
        data[str(n_records)] = {
            "materialized_peak_bytes": mat_peak,
            "streaming_peak_bytes": stream_peak,
            "materialized_wall_s": mat_time,
            "streaming_wall_s": stream_time,
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_streaming.json").write_text(
        json.dumps(
            {
                "experiment": "E14",
                "segment_size": SEGMENT_SIZE,
                "n_pages": N_PAGES,
                "sizes": data,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E14",
        "Streaming vs materialized recovery scan",
        table(
            rows,
            [
                "records",
                "mat peak MB",
                "stream peak MB",
                "ratio",
                "mat ms",
                "stream ms",
            ],
        )
        + [
            "",
            "The streaming scan's resident set is bounded by the segment",
            "size; the materialized scan's grows with the whole suffix.",
        ],
    )
