"""E5: the §6 recovery methods compared head-to-head.

One workload, three engines.  Reported per method: log volume, page
writes, recovery scan/replay work, and crash-sweep success.  Expected
shapes (the paper argues these qualitatively):

- every method recovers from every crash point — zero failures;
- every method's log volume is page-size independent: a physical delete
  logs a one-cell tombstone, not the page's after-image;
- logical and physical install at checkpoints (heavy normal-operation
  page writes, light replay); no-force physiological writes the fewest
  pages and instead leans on the page-LSN redo test to skip exactly the
  installed records during its longer replay;
- more frequent checkpoints shrink recovery work for every method, at
  the cost of more normal-operation page writes.
"""

from repro.engine import KVDatabase
from repro.sim import crash_once, crash_sweep
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

from benchmarks.conftest import emit, table

METHODS = ["logical", "physical", "physiological"]
STREAM = generate_kv_workload(
    42, KVWorkloadSpec(n_operations=120, n_keys=24, put_ratio=0.8, delete_ratio=0.1)
)


def run_method(method: str, checkpoint_every=30, n_pages=8):
    db = KVDatabase(
        method=method,
        cache_capacity=6,
        n_pages=n_pages,
        checkpoint_every=checkpoint_every,
    )
    db.run(STREAM)
    db.crash_and_recover()
    db.verify_against(STREAM)
    return db


def test_method_comparison(benchmark):
    def run():
        return {method: run_method(method) for method in METHODS}

    dbs = benchmark(run)
    rows = []
    for method in METHODS:
        report = dbs[method].report()
        rows.append(
            [
                method,
                report["log_bytes"],
                report["log_records"],
                report["disk_page_writes"],
                report["method_records_scanned"],
                report["method_records_replayed"],
                report["method_records_skipped"],
            ]
        )
    by = {row[0]: row for row in rows}
    # Shapes the paper argues qualitatively:
    # - logical and physical must install at checkpoints (staging the
    #   whole cache / flushing all dirty pages), so they write more pages
    #   during normal operation than no-force physiological;
    assert by["physiological"][3] < by["logical"][3]
    assert by["physiological"][3] < by["physical"][3]
    # - in exchange they replay only the post-checkpoint suffix, while
    #   physiological replays whatever never got flushed — but skips every
    #   installed record via the page-LSN test, with no flush obligations.
    assert by["logical"][5] <= by["physiological"][5]
    assert by["physical"][5] <= by["physiological"][5]
    assert by["physiological"][6] > 0  # the LSN test really does bypass work
    emit(
        "E5",
        "Recovery methods on one workload (120 ops, checkpoint every 30)",
        table(
            rows,
            [
                "method",
                "log bytes",
                "log records",
                "page writes",
                "scanned",
                "replayed",
                "skipped",
            ],
        ),
    )


def test_log_bytes_independent_of_page_size(benchmark):
    """Physical logging pays for the byte ranges it writes, not for the
    page around them: a delete writes one tombstoned cell, so physical
    records, like page-logical (physiological) and database-logical
    ones, do not change at all as pages get bigger."""

    page_counts = [8, 4, 2]  # fewer pages = bigger pages

    def run():
        from repro.logmgr import CheckpointRecord

        grid = {}
        for n_pages in page_counts:
            for method in METHODS:
                db = KVDatabase(
                    method=method, cache_capacity=6, n_pages=n_pages,
                    checkpoint_every=30,
                )
                db.run(STREAM)
                # Redo-record bytes only: checkpoint records carry
                # dirty-page tables whose size trivially tracks the page
                # count and would muddy the comparison.
                grid[(method, n_pages)] = sum(
                    entry.size_bytes()
                    for entry in db.method.machine.log.entries()
                    if not isinstance(entry.payload, CheckpointRecord)
                )
        return grid

    grid = benchmark(run)
    for method in METHODS:
        series = [grid[(method, n)] for n in page_counts]
        assert len(set(series)) == 1  # unaffected by page size
    rows = [
        [method, *(grid[(method, n)] for n in page_counts)]
        for method in METHODS
    ]
    emit(
        "E5d",
        "Log bytes vs page size (same 120-op workload)",
        table(rows, ["method", "8 pages", "4 pages", "2 pages (biggest)"])
        + [
            "",
            "No method pays for page size: a physical delete logs a one-cell",
            "tombstone, and logical and physiological records never image a page.",
        ],
    )


def test_crash_sweep_all_methods(benchmark):
    def run():
        outcomes = {}
        for method in METHODS + ["generalized"]:
            make = lambda m=method: KVDatabase(
                method=m, cache_capacity=5, checkpoint_every=25
            )
            results = crash_sweep(
                make, STREAM, crash_points=range(0, len(STREAM) + 1, 6)
            )
            outcomes[method] = results
        return outcomes

    outcomes = benchmark(run)
    rows = []
    for method, results in outcomes.items():
        failures = [r for r in results if not r.recovered]
        rows.append(
            [
                method,
                len(results),
                len(failures),
                sum(r.replayed for r in results),
                sum(r.scanned for r in results),
            ]
        )
        assert not failures, (method, failures[0].error if failures else None)
    emit(
        "E5b",
        "Crash-anywhere sweep (every 6th instant, recover + continue + verify)",
        table(rows, ["method", "crash points", "failures", "total replayed", "total scanned"]),
    )


def test_checkpoint_frequency_tradeoff(benchmark):
    """Sweep checkpoint cadence for each method; recovery work should
    fall as checkpoints become more frequent, while normal-operation page
    writes rise (for the flushing methods)."""

    cadences = [None, 60, 30, 15, 8]

    variants = [
        ("logical", None),
        ("physical", None),
        ("physiological", None),
        ("physiological-sharp", {"sharp_checkpoints": True}),
    ]

    def run():
        grid = {}
        for label, options in variants:
            method = label.split("-")[0]
            for cadence in cadences:
                make = lambda m=method, c=cadence, o=options: KVDatabase(
                    method=m, cache_capacity=6, checkpoint_every=c,
                    method_options=o,
                )
                result = crash_once(make, STREAM, len(STREAM), continue_after=False)
                assert result.recovered, (label, cadence, result.error)
                db = make()
                db.run(STREAM)
                grid[(label, cadence)] = (
                    result.replayed,
                    db.report()["disk_page_writes"],
                )
        return grid

    grid = benchmark(run)
    rows = []
    for label, _ in variants:
        replayed_series = [grid[(label, c)][0] for c in cadences]
        writes_series = [grid[(label, c)][1] for c in cadences]
        rows.append(
            [
                label,
                *(f"{r}/{w}" for r, w in zip(replayed_series, writes_series)),
            ]
        )
        # Shape: most-frequent checkpointing never replays more than none.
        assert replayed_series[-1] <= replayed_series[0]
    # Sharp physiological checkpoints buy the replay reduction the fuzzy
    # variant forgoes.
    assert (
        grid[("physiological-sharp", 8)][0] < grid[("physiological", 8)][0]
    )
    emit(
        "E5c",
        "Checkpoint cadence vs recovery work (cells: replayed/page-writes)",
        table(
            rows,
            ["method", "ckpt none", "every 60", "every 30", "every 15", "every 8"],
        )
        + [
            "",
            "Left to right: for the installing methods (logical, physical)",
            "recovery replay work falls while normal-operation page writes",
            "rise — the checkpoint trade made quantitative.  Physiological's",
            "fuzzy checkpoints flush nothing, so its row is flat: its replay",
            "work is governed by eviction-driven flushes, not checkpoints.",
        ],
    )
