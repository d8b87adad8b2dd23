"""E12: substrate ablation — cache capacity vs recovery work.

Not a paper figure, but a design-choice ablation DESIGN.md calls out:
the §6.3 story ("the system is free to install in any order") means
cache sizing is pure performance — correctness must be indifferent to
tiny vs roomy pools.  Measured here:

- hit rate of the pool (graph-driven victim choice, LRU tie-break) on a
  hotspot workload as capacity grows;
- recovery replay work as a function of capacity (more evictions =
  more installs = less replay) — the no-force mirror of E5c;
- correctness: every capacity recovers exactly.

Earlier versions carried a second row labelled ``clock``.  Since the
install scheduler took over victim selection that row had been plain
insertion order (the clock sweep was reachable only under the retired
legacy install policy), so it compared LRU with FIFO under a wrong name;
it went with the knob.
"""

from repro.engine import KVDatabase
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

from benchmarks.conftest import emit, table

HOT = KVWorkloadSpec(
    n_operations=300, n_keys=64, put_ratio=0.6, add_ratio=0.2,
    delete_ratio=0.0, hot_fraction=0.85, hot_keys=4,
)
STREAM = generate_kv_workload(77, HOT)


def run_cell(capacity: int):
    db = KVDatabase(method="physiological", cache_capacity=capacity, n_pages=32)
    db.run(STREAM)
    report = db.report()
    hits, misses = report["cache_hits"], report["cache_misses"]
    db.crash_and_recover()
    db.verify_against(STREAM)
    return hits / (hits + misses), db.method.stats.records_replayed


def test_cache_capacity(benchmark):
    capacities = [2, 4, 8, 16, 32]
    grid = benchmark(lambda: {c: run_cell(c) for c in capacities})
    # Shapes: hit rate rises with capacity; replay work rises with
    # capacity (fewer evictions = fewer installs); correctness everywhere
    # (verified inside run_cell).
    hit_series = [grid[c][0] for c in capacities]
    assert hit_series == sorted(hit_series)
    assert grid[capacities[0]][1] <= grid[capacities[-1]][1]
    emit(
        "E12",
        "Cache ablation (cells: hit-rate/records-replayed-after-crash)",
        table(
            [["lru"] + [f"{grid[c][0]:.2f}/{grid[c][1]}" for c in capacities]],
            ["policy"] + [f"cap {c}" for c in capacities],
        )
        + [
            "",
            "Every cell recovers exactly (verified).  Capacity moves",
            "performance numbers only: smaller pools steal more pages,",
            "installing more operations and shrinking replay — correctness",
            "is untouched, as §6.3's any-order installation predicts.",
        ],
    )
