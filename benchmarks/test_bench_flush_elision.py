"""E16: flush elision and graph-driven install scheduling.

The buffer pool's flush decisions all route through one live §5 write
graph (the :class:`~repro.cache.scheduler.InstallScheduler`): victim
selection prefers clean frames and minimal uninstalled nodes, and a
dirty page whose cells already equal its disk image installs with *no*
IO at all (the scheduler's remove-write).  This experiment measures what
that buys on a mixed KV workload with a mutation hotspot and cold read
traffic — the regime where recency-only eviction keeps flushing hot
dirty pages while clean frames sit unused.

The baseline is *recorded*, not re-run: the recency-only pool that never
elided (``install_policy="legacy"``) was retired once the scheduler
became the only install policy, and its last run over this exact stream
(seed 16, 1 500 commands — the run is count-deterministic) is kept in
:data:`LEGACY_BASELINE`.

Equal recoverability is asserted, not assumed: the run must
crash-recover to the durable-prefix oracle with the same durable count
the baseline reached, and is audited against Corollary 5 (including the
scheduler cross-check) during normal operation with zero tolerated
violations.

Acceptance: the pool performs >= 20% fewer page flushes than the
recorded baseline for the physiological and generalized methods
(>= 10% for physical, whose whole-page images give eviction less
slack); logical never flushes data pages, so it is reported only.

Results are emitted as E16.txt and machine-readably as
``BENCH_write_graph.json`` under ``benchmarks/results/``.  Set
``E16_OPS`` to shrink the stream; the recorded baseline then does not
apply, and the counts are reported without the floors.
"""

from __future__ import annotations

import json
import os

from repro.engine import KVDatabase
from repro.sim.audit import AuditTracker
from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

from benchmarks.conftest import RESULTS_DIR, emit, table

SEED = 16
N_OPS = int(os.environ.get("E16_OPS", 1_500))
CACHE_CAPACITY = 8
N_PAGES = 32
AUDIT_EVERY = 25
SAVINGS_FLOOR = {"physiological": 0.20, "generalized": 0.20, "physical": 0.10}
# The retired recency-only pool's last run: seed 16, 1 500 commands.
BASELINE_OPS = 1_500
LEGACY_BASELINE = {
    "logical": {"page_flushes": 0, "evictions": 0, "durable_ops": 675},
    "physical": {"page_flushes": 350, "evictions": 478, "durable_ops": 669},
    "physiological": {"page_flushes": 307, "evictions": 478, "durable_ops": 669},
    "generalized": {"page_flushes": 367, "evictions": 672, "durable_ops": 675},
}
METHODS = ("logical", "physical", "physiological", "generalized")


def spec_for(method: str) -> KVWorkloadSpec:
    """A mixed, read-heavy stream with a mutation hotspot.

    The audits lift every logged record to an abstract operation, which
    constrains the mix per method: physical logs whole-page images for
    deletes (unliftable granularity) and neither physical nor
    physiological can express cross-page copyadd — so those methods get
    a put/add mix, while logical and generalized keep copyadd in.
    """
    base = dict(
        n_operations=N_OPS,
        n_keys=200,
        delete_ratio=0.0,
        hot_fraction=0.7,
        hot_keys=6,
        value_range=8,
    )
    if method in ("physical", "physiological"):
        return KVWorkloadSpec(put_ratio=0.3, add_ratio=0.15, **base)
    return KVWorkloadSpec(put_ratio=0.25, add_ratio=0.1, copyadd_ratio=0.1, **base)


def run_audited(method: str, stream) -> dict:
    """Run the stream, snapshot the *pre-crash* pool counters (recovery
    reboots the pool, resetting them), then crash, recover, and verify
    against the durable-prefix oracle."""
    db = KVDatabase(
        method=method,
        cache_capacity=CACHE_CAPACITY,
        n_pages=N_PAGES,
        commit_every=3,
        checkpoint_every=40,
    )
    audits = audit_failures = 0
    # Equal recoverability, half one: Corollary 5 (plus the scheduler
    # cross-check) must hold continuously under the pool being credited
    # with the savings.
    tracker = AuditTracker(db.method)
    for index, command in enumerate(stream, start=1):
        db.execute(command)
        if index % AUDIT_EVERY == 0:
            audits += 1
            if not tracker.audit(instant=index):
                audit_failures += 1
    pool = db.method.machine.pool
    counters = {
        "page_flushes": pool.flushes,
        "evictions": pool.evictions,
        **{f"scheduler_{k}": v for k, v in pool.scheduler.stats.as_dict().items()},
        "audits": audits,
        "audit_failures": audit_failures,
    }
    # Equal recoverability, half two: the crash contract is unchanged.
    db.crash_and_recover()
    counters["durable_ops"] = db.verify_against()
    return counters


def test_e16_flush_elision():
    results: dict[str, dict] = {}
    rows = []
    for method in METHODS:
        stream = generate_kv_workload(SEED, spec_for(method))
        graph = run_audited(method, stream)
        assert graph["audit_failures"] == 0, (
            f"{method}: {graph['audit_failures']} audit failures under the "
            f"scheduler — the savings are not at equal recoverability"
        )
        if N_OPS != BASELINE_OPS:  # the recorded baseline does not apply
            results[method] = {"graph": graph}
            rows.append(
                [method, graph["page_flushes"], "-", "-",
                 graph["scheduler_elisions"], f"{graph['audits']}/0"]
            )
            continue
        legacy = LEGACY_BASELINE[method]
        saved = legacy["page_flushes"] - graph["page_flushes"]
        savings = saved / legacy["page_flushes"] if legacy["page_flushes"] else 0.0
        results[method] = {
            "graph": graph,
            "legacy": legacy,
            "flushes_saved": saved,
            "savings_ratio": savings,
        }
        rows.append(
            [
                method,
                graph["page_flushes"],
                legacy["page_flushes"],
                f"{savings:.1%}",
                graph["scheduler_elisions"],
                f"{graph['audits']}/{graph['audit_failures']}",
            ]
        )

        assert graph["durable_ops"] == legacy["durable_ops"], (
            f"{method}: durable prefix differs from the recorded baseline's"
        )
        floor = SAVINGS_FLOOR.get(method)
        if floor is not None:
            assert savings >= floor, (
                f"{method}: the scheduler saved only {savings:.1%} of "
                f"{legacy['page_flushes']} flushes, needed {floor:.0%}"
            )

    lines = table(
        rows,
        headers=["method", "graph", "legacy", "saved", "elisions", "audits/fail"],
    )
    lines.append("")
    lines.append(
        f"page flushes over {N_OPS} mixed KV commands (seed {SEED}, "
        f"cache {CACHE_CAPACITY}/{N_PAGES} pages): graph-driven install "
        f"scheduling vs the recorded recency-only legacy pool"
    )
    emit("E16", "flush elision via the install scheduler", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "experiment": "E16",
        "seed": SEED,
        "n_operations": N_OPS,
        "cache_capacity": CACHE_CAPACITY,
        "n_pages": N_PAGES,
        "audit_every": AUDIT_EVERY,
        "methods": results,
    }
    (RESULTS_DIR / "BENCH_write_graph.json").write_text(
        json.dumps(payload, indent=1)
    )
