#!/usr/bin/env python3
"""Crash and recover a key-value database under all three §6 methods.

Runs the same workload on logical (System R-style), physical, and
physiological engines; crashes each at an awkward moment; recovers; and
verifies the durability contract — the recovered state equals exactly
the committed prefix of the operation stream.  Then sweeps every crash
point to show there is no bad instant.

Run:  python examples/crash_recovery_demo.py
"""

from repro.engine import KVDatabase
from repro.sim import crash_sweep
from repro.workloads.kv import MUTATIONS, KVWorkloadSpec, generate_kv_workload

METHODS = ["logical", "physical", "physiological"]


def one_dramatic_crash() -> None:
    print("=== One crash, three recovery disciplines ===")
    stream = generate_kv_workload(
        9, KVWorkloadSpec(n_operations=80, n_keys=16, put_ratio=0.8)
    )
    for method in METHODS:
        db = KVDatabase(
            method=method,
            cache_capacity=4,        # tiny cache: constant evictions
            commit_every=3,          # group commit: a tail can be lost
            checkpoint_every=20,
        )
        db.run(stream)
        db.crash()                   # cache gone, log tail gone, disk intact
        db.recover()
        durable = db.verify_against(stream)
        report = db.report()
        issued = sum(1 for command in stream if command[0] in MUTATIONS)
        print(
            f"  {method:14s} issued={issued:3d} durable={durable:3d} "
            f"lost_tail={issued - durable}  "
            f"log={report['log_bytes']:5d}B pages={report['disk_page_writes']:3d} "
            f"replayed={report['method_records_replayed']:3d} "
            f"skipped={report['method_records_skipped']:3d}"
        )
    print("  (every method recovers exactly its durable prefix; the methods")
    print("   differ in *how* — staging swings, blind re-installs, LSN tests)")


def sweep_every_instant() -> None:
    print("\n=== Crash at EVERY instant, recover, continue, verify ===")
    stream = generate_kv_workload(10, KVWorkloadSpec(n_operations=50, n_keys=10))
    for method in METHODS:
        make = lambda m=method: KVDatabase(
            method=m, cache_capacity=4, checkpoint_every=12
        )
        results = crash_sweep(make, stream)
        failures = [r for r in results if not r.recovered]
        status = "all recovered" if not failures else f"{len(failures)} FAILURES"
        print(f"  {method:14s} {len(results)} crash points: {status}")
        assert not failures


def recovery_is_restartable() -> None:
    print("\n=== Recovery survives being crashed too ===")
    stream = generate_kv_workload(11, KVWorkloadSpec(n_operations=40, n_keys=8))
    db = KVDatabase(method="physiological", cache_capacity=4)
    db.run(stream)
    for round_number in range(3):
        db.crash()
        db.recover()   # a crash during recovery just means recovering again
    durable = db.verify_against(stream)
    print(f"  three crash/recover rounds, still exactly {durable} durable ops")


if __name__ == "__main__":
    one_dramatic_crash()
    sweep_every_instant()
    recovery_is_restartable()
    print("\nThe recovery invariant held at every instant, for every method.")
