#!/usr/bin/env python3
"""A crash-safe bank ledger, continuously audited against the theory.

Accounts are keys; deposits are ``add`` operations (read-modify-write —
the non-idempotent kind that breaks naive redo tests), and interest credits
are ``copyadd`` operations (read one key, write another — the kind that
creates cross-variable write-read edges).  The ledger runs on the
logical engine while :func:`repro.sim.audit.audit_instant` lifts its
stable log to the abstract model and checks the Recovery Invariant after
every transaction.

Then the machine crashes mid-day, recovers, and the books still balance.

Run:  python examples/bank_ledger.py
"""

from random import Random

from repro.engine import KVDatabase
from repro.sim.audit import audit_instant, installation_graph_of


def post(db, ledger, command):
    """Run one transaction and keep it in the ledger the audit checks."""
    db.execute(command)
    ledger.append(command)


def open_accounts(db, ledger, names):
    for name in names:
        post(db, ledger, ("put", name, 1_000))


def business_day(db, ledger, rng, names, n_transactions=40):
    """Deposits, withdrawals, and cross-account interest credits."""
    audits = []
    for _ in range(n_transactions):
        roll = rng.random()
        account = rng.choice(names)
        if roll < 0.5:
            post(db, ledger, ("add", account, rng.randrange(-200, 400)))
        elif roll < 0.8:
            post(db, ledger, ("put", account, rng.randrange(500, 5_000)))
        else:
            other = rng.choice(names)
            # credit `account` with other's balance-derived bonus
            post(db, ledger, ("copyadd", account, (other, rng.randrange(1, 50))))
        audits.append(audit_instant(db))
    return audits


def main() -> None:
    names = [f"acct-{c}" for c in "abcdef"]
    db = KVDatabase(
        method="logical",
        cache_capacity=4,
        commit_every=2,        # group commit
        checkpoint_every=15,   # periodic staging-area swings
    )
    rng = Random(2026)
    ledger = []

    open_accounts(db, ledger, names)
    audits = business_day(db, ledger, rng, names)
    violations = [a for a in audits if not a.holds]
    print(f"transactions processed : {len(audits) + len(names)}")
    print(f"invariant audits       : {len(audits)}  violations: {len(violations)}")
    assert not violations

    graph = installation_graph_of(db)
    print(
        f"lifted installation graph: {len(graph)} operations, "
        f"{graph.dag.edge_count()} edges "
        f"({len(graph.removed_edges())} write-read edges removed)"
    )

    balances_before = {name: db.get(name) for name in names}
    print("\n-- power failure! --")
    db.crash_and_recover()
    durable = db.verify_against(ledger)
    print(f"recovered; {durable} transactions were durable")
    balances_after = {name: db.get(name) for name in names}

    lost = {
        name: (balances_before[name], balances_after[name])
        for name in names
        if balances_before[name] != balances_after[name]
    }
    if lost:
        print("balances rolled back to the last committed group:")
        for name, (before, after) in sorted(lost.items()):
            print(f"  {name}: {before} -> {after}")
    else:
        print("every balance survived (the crash hit a commit boundary)")

    # The books balance: the recovered state equals the oracle of the
    # durable prefix — verified above by verify_against(ledger); and the
    # recovered ledger accepts new business.
    del ledger[durable:]
    post(db, ledger, ("add", names[0], 1))
    db.commit()
    db.crash_and_recover()
    db.verify_against(ledger)
    print("post-recovery deposits survive their own crash: books balance.")


if __name__ == "__main__":
    main()
