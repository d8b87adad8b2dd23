"""The Recovery Invariant (§4.5) as an executable contract checker.

    The set ``operations(log) − redo_set`` induces a prefix of the
    installation graph that explains the state.

The invariant is the paper's central artifact: it is what every component
of a recoverable system — cache manager, log manager, checkpointer, redo
test — conspires to maintain.  :func:`check_recovery_invariant` evaluates
it for a concrete (state, log, checkpoint, redo test) quadruple by running
the recovery procedure against a scratch copy of the state to discover
``redo_set``, then checking the prefix and explanation conditions.

Corollary 4 says that when the invariant holds, ``recover`` terminates in
the state determined by the conflict graph; the checker optionally
verifies that too (``verify_outcome=True``), making it a one-call audit
for recovery-method implementations (the §6 methods are all audited this
way in the tests and benchmarks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.conflict import ConflictGraph
from repro.core.explain import explanation
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.core.recovery import AnalyzeFn, Log, RecoveryOutcome, RedoTest, recover


@dataclass
class InvariantReport:
    """The verdict of one invariant check, with full forensics."""

    holds: bool
    is_prefix: bool
    explains_state: bool
    installed: frozenset[Operation]
    redo_set: frozenset[Operation]
    exposed: frozenset[str]
    mismatched_variables: frozenset[str]
    outcome: RecoveryOutcome | None = None
    recovered_correctly: bool | None = None

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        """A human-readable multi-line summary (used by the example apps)."""
        lines = [
            f"recovery invariant: {'HOLDS' if self.holds else 'VIOLATED'}",
            f"  installed set   : {sorted(op.name for op in self.installed)}",
            f"  redo set        : {sorted(op.name for op in self.redo_set)}",
            f"  prefix of inst. : {self.is_prefix}",
            f"  explains state  : {self.explains_state}",
        ]
        if self.mismatched_variables:
            lines.append(
                f"  exposed vars with wrong values: {sorted(self.mismatched_variables)}"
            )
        if self.recovered_correctly is not None:
            lines.append(f"  recover() reached final state : {self.recovered_correctly}")
        return "\n".join(lines)


def installed_set(log: Log, redo_set: Iterable[Operation]) -> set[Operation]:
    """``operations(log) − redo_set``."""
    return set(log.iter_operations()) - set(redo_set)


def check_recovery_invariant(
    installation: InstallationGraph,
    state: State,
    log: Log,
    initial: State,
    checkpoint: Iterable[Operation] = (),
    redo: RedoTest | None = None,
    analyze: AnalyzeFn | None = None,
    verify_outcome: bool = False,
) -> InvariantReport:
    """Evaluate the Recovery Invariant for a crash-time configuration.

    Runs the recovery procedure on a scratch copy of ``state`` to obtain
    the ``redo_set`` the system *would* choose if it crashed now, then
    checks that the complement induces an installation-graph prefix
    explaining ``state``.  With ``verify_outcome`` the recovered state is
    additionally compared with the conflict graph's final state,
    confirming Corollary 4's conclusion on this instance.
    """
    from repro.core.recovery import always_redo

    redo_test = redo if redo is not None else always_redo
    outcome = recover(state, log, checkpoint=checkpoint, redo=redo_test, analyze=analyze)
    installed = installed_set(log, outcome.redo_set)
    prefix_ok, exposed, mismatched = explanation(
        installation, installed, state, initial
    )
    explains_ok = prefix_ok and not mismatched

    recovered_ok: bool | None = None
    if verify_outcome:
        final = installation.conflict.final_state(initial)
        variables: set[str] = set()
        for operation in installation.conflict.operations:
            variables |= operation.variables()
        recovered_ok = outcome.state.agrees_with(final, variables)

    return InvariantReport(
        holds=explains_ok,
        is_prefix=prefix_ok,
        explains_state=explains_ok,
        installed=frozenset(installed),
        redo_set=frozenset(outcome.redo_set),
        exposed=frozenset(exposed),
        mismatched_variables=frozenset(mismatched),
        outcome=outcome,
        recovered_correctly=recovered_ok,
    )


def audit_normal_operation(
    operations: list[Operation],
    initial: State,
    snapshots: list[tuple[State, Log, set[Operation]]],
    redo: RedoTest | None = None,
    analyze: AnalyzeFn | None = None,
) -> list[InvariantReport]:
    """Check the invariant at a series of instants of normal operation.

    ``snapshots`` holds (stable state, stable log, checkpoint set) triples
    captured at successive points in an execution — e.g. after every cache
    flush.  The invariant must hold at *every* instant, because a crash can
    happen at any of them (§4.5).  Returns one report per snapshot.

    The snapshot logs of an execution grow monotonically, so one pair of
    incremental graphs is appended to across the instants (Lemma 1 makes
    the left-to-right construction order-safe); only a snapshot whose log
    is *not* an extension of the previous one forces a rebuild.
    ``operations`` documents the full run and is used only as a sanity
    bound on the final snapshot.
    """
    reports = []
    conflict: ConflictGraph | None = None
    installation: InstallationGraph | None = None
    built: list[Operation] = []
    for state, log, checkpoint in snapshots:
        # The log at a snapshot covers only the operations executed so
        # far; the graphs must contain exactly those.
        logged_ops = list(log.operations())
        if (
            conflict is not None
            and len(logged_ops) >= len(built)
            and logged_ops[: len(built)] == built
        ):
            conflict.extend(logged_ops[len(built):])
        else:
            conflict = ConflictGraph(logged_ops)
            installation = InstallationGraph(conflict)
        built = logged_ops
        assert installation is not None
        reports.append(
            check_recovery_invariant(
                installation,
                state,
                log,
                initial,
                checkpoint=checkpoint,
                redo=redo,
                analyze=analyze,
                verify_outcome=True,
            )
        )
    if built and len(built) > len(operations):
        raise ValueError("final snapshot logged more operations than the run")
    return reports
