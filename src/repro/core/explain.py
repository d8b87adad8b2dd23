"""Explainable states and operation applicability (§3.2–§3.3).

A prefix σ of the installation graph **explains** a state S when every
variable *exposed by σ* has the same value in S as in the state determined
by σ.  Unexposed variables may hold anything — their values are
overwritten before being read during a replay.  States explained by some
prefix are **explainable**, and Theorem 3 (in :mod:`repro.core.replay`)
shows they are potentially recoverable.  :func:`explanation` is the one
place that verdict is computed: the Recovery Invariant checker, the
write-graph and live-engine audits and the B-tree audit all call it.

An operation O is **applicable** to S when O's read-set variables have the
same values in S as in the state determined by O's conflict-graph
predecessors, so O reads — and therefore writes — the same values it did
in the original execution.  The §3.3 replay step lemma
(:func:`replay_step_preserves_explanation`) is the induction step of
Theorem 3 and is property-tested directly.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

from repro.core.exposed import ExposureMemo, exposed_variables
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State


def explanation(
    installation: InstallationGraph,
    installed: Collection[Operation] | None,
    state: State,
    initial: State,
    memo: ExposureMemo | None = None,
) -> tuple[bool, set[str], set[str]]:
    """§3.2's "explains", computed once for every checker in the repo.

    Returns ``(is_prefix, exposed, mismatched)``: whether ``installed``
    induces an installation-graph prefix, the variables it exposes, and
    the exposed variables whose value in ``state`` differs from the
    prefix-determined one.  The prefix explains ``state`` iff
    ``is_prefix`` and ``mismatched`` is empty; a non-prefix stops at the
    prefix test, with both sets empty.  Determined values are read from
    each variable's last installed writer
    (:meth:`InstallationGraph.determined_values`).

    ``memo``, an :class:`~repro.core.exposed.ExposureMemo` built over
    ``installation``, answers incrementally: moved to ``installed`` with
    every variable re-checked, or with ``installed=None`` at its own
    installed set, re-checking only the variables touched since.
    """
    if memo is not None:
        if installed is not None:
            memo.set_installed(installed)
            memo.touch(installation.conflict.variable_index.variables())
        return memo.explain(state, initial)
    installed = set(installed)
    if not installation.is_prefix(installed):
        return False, set(), set()
    exposed = exposed_variables(installation.conflict, installed)
    determined = installation.determined_values(
        {operation.name for operation in installed}, exposed, initial
    )
    mismatched = {
        variable for variable in exposed if state[variable] != determined[variable]
    }
    return True, exposed, mismatched


def explains(
    installation: InstallationGraph,
    prefix: Iterable[Operation],
    state: State,
    initial: State,
) -> bool:
    """Does installation-graph prefix ``prefix`` explain ``state`` (§3.2)?

    Raises ValueError if ``prefix`` is not actually a prefix of the
    installation graph; returns a boolean verdict otherwise.
    """
    is_prefix, _, mismatched = explanation(installation, set(prefix), state, initial)
    if not is_prefix:
        raise ValueError("explains() requires a prefix of the installation graph")
    return not mismatched


def find_explaining_prefixes(
    installation: InstallationGraph,
    state: State,
    initial: State,
    limit: int | None = None,
) -> Iterator[frozenset[Operation]]:
    """All installation-graph prefixes that explain ``state``.

    Exhaustive search over prefixes; intended for the worked figures, the
    tests, and the recovery checker, where graphs are small.  Yields
    prefixes in no particular order.
    """
    for prefix in installation.prefixes(limit=limit):
        if explains(installation, prefix, state, initial):
            yield prefix


def is_explainable(
    installation: InstallationGraph,
    state: State,
    initial: State,
) -> bool:
    """Is ``state`` explained by *some* installation-graph prefix?"""
    return next(
        find_explaining_prefixes(installation, state, initial), None
    ) is not None


def is_applicable(
    installation: InstallationGraph,
    operation: Operation,
    state: State,
    initial: State,
) -> bool:
    """Is ``operation`` applicable to ``state`` (§3.3)?

    Compares the operation's read-set values in ``state`` with their
    values in the state determined by the operation's conflict-graph
    predecessors.
    """
    conflict = installation.conflict
    predecessors = conflict.predecessors(operation)
    # The installation state graph carries the same per-node values and
    # the same total order among same-variable writers (ww edges survive
    # §3.1 edge removal), so its cached instance answers conflict-graph
    # determined-state queries too.
    state_graph = installation.state_graph(initial)
    reference = state_graph.determined_state(
        initial, {op.name for op in predecessors}
    )
    return state.agrees_with(reference, operation.read_set)


def extend_prefix(
    installation: InstallationGraph,
    prefix: Iterable[Operation],
    operation: Operation,
) -> frozenset[Operation]:
    """``sigma; O`` — the prefix extended by a minimal uninstalled operation.

    Validates that ``operation`` really is a minimal uninstalled operation
    after ``prefix`` and that the result is again an installation-graph
    prefix (it always is; the check is an executable proof obligation).
    """
    members = set(prefix)
    minimal = installation.minimal_uninstalled(members)
    if operation not in minimal:
        raise ValueError(
            f"{operation.name!r} is not a minimal uninstalled operation"
        )
    extended = frozenset(members | {operation})
    if not installation.is_prefix(extended):
        raise AssertionError(
            "extending a prefix by a minimal uninstalled operation must "
            "yield a prefix; the theory guarantees this"
        )
    return extended


def replay_step_preserves_explanation(
    installation: InstallationGraph,
    prefix: Iterable[Operation],
    operation: Operation,
    state: State,
    initial: State,
) -> bool:
    """The §3.3 step lemma, checked executable-style.

    Given σ explaining S and a minimal uninstalled O: O is applicable to S,
    and σ;O explains S;O.  Returns True when both conclusions hold.
    """
    members = set(prefix)
    if not explains(installation, members, state, initial):
        raise ValueError("precondition failed: prefix does not explain state")
    if not is_applicable(installation, operation, state, initial):
        return False
    extended = extend_prefix(installation, members, operation)
    return explains(installation, extended, operation.apply(state), initial)
