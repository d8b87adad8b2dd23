"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.conflict import ConflictGraph
from repro.core.expr import Var, assign, blind_write
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.workloads.opgen import scenario_library


@pytest.fixture
def initial_state() -> State:
    return State()


@pytest.fixture
def scenarios():
    return scenario_library()


@pytest.fixture
def opq():
    """The paper's running example (Figures 4, 5, 7): O, P, Q."""
    O = assign("O", "x", Var("x") + 1)
    P = assign("P", "y", Var("x") + 1)
    Q = assign("Q", "x", Var("x") + 2)
    return O, P, Q


@pytest.fixture
def opq_conflict(opq) -> ConflictGraph:
    return ConflictGraph(list(opq))


@pytest.fixture
def opq_installation(opq_conflict) -> InstallationGraph:
    return InstallationGraph(opq_conflict)


def make_ops(*specs: tuple) -> list[Operation]:
    """Compact operation builder for tests.

    Each spec is ``(name, target, expr_or_value)`` for a single assignment
    or ``(name, {target: expr_or_value, ...})`` for multi-assignments.
    Plain values become blind writes.
    """
    from repro.core.expr import Const, Expr

    operations = []
    for spec in specs:
        if len(spec) == 2:
            name, assignments = spec
            lifted = {
                target: value if isinstance(value, Expr) else Const(value)
                for target, value in assignments.items()
            }
            operations.append(Operation.from_assignments(name, lifted))
        else:
            name, target, value = spec
            if isinstance(value, Expr):
                operations.append(assign(name, target, value))
            else:
                operations.append(blind_write(name, target, value))
    return operations


@pytest.fixture
def session_log(monkeypatch):
    """Record every mutation a :class:`~repro.engine.kv.Session` executes,
    with its database and LSN, for tests whose sessions run concurrently.

    Returns ``stream(*dbs)``: each database's recorded mutations sorted
    by LSN (log order), the databases concatenated in the order given —
    shard order for a deployment, which is what
    :meth:`~repro.shard.ShardedDatabase.verify_against` splits by.
    ``ShardedSession`` executes through one inner ``Session`` per shard,
    so server and deployment traffic is recorded too.
    """
    from repro.engine import kv
    from repro.workloads.kv import MUTATIONS

    records: list[tuple[int, int, tuple]] = []
    execute = kv.Session.execute

    def recording_execute(session, command):
        result = execute(session, command)
        if command[0] in MUTATIONS:
            records.append((id(session.db), session.last_lsn, command))
        return result

    monkeypatch.setattr(kv.Session, "execute", recording_execute)

    def stream(*dbs):
        return [
            record[2]
            for db in dbs
            for record in sorted(
                (r for r in records if r[0] == id(db)), key=lambda r: r[1]
            )
        ]

    return stream


def scratch_determined_state(
    operations: list[Operation], initial: State, names: set[str]
) -> State | None:
    """The state an installation-graph prefix determines, from scratch.

    Builds a fresh conflict/installation graph pair from ``operations``,
    relabels the installation dag with a fresh conflict state graph's
    values and asks it for the prefix ``names``' determined state, with
    no position hint (same-variable writers are ordered by path queries).
    None if ``names`` is not an installation-graph prefix.
    """
    from repro.core.state_graph import StateGraph

    fresh = InstallationGraph(ConflictGraph(operations))
    if not fresh.dag.is_prefix(names):
        return None
    values = StateGraph.conflict_state_graph(fresh.conflict, initial)
    graph = StateGraph(fresh.dag)
    for op in fresh.operations:
        graph.add_node(op.name, values.ops(op.name), values.writes(op.name))
    return graph.determined_state(initial, names)
