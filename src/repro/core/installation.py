"""Installation graphs (§3.1).

The installation graph is the conflict graph with the edges that exist
*solely* because of write–read conflicts removed.  Its prefixes are
exactly the operation sets that may appear installed in a potentially
recoverable state — strictly more sets than conflict-graph prefixes
(Scenario 2: ``{A}`` is an installation-graph prefix but not a
conflict-graph prefix).

Two writers of the same variable always share a ``ww`` edge, which
survives the removal, so the installation state graph (the conflict state
graph restructured on installation edges) is still a well-formed state
graph and every installation-graph prefix determines a state.

The module also provides the earlier VLDB'95 definition — which removed
certain write–write edges as well — so the paper's §1.3 claim that the two
definitions yield the same explainable states can be tested empirically
(experiment E3).
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator

from repro.core.conflict import RW, WR, WW, ConflictGraph
from repro.core.expr import Value
from repro.core.model import Operation, State
from repro.core.state_graph import StateGraph
from repro.graphs import Dag, all_prefixes


class InstallationGraph:
    """The installation graph derived from a conflict graph.

    Subscribes to the conflict graph's append feed: when an operation is
    appended to the conflict graph, its incoming edges (whose labels are
    final at that moment — conflict edges only ever point into the newest
    operation) are filtered on the fly, so the installation graph tracks
    a growing conflict graph with no rebuild.  Its installation state
    graphs (:meth:`state_graph`) grow on the same feed.
    """

    def __init__(self, conflict: ConflictGraph):
        self.conflict = conflict
        self.dag = conflict.dag.filter_edges(
            lambda source, target, labels: labels != {WR}
        )
        # One (initial, running state, state graph) per initial state asked
        # for; each graph shares ``self.dag`` and grows on every append.
        self._state_graphs: list[tuple[State, State, StateGraph]] = []
        conflict.subscribe(self._on_append)

    def _on_append(self, operation: Operation, incoming: dict[str, set[str]]) -> None:
        """Apply one conflict-graph append: keep every new edge whose
        label set is not exactly {wr} (§3.1), and label the new node in
        every cached state graph."""
        self.dag.add_node(operation.name)
        for source, labels in incoming.items():
            if labels != {WR}:
                self.dag.add_edge(
                    source, operation.name, labels=labels, check_acyclic=False
                )
        for _, running, graph in self._state_graphs:
            self._label(graph, running, operation)

    def _label(self, graph: StateGraph, running: State, operation: Operation) -> None:
        """Evaluate ``operation`` once, against the state the operations
        before it generated, and label its node with what it wrote."""
        writes = operation.evaluate(running)
        for variable, value in writes.items():
            running.set(variable, value)
        graph.add_node(
            operation.name, (operation,), writes,
            position=self.conflict.position(operation.name),
        )

    # ------------------------------------------------------------------
    # Lookup / order
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.conflict)

    @property
    def operations(self) -> tuple[Operation, ...]:
        return self.conflict.operations

    def operation(self, name: str) -> Operation:
        """The operation named ``name`` (KeyError if absent)."""
        return self.conflict.operation(name)

    def has_edge(self, source: Operation, target: Operation) -> bool:
        """Is there a direct installation edge from ``source`` to ``target``?"""
        return self.dag.has_edge(source.name, target.name)

    def removed_edges(self) -> list[tuple[Operation, Operation]]:
        """The conflict-graph edges absent from the installation graph."""
        return [
            (source, target)
            for source, target, labels in self.conflict.edges()
            if labels == {WR}
        ]

    def is_prefix(self, operations: Iterable[Operation]) -> bool:
        """True iff ``operations`` induces a prefix of the installation graph."""
        return self.dag.is_prefix({op.name for op in operations})

    def prefixes(self, limit: int | None = None) -> Iterator[frozenset[Operation]]:
        """Every installation-graph prefix, as frozensets of operations."""
        for names in all_prefixes(self.dag, limit=limit):
            yield frozenset(self.conflict.operation(name) for name in names)

    def minimal_uninstalled(self, installed: Iterable[Operation]) -> set[Operation]:
        """Minimal *conflict-graph* operations outside the installed set (§3.3).

        Replay order is conflict-graph order even though installed sets are
        installation-graph prefixes, so minimality here is taken in the
        conflict graph.
        """
        installed_set = set(installed)
        uninstalled = [op for op in self.operations if op not in installed_set]
        return self.conflict.minimal_operations(uninstalled)

    # ------------------------------------------------------------------
    # Determined states
    # ------------------------------------------------------------------

    def state_graph(self, initial: State) -> StateGraph:
        """The installation state graph (conflict-state-graph values,
        installation edges).

        Built once per initial state, then grown on each append, so the
        audit loops evaluate every operation exactly once.  It reads
        ``self.dag`` in place: treat it as read-only.
        """
        for cached, _, graph in self._state_graphs:
            if cached == initial:
                return graph
        running = initial.copy()
        graph = StateGraph(self.dag)
        for operation in self.operations:
            self._label(graph, running, operation)
        self._state_graphs.append((initial.copy(), running, graph))
        return graph

    def determined_values(
        self, installed: Collection[str], variables: Iterable[str], initial: State
    ) -> dict[str, Value]:
        """The state the prefix named by ``installed`` (operation names; not
        checked) determines, on ``variables`` only: each one's value from its
        newest installed writer, else from ``initial``.  Same-variable writers
        are ordered by ``ww`` edges in sequence order, so this is
        :meth:`StateGraph.determined_state`'s rule."""
        graph = self.state_graph(initial)
        writers = self.conflict.variable_index.writers
        values: dict[str, Value] = {}
        for variable in variables:
            for writer in reversed(writers(variable)):
                if writer.name in installed:
                    values[variable] = graph.written(writer.name, variable)
                    break
            else:
                values[variable] = initial[variable]
        return values

    def determined_state(
        self, prefix: Iterable[Operation], initial: State
    ) -> State:
        """The state determined by an installation-graph prefix (§3.1).

        Contains the final (conflict-order) values of every variable
        written by an operation in the prefix, and initial values
        elsewhere.  Raises ValueError if ``prefix`` is not a prefix.
        """
        members = set(prefix)
        if not self.is_prefix(members):
            raise ValueError("not a prefix of the installation graph")
        written = {variable for op in members for variable in op.write_set}
        names = {op.name for op in members}
        return initial.updated(self.determined_values(names, written, initial))

    def __repr__(self) -> str:
        return (
            f"InstallationGraph(ops={len(self)}, edges={self.dag.edge_count()}, "
            f"removed={len(self.removed_edges())})"
        )


def vldb95_dag(conflict: ConflictGraph) -> Dag:
    """A *naive* ww-relaxed installation graph, for the §1.3 discussion.

    The earlier VLDB'95 definition removed certain write–write edges in
    addition to write–read edges, via what the SIGMOD'03 paper calls "an
    elaborate construction".  This function implements the obvious naive
    rule — drop the ``ww`` edge ``O -> P`` on ``x`` when ``P`` writes
    ``x`` blindly and nothing reads ``x`` between them — and the tests
    demonstrate *why* the real construction had to be elaborate: the naive
    rule admits prefixes whose determined states are unrecoverable
    (readers of ``x`` ordered before ``O`` lose their transitive ordering
    to ``P``, and replaying them clobbers the installed value).  The
    experiments then confirm the §1.3 equivalence at the level that
    matters: a state is recoverable iff it is explainable by a prefix of
    the *simple* (wr-removal-only) installation graph.
    """
    dag = Dag()
    for operation in conflict.operations:
        dag.add_node(operation.name)
    order = {op.name: i for i, op in enumerate(conflict.operations)}
    for source, target, labels in conflict.edges():
        reasons = set()
        if RW in labels:
            reasons.add(RW)
        if WW in labels:
            # Find the variables responsible for the ww conflict and check
            # whether each one is blind-written by the target with no
            # intervening reader.
            for variable in source.write_set & target.write_set:
                if not _is_droppable_ww(conflict, order, source, target, variable):
                    reasons.add(WW)
                    break
        if reasons:
            dag.add_edge(source.name, target.name, labels=reasons, check_acyclic=False)
    return dag


def _is_droppable_ww(
    conflict: ConflictGraph,
    order: dict[str, int],
    source: Operation,
    target: Operation,
    variable: str,
) -> bool:
    lo, hi = order[source.name], order[target.name]
    between = conflict.operations[lo + 1 : hi]
    if any(other.writes(variable) for other in between):
        # An intermediate writer means this variable is not responsible for
        # the ww edge at all, so it cannot force the edge to be kept.
        return True
    if not target.writes_blindly(variable):
        return False
    return not any(other.reads(variable) for other in between)
