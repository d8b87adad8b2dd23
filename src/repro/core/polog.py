"""Partial-order logs (§4.1).

The paper defines a log for a conflict graph as *any* DAG whose nodes
are the graph's operations and whose order is consistent with conflict
order — "it is not necessary to have a totally ordered log reflecting
the exact execution order; only conflicting logged operations need to be
ordered" (a consequence of Lemma 1).

:class:`PartialOrderLog` is that object.  Passed to
:func:`repro.core.recovery.recover`, it supplies Figure 6's "minimal
unrecovered" operation: that operation is not unique in a partial
order, so the log's tie-break policy chooses among the DAG-minimal
candidates.  The §4.1 claim, which the tests verify, is that the
recovered state is independent of the policy — any linearization the
DAG admits recovers the same state.  A component-by-component replay
of variable-disjoint operations is one such linearization.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.conflict import ConflictGraph
from repro.core.model import Operation
from repro.graphs import Dag

TieBreak = Callable[[list[Operation]], Operation]


def first_by_name(candidates: list[Operation]) -> Operation:
    """Deterministic default tie-break: lexicographically least name."""
    return min(candidates, key=lambda op: op.name)


class PartialOrderLog:
    """A DAG of logged operations, ordered only by conflict (plus any
    extra edges the logger chose to impose); ``tie_break`` picks which
    minimal record recovery takes next."""

    def __init__(
        self,
        conflict: ConflictGraph,
        extra_edges: Iterable[tuple] = (),
        tie_break: TieBreak = first_by_name,
    ):
        self.conflict = conflict
        self.tie_break = tie_break
        self.dag = Dag()
        for operation in conflict.operations:
            self.dag.add_node(operation.name)
        for source, target, labels in conflict.dag.edges():
            self.dag.add_edge(source, target, labels=labels, check_acyclic=False)
        for source, target in extra_edges:
            self.dag.add_edge(source.name, target.name)

    def minimal_unrecovered(self, unrecovered: set[Operation]) -> list[Operation]:
        """The records recovery may legally consider next."""
        names = {op.name for op in unrecovered}
        return [
            self.conflict.operation(name)
            for name in self.dag.minimal_nodes(names)
        ]

    def recovery_order(self, checkpoint: frozenset[Operation]) -> Iterator[Operation]:
        """Every logged operation once: the checkpointed ones first, then
        the unrecovered ones, each the tie-break's pick among the minimal
        candidates of what is left.  A pick outside the candidates is an
        error — replaying it would break conflict order."""
        remaining: set[Operation] = set()
        for operation in self.conflict.operations:
            if operation in checkpoint:
                yield operation
            else:
                remaining.add(operation)
        while remaining:
            candidates = self.minimal_unrecovered(remaining)
            operation = self.tie_break(candidates)
            if operation not in candidates:
                raise ValueError("tie_break returned a non-candidate operation")
            remaining.discard(operation)
            yield operation

    def is_consistent(self) -> bool:
        """§4.1's condition: conflict order embeds in log order."""
        return all(
            self.dag.has_path(a.name, b.name)
            for a, b, _ in self.conflict.edges()
        )

    def __repr__(self) -> str:
        return f"PartialOrderLog(ops={len(self.conflict)}, edges={self.dag.edge_count()})"
