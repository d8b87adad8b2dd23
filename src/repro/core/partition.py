"""Partition-aware redo at the theory level (§2.2 + Theorem 3).

Two operations conflict only if they access a common variable (§2.2), so
the connected components of the "shares a variable" relation partition
the unrecovered suffix into sets with *no conflict edges between them*.
Replaying the partitions independently — each in log order — is then a
schedule whose projection onto every conflict edge matches the log:

- within a partition, log order is preserved by construction;
- across partitions there are no edges to violate.

The interleaving is therefore conflict-order consistent with the log,
and Theorem 3 (potential recoverability) promises the same final state
as the sequential left-to-right scan of Figure 6.  Because write sets
are confined to their component's variables, the per-partition results
are disjoint sub-assignments and merging them is well defined.

The soundness argument needs two premises worth naming:

1. **Installation-graph independence.**  Partitions share no variables,
   hence no read-write, write-read, or write-write edges.  An operation
   that reads a variable written by another component would create a
   cross-partition conflict edge, the premise of Theorem 3 would fail,
   and the partitioned schedule could expose it to the wrong value —
   which is why :func:`partition_operations` unions over
   ``operation.variables()`` (reads *and* writes), not write sets alone.
2. **Locality of the redo test.**  The redo test must depend only on
   state the operation's own component determines (the page-LSN test and
   ``always_redo`` both qualify).  A test that consulted unrelated
   variables could observe a partially recovered cross-partition state.

Threading is opt-in (``max_workers``): partitions are pure functions of
their slice of the state, workers share nothing mutable, and the merge
happens single-threaded after all partitions complete.  The engine-level
counterpart for page-granularity methods is the page-wise lazy plan
(:mod:`repro.methods.lazy`): each page's chain replays independently,
on the page's first access.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from repro.core.model import Operation, State
from repro.core.recovery import (
    Log,
    RecoveryOutcome,
    RedoDecision,
    RedoTest,
    always_redo,
)

__all__ = ["VariablePartition", "partition_operations", "recover_partitioned"]


class VariablePartition:
    """Incremental union-find over variable-connected components.

    :meth:`add` unions one operation's variables into the structure in
    O(|variables| α) amortized, so a live system can maintain the
    component partition of its log as it appends instead of recomputing
    union-find from scratch at recovery time (the engine trackers and
    :func:`recover_partitioned` both feed it one operation at a time).
    :meth:`components` buckets the added operations by their component
    root, preserving arrival (log) order within each bucket and ordering
    buckets by earliest operation — the bucketing pass is memoized and
    only re-runs after new :meth:`add` calls.
    """

    def __init__(self, operations: Iterable[Operation] = ()):
        self._parent: dict[str, str] = {}
        self._size: dict[str, int] = {}
        self._operations: list[Operation] = []
        self._components_cache: list[list[Operation]] | None = None
        for operation in operations:
            self.add(operation)

    def find(self, variable: str) -> str:
        """The component root of ``variable`` (KeyError if never added)."""
        parent = self._parent
        root = variable
        while parent[root] != root:
            root = parent[root]
        while parent[variable] != root:  # path compression
            parent[variable], variable = root, parent[variable]
        return root

    def _union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:  # union by size
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def add(self, operation: Operation) -> None:
        """Union ``operation``'s variables into the partition."""
        variables = iter(operation.variables())
        first = next(variables)
        if first not in self._parent:
            self._parent[first] = first
            self._size[first] = 1
        for variable in variables:
            if variable not in self._parent:
                self._parent[variable] = variable
                self._size[variable] = 1
            self._union(first, variable)
        self._operations.append(operation)
        self._components_cache = None

    def component_count(self) -> int:
        """Number of variable-connected components with operations."""
        return len({self.find(next(iter(op.variables()))) for op in self._operations})

    def components(self) -> list[list[Operation]]:
        """The added operations, grouped by component, log order within."""
        if self._components_cache is None:
            buckets: dict[str, list[Operation]] = {}
            for operation in self._operations:
                root = self.find(next(iter(operation.variables())))
                buckets.setdefault(root, []).append(operation)
            self._components_cache = list(buckets.values())
        return self._components_cache


def partition_operations(
    operations: Iterable[Operation],
) -> list[list[Operation]]:
    """Group ``operations`` into variable-connected components.

    Union-find over ``operation.variables()``; each returned partition
    preserves the input (log) order.  Partitions are returned in order
    of their earliest operation, so the concatenation of all partitions
    is a permutation of the input that Theorem 3 accepts.
    """
    return VariablePartition(operations).components()


def _recover_partition(
    operations: list[Operation],
    base: State,
    log: Log,
    redo: RedoTest,
    trace: bool,
) -> tuple[State, set[Operation], list[RedoDecision], set[str]]:
    """Replay one partition, in log order, against a private state copy."""
    current = base.copy()
    redo_set: set[Operation] = set()
    decisions: list[RedoDecision] = []
    touched: set[str] = set()
    for operation in operations:
        touched |= operation.variables()
        if redo(operation, current, log, None):
            current = operation.apply(current)
            redo_set.add(operation)
            if trace:
                decisions.append(RedoDecision(operation, True, None))
        elif trace:
            decisions.append(RedoDecision(operation, False, None))
    return current, redo_set, decisions, touched


def recover_partitioned(
    state: State,
    log: Log,
    checkpoint: Iterable[Operation] = (),
    redo: RedoTest = always_redo,
    max_workers: int | None = None,
    trace: bool = False,
    partition: VariablePartition | None = None,
) -> RecoveryOutcome:
    """Figure 6 recovery, partitioned by variable-connected component.

    Produces the same :class:`RecoveryOutcome` as the sequential
    :func:`repro.core.recovery.recover` (Theorem 3; see the module
    docstring for the argument), replaying independent components
    separately — concurrently when ``max_workers`` is set.

    A :class:`VariablePartition` maintained during normal operation may
    be passed as ``partition`` to skip the union-find pass entirely; it
    must cover at least the unrecovered operations (components are
    filtered down to them — merging components is always sound, it only
    reduces available parallelism).

    The redo test must be local to each operation's component (the
    module docstring's premise 2); per-iteration ``analyze`` protocols
    are inherently sequential and are not supported here — use the
    sequential procedure for those.
    """
    checkpoint_set = frozenset(checkpoint)
    logged: set[Operation] = set()
    unrecovered: list[Operation] = []
    for record in log:
        logged.add(record.operation)
        if record.operation not in checkpoint_set:
            unrecovered.append(record.operation)

    if partition is None:
        partitions = partition_operations(unrecovered)
    else:
        wanted = set(unrecovered)
        partitions = [
            kept
            for component in partition.components()
            if (kept := [op for op in component if op in wanted])
        ]
        missing = wanted.difference(op for part in partitions for op in part)
        if missing:
            raise ValueError(
                f"partition does not cover {len(missing)} unrecovered operations "
                f"(e.g. {sorted(op.name for op in missing)[:3]})"
            )
    position = {op: i for i, op in enumerate(unrecovered)}

    def run(ops: list[Operation]):
        return _recover_partition(ops, state, log, redo, trace)

    if max_workers is not None and max_workers > 1 and len(partitions) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, partitions))
    else:
        results = [run(ops) for ops in partitions]

    # Single-threaded merge: partitions wrote disjoint variable sets, so
    # copying each partition's touched variables into the base state is
    # exactly the union of their sub-assignments.
    merged = state.copy()
    redo_set: set[Operation] = set()
    decisions: list[RedoDecision] = []
    for final, part_redo, part_decisions, touched in results:
        for variable in touched:
            merged.set(variable, final[variable])
        redo_set |= part_redo
        decisions.extend(part_decisions)
    decisions.sort(key=lambda decision: position[decision.operation])

    return RecoveryOutcome(
        state=merged,
        redo_set=redo_set,
        decisions=decisions,
        checkpoint=checkpoint_set,
        logged=frozenset(logged),
    )
