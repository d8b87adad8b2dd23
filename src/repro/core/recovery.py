"""The abstract redo recovery procedure (§4, Figure 6).

Recovery begins with the state and the log as of the crash, plus a
checkpoint (a set of operations recovery may ignore).  It walks the
unrecovered operations, each time taking a minimal one in the order the
log supplies; for each it runs an *analysis* phase and then a *redo
test*, replaying the operation iff the test says yes.  :func:`recover`
is the one loop: a linear :class:`Log` and a partial-order
:class:`~repro.core.polog.PartialOrderLog` differ only in the order they
hand it (``recovery_order``).

The procedure is deliberately parameterized the way the paper's is:

- ``analyze(state, log, unrecovered, analysis) -> analysis`` runs at the
  top of every loop iteration.  The common "one analysis pass at the
  start" pattern is the special case that does real work only when the
  incoming analysis is ``None`` (see :func:`analysis_once`).
- ``redo(operation, state, log, analysis) -> bool`` decides replay.

:func:`recover` returns a :class:`RecoveryOutcome` recording the final
state, the ``redo_set``, the per-iteration trace, and the ``installed_i``
bookkeeping of §4.4 — everything Corollary 4 and the Recovery Invariant
talk about.

Since the log-stack unification, :class:`Log` is a *view* over the system
:class:`~repro.logmgr.manager.LogManager` — the same segmented store, the
same :class:`~repro.logmgr.records.LogRecord` type, the same single
LSN-assigning append path the §6 method engines use.  A theory log is
simply a manager whose payloads are abstract operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.core.conflict import ConflictGraph
from repro.core.model import Operation, State
from repro.logmgr.codec import LazyRecord
from repro.logmgr.manager import LogManager
from repro.logmgr.records import LogRecord

if TYPE_CHECKING:
    from repro.core.polog import PartialOrderLog

__all__ = [
    "Log",
    "LogRecord",
    "RedoDecision",
    "RecoveryOutcome",
    "always_redo",
    "analysis_once",
    "graph_analysis",
    "recover",
]


class Log:
    """A log for a conflict graph (§4.1), as a view over a log manager.

    Practical logs are linear, and the backing
    :class:`~repro.logmgr.manager.LogManager` stores records in a total
    order; §4.1 only requires consistency with the conflict order, which
    :meth:`is_log_for` verifies.  Records are append-only and LSNs are
    dense and increasing — assigned by the manager, the system's single
    LSN authority, never by this class.

    A ``Log`` may own a fresh manager (the theory-only use) or wrap one
    that an engine is writing through (the audit use); either way the
    records are the same objects, with no translation layer.  Suffix
    views (:meth:`suffix_from`) share the manager and materialize
    nothing.
    """

    def __init__(
        self,
        records: Iterable[LogRecord | Operation] = (),
        manager: LogManager | None = None,
        start_lsn: int = 0,
    ):
        self._manager = manager if manager is not None else LogManager()
        self._start = start_lsn
        # name -> record index for record_for, extended lazily so appends
        # made directly through a shared manager are picked up too.
        self._by_name: dict[Any, LogRecord] = {}
        self._indexed_through = start_lsn
        # Incrementally maintained conflict graph over operations(log);
        # built on first conflict_graph() call, then only appended to.
        self._conflict: ConflictGraph | None = None
        self._installation: Any = None
        self._graphed_through = start_lsn
        for item in records:
            if isinstance(item, (LogRecord, LazyRecord)):
                self._manager.append(item.payload, **item.labels)
            else:
                self._manager.append(item)

    @property
    def manager(self) -> LogManager:
        """The backing log manager (shared with any engine writing it)."""
        return self._manager

    @staticmethod
    def from_operations(operations: Sequence[Operation]) -> "Log":
        return Log(operations)

    def append(self, operation: Operation, **labels: Any) -> LogRecord:
        """Append ``operation``; the manager assigns the next LSN."""
        return self._manager.append(operation, **labels)

    def records(self) -> list[LogRecord]:
        """All records, in log order, as a list.  Call sites that only
        iterate should use ``iter(log)`` — it streams from the segmented
        store without copying."""
        return list(self)

    def __len__(self) -> int:
        return max(0, self._manager.next_lsn - self._start)

    def __iter__(self) -> Iterator[LogRecord]:
        return self._manager.records_from(self._start)

    def operations(self) -> list[Operation]:
        """``operations(log)`` in log order."""
        return [record.operation for record in self]

    def iter_operations(self) -> Iterator[Operation]:
        """Stream ``operations(log)`` without building a list."""
        return (record.operation for record in self)

    def record_for(self, operation: Operation) -> LogRecord:
        """The record logging ``operation`` (KeyError if not logged).

        Backed by a name -> record index maintained incrementally, so
        calls inside redo loops are O(1) amortized instead of a linear
        scan per lookup.
        """
        self._extend_index()
        key = getattr(operation, "name", operation)
        try:
            return self._by_name[key]
        except KeyError:
            raise KeyError(f"no log record for operation {key!r}") from None

    def _extend_index(self) -> None:
        if self._indexed_through >= self._manager.next_lsn:
            return
        for record in self._manager.records_from(self._indexed_through):
            key = getattr(record.payload, "name", record.payload)
            self._by_name.setdefault(key, record)
        self._indexed_through = self._manager.next_lsn

    def conflict_graph(self) -> ConflictGraph:
        """The conflict graph of ``operations(log)``, maintained
        incrementally.

        The first call builds the graph in one O(records + edges) pass;
        later calls append only the records logged since the last call
        (O(degree) each), including appends made directly through a
        shared manager.  Lemma 1 makes the left-to-right construction
        order-safe, so the live graph always equals the from-scratch one.
        """
        if self._conflict is None:
            self._conflict = ConflictGraph()
            self._graphed_through = self._start
        if self._graphed_through < self._manager.next_lsn:
            for record in self._manager.records_from(self._graphed_through):
                self._conflict.append(record.operation)
            self._graphed_through = self._manager.next_lsn
        return self._conflict

    def installation_graph(self):
        """The installation graph over :meth:`conflict_graph`, built once
        and kept current by the conflict graph's append feed."""
        from repro.core.installation import InstallationGraph

        conflict = self.conflict_graph()
        if self._installation is None or self._installation.conflict is not conflict:
            self._installation = InstallationGraph(conflict)
        return self._installation

    def is_log_for(self, conflict: ConflictGraph) -> bool:
        """§4.1: same operations, and log order extends conflict order."""
        position: dict[str, int] = {}
        count = 0
        for index, record in enumerate(self):
            position[record.operation.name] = index
            count += 1
        if len(position) != count:
            return False  # duplicate operations
        if set(position) != {op.name for op in conflict.operations}:
            return False
        return all(
            position[a.name] < position[b.name]
            for a, b, _ in conflict.edges()
        )

    def recovery_order(self, checkpoint: frozenset[Operation]) -> Iterator[Operation]:
        """``operations(log)`` in log order: the earliest unrecovered
        record is minimal in any order the log is consistent with, so
        the checkpoint does not change the order."""
        return self.iter_operations()

    def suffix_from(self, lsn: int) -> "Log":
        """Records with LSN >= ``lsn`` (what a checkpoint lets recovery
        scan) — a lazy view sharing this log's manager, not a copy."""
        return Log(manager=self._manager, start_lsn=max(lsn, self._start))

    def __repr__(self) -> str:
        return f"Log(records={len(self)})"


RedoTest = Callable[[Operation, State, Log, Any], bool]
AnalyzeFn = Callable[[State, Log, "set[Operation]", Any], Any]


@dataclass
class RedoDecision:
    """Trace entry for one iteration of the recovery loop."""

    operation: Operation
    redone: bool
    analysis: Any


@dataclass
class RecoveryOutcome:
    """Everything §4.4 defines about one execution of ``recover``."""

    state: State
    redo_set: set[Operation]
    decisions: list[RedoDecision]
    checkpoint: frozenset[Operation]
    logged: frozenset[Operation]

    @property
    def installed(self) -> set[Operation]:
        """``operations(log) - redo_set`` — the installed operations."""
        return set(self.logged) - self.redo_set

    def installed_after(self, iteration: int) -> set[Operation]:
        """``installed_i``: logged operations that will not be redone after
        iteration ``iteration`` (0 = before the first iteration).

        Requires the per-iteration trace — run :func:`recover` with
        ``trace=True`` (the default)."""
        future_redos = {
            decision.operation
            for decision in self.decisions[iteration:]
            if decision.redone
        }
        return set(self.logged) - future_redos


def analysis_once(analysis_fn: Callable[[State, Log, set], Any]) -> AnalyzeFn:
    """Lift a run-once analysis into the per-iteration protocol.

    The returned function performs ``analysis_fn`` when the incoming
    analysis is ``None`` (the first iteration) and is the identity
    afterwards — the "single analysis phase at the start" pattern of §4.3.
    """

    def analyze(state: State, log: Log, unrecovered: set, analysis: Any) -> Any:
        if analysis is None:
            return analysis_fn(state, log, unrecovered)
        return analysis

    return analyze


def graph_analysis() -> AnalyzeFn:
    """An analysis phase that provides the log's theory graphs.

    On the first iteration it obtains the log's incrementally maintained
    conflict graph (:meth:`Log.conflict_graph` — no rebuild if the log
    already kept one live during normal operation) and the installation
    graph derived from it (:meth:`Log.installation_graph`); both ride
    along in the analysis value as ``{"conflict": ..., "installation":
    ...}`` for redo tests that want to consult conflict order or
    installation prefixes.
    """

    def analyze(state: State, log: Log, unrecovered: set, analysis: Any) -> Any:
        if analysis is None:
            return {
                "conflict": log.conflict_graph(),
                "installation": log.installation_graph(),
            }
        return analysis

    return analyze


def always_redo(operation: Operation, state: State, log: Log, analysis: Any) -> bool:
    """The trivial redo test: replay everything not checkpointed.

    This is what logical (§6.1) and physical (§6.2) recovery do — the
    subtlety lives entirely in how their checkpoints move operations out
    of the unrecovered set.
    """
    return True


def recover(
    state: State,
    log: Log | PartialOrderLog,
    checkpoint: Iterable[Operation] = (),
    redo: RedoTest = always_redo,
    analyze: AnalyzeFn | None = None,
    trace: bool = True,
) -> RecoveryOutcome:
    """The redo recovery procedure of Figure 6.

    ``state`` is consumed conceptually but not mutated; the outcome holds
    the rebuilt state.  ``checkpoint`` is the set of operations recovery
    may ignore.  The log supplies "the minimal operation in unrecovered"
    through its ``recovery_order``: a :class:`Log` takes its records in
    log order, a :class:`~repro.core.polog.PartialOrderLog` its
    tie-break's pick among the DAG-minimal candidates.

    Without ``analyze`` the order is consumed as a single streaming pass
    — no record list is materialized, so a suffix view over a segmented
    manager is processed in O(segment) working memory (plus the
    operation sets the outcome reports).  A custom ``analyze`` receives
    the set of still-unrecovered operations each iteration, which
    requires the unrecovered order up front; that path materializes one
    list, exactly as the paper's per-iteration protocol demands.
    ``trace=False`` skips the per-iteration decision trace, which long
    recoveries neither need nor can afford.
    """
    current = state.copy()
    checkpoint_set = frozenset(checkpoint)
    logged: set[Operation] = set()

    def unrecovered() -> Iterator[Operation]:
        for operation in log.recovery_order(checkpoint_set):
            logged.add(operation)
            if operation not in checkpoint_set:
                yield operation

    order: Iterable[Operation] = unrecovered()
    if analyze is not None:
        order = list(order)
    analysis: Any = None
    decisions: list[RedoDecision] = []
    redo_set: set[Operation] = set()
    for index, operation in enumerate(order):
        if analyze is not None:
            analysis = analyze(current, log, set(order[index:]), analysis)
        redone = redo(operation, current, log, analysis)
        if redone:
            current = operation.apply(current)
            redo_set.add(operation)
        if trace:
            decisions.append(RedoDecision(operation, redone, analysis))

    return RecoveryOutcome(
        state=current,
        redo_set=redo_set,
        decisions=decisions,
        checkpoint=checkpoint_set,
        logged=frozenset(logged),
    )
