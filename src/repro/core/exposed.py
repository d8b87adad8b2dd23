"""Exposed and unexposed variables (§2.3), variable-indexed.

Fix a conflict graph C and a subset I of its operations (the operations
considered installed).  A variable ``x`` is **exposed by I** iff

- no operation outside I accesses ``x`` (x already has its final value and
  nothing will regenerate it), or
- some operation outside I accesses ``x`` and a *minimal* such operation
  (in conflict-graph order restricted to the accessors outside I) *reads*
  ``x`` — so the value must be right if the system crashes now.

``x`` is **unexposed** otherwise, i.e. some operation outside I accesses
``x`` and every minimal accessor outside I writes ``x`` without reading it
(a blind write): whatever value ``x`` holds will be overwritten before
anything reads it, so the value is irrelevant.

The checks run off the conflict graph's
:class:`~repro.core.varindex.VariableIndex` rather than a full-sequence
scan, so one variable costs O(accessors of that variable outside I).
The index module proves the fact this rests on: the log-order-first
accessor of ``x`` outside I is always minimal, and uniquely minimal when
it writes — so exposure is decided entirely by whether that first
accessor reads.

Note the definition quantifies over *a* minimal accessor.  Distinct
minimal accessors of the same variable are incomparable, and since one of
them could be replayed first, exposure requires only that *some* minimal
accessor reads (the paper's wording); the stricter "all minimal accessors
read" variant is available for comparison as
:func:`strictly_exposed_variables` and is kept on the definitional
``minimal_operations`` path precisely so the tests can confirm the two
coincide on generated graphs (when a minimal accessor writes it is the
unique minimal accessor; reader ties read by definition).

For an *evolving* installed set — the normal-operation audits, where I
grows an operation at a time while the graph is appended to —
:class:`ExposureMemo` caches per-variable verdicts and invalidates them
precisely on the appends and installs that touch the variable.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.conflict import ConflictGraph
from repro.core.model import Operation


def _installed_set(installed: Iterable[Operation]) -> "set[Operation] | frozenset[Operation]":
    """``installed`` as a set, without copying one that already is."""
    if isinstance(installed, (set, frozenset)):
        return installed
    return set(installed)


def is_exposed(
    graph: ConflictGraph, installed: Iterable[Operation], variable: str
) -> bool:
    """Is ``variable`` exposed by the installed set (§2.3 definition)?

    ``installed`` may be any iterable; passing a ``set``/``frozenset``
    avoids a copy.  Cost: O(accessors of ``variable`` outside I).
    """
    installed_set = _installed_set(installed)
    first = graph.variable_index.first_accessor_outside(installed_set, variable)
    return first is None or first.reads(variable)


def is_unexposed(
    graph: ConflictGraph, installed: Iterable[Operation], variable: str
) -> bool:
    """Negation of :func:`is_exposed`."""
    return not is_exposed(graph, installed, variable)


def all_variables(graph: ConflictGraph) -> set[str]:
    """Every variable accessed by any operation in the graph."""
    return set(graph.variable_index.variables())


def exposed_variables(
    graph: ConflictGraph,
    installed: Iterable[Operation],
    variables: Iterable[str] | None = None,
) -> set[str]:
    """The subset of ``variables`` (default: all accessed) exposed by I."""
    installed_set = _installed_set(installed)
    index = graph.variable_index
    candidates = index.variables() if variables is None else variables
    result: set[str] = set()
    for variable in candidates:
        first = index.first_accessor_outside(installed_set, variable)
        if first is None or first.reads(variable):
            result.add(variable)
    return result


def unexposed_variables(
    graph: ConflictGraph,
    installed: Iterable[Operation],
    variables: Iterable[str] | None = None,
) -> set[str]:
    """Complement of :func:`exposed_variables` within the candidate set."""
    installed_set = _installed_set(installed)
    candidates = all_variables(graph) if variables is None else set(variables)
    return candidates - exposed_variables(graph, installed_set, candidates)


def strictly_exposed_variables(
    graph: ConflictGraph,
    installed: Iterable[Operation],
    variables: Iterable[str] | None = None,
) -> set[str]:
    """The "every minimal accessor reads" variant (see module docstring).

    Deliberately kept on the definitional path — materialize the outside
    accessors, take the conflict-graph-minimal ones, quantify over all —
    so it cross-checks the indexed fast path used everywhere else.
    """
    installed_set = _installed_set(installed)
    candidates = all_variables(graph) if variables is None else set(variables)
    result: set[str] = set()
    for variable in candidates:
        outside = [
            op for op in graph.variable_index.accessors(variable) if op not in installed_set
        ]
        if not outside:
            result.add(variable)
            continue
        minimal = graph.minimal_operations(outside)
        if all(operation.reads(variable) for operation in minimal):
            result.add(variable)
    return result


class ExposureMemo:
    """Memoized exposure for a conflict graph and an evolving installed set.

    The memo maps variable -> exposure verdict and is invalidated exactly
    when the verdict could change: a graph append touching the variable
    (new accessor ⇒ the first-outside accessor may change) or an
    install/uninstall of an operation touching it (membership of an
    accessor changed).  Everything else — installs of operations that
    never access the variable, appends elsewhere — leaves entries valid,
    so audit loops that re-check all variables after each step pay O(1)
    per untouched variable.
    """

    def __init__(self, graph: ConflictGraph, installed: Iterable[Operation] = ()):
        self.graph = graph
        self._installed: set[Operation] = set(installed)
        self._memo: dict[str, bool] = {}
        graph.subscribe(self._on_append)

    def _on_append(self, operation: Operation, incoming: dict) -> None:
        self._invalidate_for(operation)

    def _invalidate_for(self, operation: Operation) -> None:
        for variable in operation.read_set:
            self._memo.pop(variable, None)
        for variable in operation.write_set:
            self._memo.pop(variable, None)

    # ------------------------------------------------------------------
    # Installed-set maintenance
    # ------------------------------------------------------------------

    @property
    def installed(self) -> frozenset[Operation]:
        """The current installed set (snapshot)."""
        return frozenset(self._installed)

    def install(self, operation: Operation) -> None:
        """Add ``operation`` to I, invalidating only its variables."""
        if operation not in self._installed:
            self._installed.add(operation)
            self._invalidate_for(operation)

    def uninstall(self, operation: Operation) -> None:
        """Remove ``operation`` from I, invalidating only its variables."""
        if operation in self._installed:
            self._installed.discard(operation)
            self._invalidate_for(operation)

    def set_installed(self, operations: Iterable[Operation]) -> None:
        """Replace I wholesale; only the symmetric difference invalidates."""
        new = set(operations)
        for operation in self._installed ^ new:
            self._invalidate_for(operation)
        self._installed = new

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_exposed(self, variable: str) -> bool:
        """Memoized :func:`is_exposed` for the current installed set."""
        verdict = self._memo.get(variable)
        if verdict is None:
            first = self.graph.variable_index.first_accessor_outside(
                self._installed, variable
            )
            verdict = first is None or first.reads(variable)
            self._memo[variable] = verdict
        return verdict

    def is_unexposed(self, variable: str) -> bool:
        """Negation of :meth:`is_exposed`."""
        return not self.is_exposed(variable)

    def exposed_variables(self, variables: Iterable[str] | None = None) -> set[str]:
        """Exposed subset of ``variables`` (default: all accessed)."""
        candidates = (
            self.graph.variable_index.variables() if variables is None else variables
        )
        return {variable for variable in candidates if self.is_exposed(variable)}

    def unexposed_variables(self, variables: Iterable[str] | None = None) -> set[str]:
        """Unexposed subset of ``variables`` (default: all accessed)."""
        candidates = (
            set(self.graph.variable_index.variables())
            if variables is None
            else set(variables)
        )
        return {variable for variable in candidates if not self.is_exposed(variable)}

    def __repr__(self) -> str:
        return (
            f"ExposureMemo(installed={len(self._installed)}, "
            f"memoized={len(self._memo)})"
        )
