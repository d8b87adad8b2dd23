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
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State


def is_exposed(
    graph: ConflictGraph, installed: Iterable[Operation], variable: str
) -> bool:
    """Is ``variable`` exposed by the installed set (§2.3 definition)?

    ``installed`` may be any iterable.  Cost: O(|I| + accessors of
    ``variable``).
    """
    names = {operation.name for operation in installed}
    return graph.variable_index.exposure(names, variable)[0]


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
    names = {operation.name for operation in installed}
    index = graph.variable_index
    candidates = index.variables() if variables is None else variables
    return {variable for variable in candidates if index.exposure(names, variable)[0]}


def unexposed_variables(
    graph: ConflictGraph,
    installed: Iterable[Operation],
    variables: Iterable[str] | None = None,
) -> set[str]:
    """Complement of :func:`exposed_variables` within the candidate set."""
    candidates = all_variables(graph) if variables is None else set(variables)
    return candidates - exposed_variables(graph, installed, candidates)


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
    names = {operation.name for operation in installed}
    candidates = all_variables(graph) if variables is None else set(variables)
    result: set[str] = set()
    for variable in candidates:
        outside = [
            op for op in graph.variable_index.accessors(variable) if op.name not in names
        ]
        if not outside:
            result.add(variable)
            continue
        minimal = graph.minimal_operations(outside)
        if all(operation.reads(variable) for operation in minimal):
            result.add(variable)
    return result


class ExposureMemo:
    """Memoized exposure for an installation graph and an evolving
    installed set I, kept by operation name — the normal-operation
    audits, where I moves a few operations at a time while the graph is
    appended to.

    The memo maps variable -> exposure verdict and is invalidated exactly
    when the verdict could change: a graph append touching the variable
    (new accessor ⇒ the first-outside accessor may change) or an
    install/uninstall of an operation touching it (membership of an
    accessor changed).  Everything else — installs of operations that
    never access the variable, appends elsewhere — leaves entries valid,
    so audit loops that re-check all variables after each step pay O(1)
    per untouched variable.

    It is also :func:`~repro.core.explain.explanation`'s memo path
    (:meth:`explain`): it counts the installation edges from an
    uninstalled operation into an installed one (I is a prefix iff there
    are none) and keeps the exposed and mismatched variables, re-deciding
    only those marked since.
    """

    def __init__(self, installation: InstallationGraph, installed: Iterable[Operation] = ()):
        self.installation = installation
        self.graph = installation.conflict
        self.installed_names: set[str] = set()  # I (read-only)
        self._memo: dict[str, bool] = {}
        self._first: dict[str, int] = {}  # variable -> its all-installed accessor head
        self._crossing = 0  # installation edges uninstalled -> installed
        self._dirty: set[str] = set()  # variables to re-decide in explain
        self._exposed: set[str] = set()
        self._mismatched: set[str] = set()
        self.graph.subscribe(lambda operation, _incoming: self.touch(operation.variables()))
        for operation in installed:
            self.install(operation)

    def touch(self, variables: Iterable[str]) -> None:
        """Mark ``variables`` for re-decision by the next :meth:`explain`
        (callers name those whose value in the explained state changed)."""
        for variable in variables:
            self._memo.pop(variable, None)
            self._dirty.add(variable)

    # ------------------------------------------------------------------
    # Installed-set maintenance
    # ------------------------------------------------------------------

    @property
    def installed(self) -> frozenset[Operation]:
        """The current installed set (snapshot)."""
        return frozenset(map(self.graph.operation, self.installed_names))

    def install(self, operation: Operation) -> None:
        """Add ``operation`` to I, invalidating only its variables."""
        if operation.name not in self.installed_names:
            self.installed_names.add(operation.name)
            self._flipped(operation, 1)

    def uninstall(self, operation: Operation) -> None:
        """Remove ``operation`` from I, invalidating only its variables."""
        if operation.name in self.installed_names:
            self.installed_names.discard(operation.name)
            for variable in operation.variables():
                self._first.pop(variable, None)
            self._flipped(operation, -1)

    def _flipped(self, operation: Operation, sign: int) -> None:
        self.touch(operation.variables())
        dag, installed, name = self.installation.dag, self.installed_names, operation.name
        outside = sum(p not in installed for p in dag.direct_predecessors(name))
        inside = sum(s in installed for s in dag.direct_successors(name))
        self._crossing += sign * (outside - inside)

    def set_installed(self, operations: Iterable[Operation]) -> None:
        """Replace I wholesale; only the symmetric difference invalidates."""
        new = {operation.name: operation for operation in operations}
        for name in self.installed_names - new.keys():
            self.uninstall(self.graph.operation(name))
        for operation in new.values():
            self.install(operation)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_exposed(self, variable: str) -> bool:
        """Memoized :func:`is_exposed` for the current installed set; the
        scan for the first accessor outside I resumes where the last one
        stopped (an uninstall restarts it)."""
        verdict = self._memo.get(variable)
        if verdict is None:
            verdict, self._first[variable] = self.graph.variable_index.exposure(
                self.installed_names, variable, self._first.get(variable, 0)
            )
            self._memo[variable] = verdict
        return verdict

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

    def explain(self, state: State, initial: State) -> tuple[bool, set[str], set[str]]:
        """``(is_prefix, exposed, mismatched)`` for I, as
        :func:`~repro.core.explain.explanation` defines them, re-deciding
        only the variables marked since the last prefix verdict: ``state``
        may differ from the last call's only on variables given to
        :meth:`touch`, and ``initial`` not at all."""
        if self._crossing:
            return False, set(), set()
        dirty, self._dirty = self._dirty, set()
        index = self.graph.variable_index
        exposed = {v for v in dirty if v in index and self.is_exposed(v)}
        determined = self.installation.determined_values(self.installed_names, exposed, initial)
        self._exposed = (self._exposed - dirty) | exposed
        self._mismatched -= dirty
        self._mismatched.update(v for v in exposed if state[v] != determined[v])
        return True, set(self._exposed), set(self._mismatched)

    def __repr__(self) -> str:
        return (
            f"ExposureMemo(installed={len(self.installed_names)}, "
            f"memoized={len(self._memo)})"
        )
