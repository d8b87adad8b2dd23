"""Variable → accessor index maintained on conflict-graph appends.

Exposure (§2.3), explainability (§3.2), and the Recovery Invariant checker
all ask per-variable questions: *who accesses x, in what order, and does
the first accessor outside the installed set read or blind-write it?*
Scanning every operation per question costs O(N) per variable; this index
keeps, for each variable, the ordered reader/writer/accessor lists in
generating-sequence order, appended to in O(|read ∪ write|) as the
conflict graph grows.

Log order extends conflict order, and for a single variable the order is
even sharper (the fact the O(accessors) exposure check in
:mod:`repro.core.exposed` rests on): a writer of ``x`` is conflict-ordered
before every later accessor of ``x`` — consecutive writers carry ``ww``
edges, and the edge into each reader/writer from its preceding writer
completes the path — and a reader of ``x`` is conflict-ordered before
every later *writer* of ``x`` (its ``rw`` edge into the next writer, then
the ``ww`` chain).  So the log-order-first accessor of ``x`` outside the
installed set is always a minimal accessor, and it is the *unique*
minimal accessor whenever it writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, KeysView, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model import Operation

_EMPTY: tuple = ()


class VariableIndex:
    """Per-variable ordered accessor lists, reader/writer split.

    Lists are in generating-sequence (log) order and are appended to by
    :meth:`append`; callers must treat the returned sequences as
    read-only views.
    """

    __slots__ = ("_accessors", "_readers", "_writers")

    def __init__(self) -> None:
        self._accessors: dict[str, list[Operation]] = {}
        self._readers: dict[str, list[Operation]] = {}
        self._writers: dict[str, list[Operation]] = {}

    def append(self, operation: "Operation") -> None:
        """Index one appended operation (O(variables it touches))."""
        for variable in operation.read_set:
            self._accessors.setdefault(variable, []).append(operation)
            self._readers.setdefault(variable, []).append(operation)
        for variable in operation.write_set:
            if variable not in operation.read_set:
                self._accessors.setdefault(variable, []).append(operation)
            self._writers.setdefault(variable, []).append(operation)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def variables(self) -> KeysView[str]:
        """Every variable accessed by any indexed operation."""
        return self._accessors.keys()

    def __contains__(self, variable: str) -> bool:
        return variable in self._accessors

    def __len__(self) -> int:
        return len(self._accessors)

    def accessors(self, variable: str) -> Sequence["Operation"]:
        """Operations accessing ``variable``, in log order (read-only)."""
        return self._accessors.get(variable, _EMPTY)

    def readers(self, variable: str) -> Sequence["Operation"]:
        """Operations reading ``variable``, in log order (read-only)."""
        return self._readers.get(variable, _EMPTY)

    def writers(self, variable: str) -> Sequence["Operation"]:
        """Operations writing ``variable``, in log order (read-only)."""
        return self._writers.get(variable, _EMPTY)

    # ------------------------------------------------------------------
    # The exposure primitives
    # ------------------------------------------------------------------

    def exposure(
        self, installed: "Container[str]", variable: str, start: int = 0
    ) -> tuple[bool, int]:
        """Whether ``variable`` is exposed by the operations named in
        ``installed``, and the log-order position of its first accessor
        outside them (the accessor count if every one is inside).

        That accessor is always minimal among the outside accessors in
        conflict-graph order, and uniquely minimal when it writes (module
        docstring) — which is why exposure needs nothing else.  The scan
        starts at ``start``: a caller whose installed set only grew since
        it was handed a position may resume there.
        """
        accessors = self._accessors.get(variable, _EMPTY)
        while start < len(accessors) and accessors[start].name in installed:
            start += 1
        return start == len(accessors) or accessors[start].reads(variable), start
