"""A small, explicit DAG implementation.

Nodes are arbitrary hashable identifiers.  Edges may carry a set of string
labels (the conflict graph uses labels ``"ww"``, ``"wr"``, ``"rw"`` to record
which conflicts produced an edge).  The class maintains adjacency in both
directions so that predecessor queries — the workhorse of prefix reasoning —
are as cheap as successor queries.

Terminology follows Section 2.1 of the paper:

- the *predecessors* of a node ``n`` are all nodes with a path to ``n``;
- a *prefix* is a node set closed under predecessors (and the subgraph it
  induces).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Iterable, Iterator


class CycleError(ValueError):
    """Raised when an operation would create or detect a cycle."""


class Dag:
    """A directed acyclic graph over hashable node identifiers.

    Acyclicity is enforced eagerly: :meth:`add_edge` raises
    :class:`CycleError` if the new edge would close a cycle.  This matches
    the paper's graphs, which are acyclic by construction, and matches the
    side condition of the write graph's *Add an edge* operation.
    """

    # Reachability closures are memoized per node; the cache is dropped
    # wholesale whenever an edge changes (bounded, so a huge graph cannot
    # pin O(N^2) closure memory).
    _REACH_CACHE_LIMIT = 4096

    def __init__(self, nodes: Iterable[Hashable] = (), edges: Iterable[tuple] = ()):
        self._succ: dict[Hashable, dict[Hashable, set[str]]] = {}
        self._pred: dict[Hashable, dict[Hashable, set[str]]] = {}
        self._succ_closure: dict[Hashable, frozenset] = {}
        self._pred_closure: dict[Hashable, frozenset] = {}
        for node in nodes:
            self.add_node(node)
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            else:
                self.add_edge(edge[0], edge[1], labels=edge[2])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: Hashable) -> None:
        """Add ``node`` if not already present."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(
        self,
        source: Hashable,
        target: Hashable,
        labels: Iterable[str] = (),
        check_acyclic: bool = True,
    ) -> None:
        """Add an edge from ``source`` to ``target``.

        Missing endpoints are added.  If the edge already exists, ``labels``
        are merged into its label set — a pure label merge touches neither
        the predecessor map nor the reachability cache.  Raises
        :class:`CycleError` if the edge would create a cycle (including a
        self-loop).  ``check_acyclic=False`` is the O(1) append fast path
        for constructions that are acyclic by design (graphs built from a
        generating sequence only ever add edges into the newest node).
        """
        if source == target:
            raise CycleError(f"self-loop on {source!r}")
        src_adjacent = self._succ.get(source)
        if src_adjacent is None:
            self.add_node(source)
            src_adjacent = self._succ[source]
        label_set = src_adjacent.get(target)
        if label_set is not None:
            label_set.update(labels)
            return
        if target not in self._succ:
            self.add_node(target)
        if check_acyclic and self.has_path(target, source):
            raise CycleError(f"edge {source!r} -> {target!r} would create a cycle")
        label_set = src_adjacent[target] = set(labels)
        self._pred[target][source] = label_set
        self._invalidate_reachability()

    def remove_edge(self, source: Hashable, target: Hashable) -> None:
        """Remove the edge from ``source`` to ``target`` (KeyError if absent)."""
        del self._succ[source][target]
        del self._pred[target][source]
        self._invalidate_reachability()

    def remove_node(self, node: Hashable) -> None:
        """Remove ``node`` and every edge incident to it."""
        for target in list(self._succ[node]):
            self.remove_edge(node, target)
        for source in list(self._pred[node]):
            self.remove_edge(source, node)
        del self._succ[node]
        del self._pred[node]

    def copy(self) -> "Dag":
        """Return an independent copy (labels are copied, not shared)."""
        clone = Dag()
        for node in self._succ:
            clone.add_node(node)
        for source, target, labels in self.edges():
            clone.add_edge(source, target, labels=labels, check_acyclic=False)
        return clone

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._succ)

    def nodes(self) -> list[Hashable]:
        """All nodes, in insertion order."""
        return list(self._succ)

    def edges(self) -> list[tuple[Hashable, Hashable, set[str]]]:
        """All edges as ``(source, target, labels)`` triples."""
        return [
            (source, target, set(labels))
            for source, targets in self._succ.items()
            for target, labels in targets.items()
        ]

    def edge_count(self) -> int:
        """Total number of edges."""
        return sum(len(targets) for targets in self._succ.values())

    def has_edge(self, source: Hashable, target: Hashable) -> bool:
        """Is there a direct edge from ``source`` to ``target``?"""
        return source in self._succ and target in self._succ[source]

    def edge_labels(self, source: Hashable, target: Hashable) -> set[str]:
        """Labels on the edge ``source -> target`` (KeyError if absent)."""
        return set(self._succ[source][target])

    def direct_successors(self, node: Hashable) -> set[Hashable]:
        """Nodes one edge after ``node``."""
        return set(self._succ[node])

    def direct_predecessors(self, node: Hashable) -> set[Hashable]:
        """Nodes one edge before ``node``."""
        return set(self._pred[node])

    def in_degree(self, node: Hashable) -> int:
        """Number of direct predecessors."""
        return len(self._pred[node])

    # ------------------------------------------------------------------
    # Reachability and order
    # ------------------------------------------------------------------

    def _invalidate_reachability(self) -> None:
        if self._succ_closure:
            self._succ_closure.clear()
        if self._pred_closure:
            self._pred_closure.clear()

    def has_path(self, source: Hashable, target: Hashable) -> bool:
        """True iff there is a directed path (length >= 0) from source to target."""
        if source not in self._succ or target not in self._succ:
            return False
        if source == target:
            return True
        cached = self._succ_closure.get(source)
        if cached is None:
            cached = self._pred_closure.get(target)
            if cached is not None:
                return source in cached
        else:
            return target in cached
        seen = {source}
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for nxt in self._succ[node]:
                if nxt == target:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def predecessors(self, node: Hashable) -> set[Hashable]:
        """All nodes with a path *to* ``node`` (excluding ``node`` itself)."""
        return set(self._closure(node, self._pred, self._pred_closure))

    def successors(self, node: Hashable) -> set[Hashable]:
        """All nodes reachable *from* ``node`` (excluding ``node`` itself)."""
        return set(self._closure(node, self._succ, self._succ_closure))

    def _closure(
        self, node: Hashable, adjacency: dict, cache: dict[Hashable, frozenset]
    ) -> frozenset:
        """The reachability closure of ``node``, memoized until the edge set
        changes (the cached frontier behind minimal-node and prefix checks
        on append-only graphs)."""
        cached = cache.get(node)
        if cached is not None:
            return cached
        if node not in adjacency:
            return frozenset()
        seen: set[Hashable] = set()
        frontier = deque([node])
        while frontier:
            current = frontier.popleft()
            for nxt in adjacency[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        seen.discard(node)
        result = frozenset(seen)
        if len(cache) >= self._REACH_CACHE_LIMIT:
            cache.clear()
        cache[node] = result
        return result

    def ordered_before(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a`` precedes ``b`` in the partial order (strict)."""
        return a != b and self.has_path(a, b)

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """True iff ``a`` and ``b`` are ordered one way or the other."""
        return self.ordered_before(a, b) or self.ordered_before(b, a)

    # ------------------------------------------------------------------
    # Prefixes and minimal elements
    # ------------------------------------------------------------------

    def is_prefix(self, nodes: Iterable[Hashable]) -> bool:
        """True iff ``nodes`` is closed under predecessors.

        This is the paper's definition of a prefix: if a node is in the
        prefix then all of its predecessors are too.  Only direct
        predecessors need checking because closure is transitive.
        """
        node_set = set(nodes)
        if not node_set <= set(self._succ):
            return False
        return all(
            source in node_set
            for node in node_set
            for source in self._pred[node]
        )

    def prefix_closure(self, nodes: Iterable[Hashable]) -> set[Hashable]:
        """The smallest prefix containing ``nodes``."""
        closure: set[Hashable] = set()
        frontier = deque(nodes)
        while frontier:
            node = frontier.popleft()
            if node in closure:
                continue
            closure.add(node)
            frontier.extend(self._pred[node])
        return closure

    def minimal_nodes(self, within: Iterable[Hashable] | None = None) -> set[Hashable]:
        """Minimal nodes of the sub-partial-order induced by ``within``.

        With ``within=None``, the graph's sources.  Otherwise the nodes of
        ``within`` with no predecessor *path from another member of
        ``within``* — the paper's "minimal such operation" in the exposed-
        variable definition and the "minimal uninstalled operation" in the
        recovery loop.
        """
        if within is None:
            return {node for node, sources in self._pred.items() if not sources}
        members = set(within)
        return {
            node
            for node in members
            if members.isdisjoint(self._closure(node, self._pred, self._pred_closure))
        }

    def maximal_nodes(self, within: Iterable[Hashable] | None = None) -> set[Hashable]:
        """Dual of :meth:`minimal_nodes`."""
        if within is None:
            return {node for node, targets in self._succ.items() if not targets}
        members = set(within)
        return {
            node
            for node in members
            if members.isdisjoint(self._closure(node, self._succ, self._succ_closure))
        }

    def induced_subgraph(self, nodes: Iterable[Hashable]) -> "Dag":
        """The subgraph induced by ``nodes`` (edges with both ends inside)."""
        keep = set(nodes)
        sub = Dag()
        for node in self._succ:
            if node in keep:
                sub.add_node(node)
        for source, target, labels in self.edges():
            if source in keep and target in keep:
                sub.add_edge(source, target, labels=labels, check_acyclic=False)
        return sub

    def filter_edges(
        self, keep: Callable[[Hashable, Hashable, set[str]], bool]
    ) -> "Dag":
        """A copy retaining only edges for which ``keep(source, target, labels)``."""
        out = Dag()
        for node in self._succ:
            out.add_node(node)
        for source, target, labels in self.edges():
            if keep(source, target, labels):
                out.add_edge(source, target, labels=labels, check_acyclic=False)
        return out

    # ------------------------------------------------------------------
    # Equality / display
    # ------------------------------------------------------------------

    def same_structure(self, other: "Dag", with_labels: bool = False) -> bool:
        """Structural equality on nodes and edges (optionally labels too)."""
        if set(self._succ) != set(other._succ):
            return False
        for source, targets in self._succ.items():
            if set(targets) != set(other._succ[source]):
                return False
            if with_labels:
                for target, labels in targets.items():
                    if labels != other._succ[source][target]:
                        return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag(nodes={len(self)}, edges={self.edge_count()})"

    def to_dot(self, name: str = "dag", label: Callable[[Any], str] = str) -> str:
        """Render as Graphviz dot source (for documentation / debugging)."""
        lines = [f"digraph {name} {{"]
        for node in self._succ:
            lines.append(f'  "{label(node)}";')
        for source, target, labels in self.edges():
            suffix = f' [label="{",".join(sorted(labels))}"]' if labels else ""
            lines.append(f'  "{label(source)}" -> "{label(target)}"{suffix};')
        lines.append("}")
        return "\n".join(lines)
