"""Write graphs (§5): how real systems batch installs — live.

A write graph is a state graph whose nodes carry an ``installed`` bit,
with the installed nodes forming a prefix.  It starts life as the
installation state graph (one node per operation) and evolves under four
operations, each with the paper's side conditions enforced:

- **install** a node (all predecessors already installed);
- **add an edge** (target uninstalled, graph stays acyclic) — how a cache
  manager adds ordering constraints such as the B-tree careful write;
- **collapse nodes** into one (graph stays acyclic; last-writer-wins on
  writes) — how a cache keeps one copy of a page, and how flushing a page
  installs all operations accumulated on it;
- **remove a write** (only when no uninstalled reader needs the value) —
  the unexposed-variable optimization that shrinks atomic write sets.

The graph is maintained *incrementally*: it subscribes to the conflict
graph's append feed, so appending an operation to the log extends the
write graph by one node in O(degree) — node values come from a running
state, edges from the append's finalized edge delta filtered to
installation edges — with no rebuild ever.  Per-variable questions
(remove-write side conditions, the unexposed set) are answered from the
conflict graph's :class:`~repro.core.varindex.VariableIndex` and a
memoized :class:`~repro.core.exposed.ExposureMemo` instead of full
scans, so the structure stays cheap enough to consult on every flush —
which is exactly how :mod:`repro.cache` uses its page-level counterpart.

Corollary 5 — the state determined by a write-graph prefix is potentially
recoverable — is checked executable-style by :meth:`WriteGraph.audit`,
memoized between mutations so continuous auditing costs O(1) per
untouched step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.core.conflict import WR
from repro.core.explain import explanation
from repro.core.exposed import ExposureMemo
from repro.core.expr import Value
from repro.core.installation import InstallationGraph
from repro.core.model import Operation, State
from repro.graphs import CycleError, Dag


class WriteGraphError(ValueError):
    """A write-graph operation's side condition was violated."""


@dataclass
class WriteNode:
    """One write-graph node: operations, pending writes, installed bit."""

    node_id: Hashable
    ops: frozenset[Operation]
    writes: dict[str, Value] = field(default_factory=dict)
    installed: bool = False

    def vars(self) -> set[str]:
        """The variables this node writes."""
        return set(self.writes)

    def reads(self, variable: str) -> bool:
        """Does any operation in this node read ``variable``?"""
        return any(op.reads(variable) for op in self.ops)

    def __str__(self) -> str:
        ops = ",".join(sorted(op.name for op in self.ops))
        writes = ", ".join(f"{k}={v!r}" for k, v in sorted(self.writes.items()))
        flag = "*" if self.installed else ""
        return f"{{{ops}}}{flag}[{writes}]"


class WriteGraph:
    """A live write graph tied to the installation graph it rides.

    Construction absorbs every operation already in the graph, then
    subscribes to the conflict graph's append feed: subsequent appends
    grow the write graph one node at a time with their installation
    edges, so one instance tracks a growing log for its whole life.
    """

    def __init__(self, installation: InstallationGraph, initial: State):
        self.installation = installation
        self.initial = initial.copy()
        self.dag = Dag()
        self._nodes: dict[Hashable, WriteNode] = {}
        self._fresh = itertools.count()
        # operation name -> current node id (updated by collapse).
        self._op_node: dict[str, Hashable] = {}
        # State after every operation appended so far: the source of each
        # new node's write values (replacing a full state-graph rebuild).
        self._running = initial.copy()
        self._memo = ExposureMemo(installation)
        self._audit_cache: bool | None = None

        for operation in installation.operations:
            self._ingest(
                operation, installation.dag.direct_predecessors(operation.name)
            )
        installation.conflict.subscribe(self._on_append)

    # ------------------------------------------------------------------
    # Incremental maintenance (the append feed)
    # ------------------------------------------------------------------

    def _ingest(self, operation: Operation, sources: Iterable[str]) -> None:
        """Add one operation as a fresh node: evaluate its writes against
        the running state, wire its (already-filtered) installation
        edges, remapping sources through collapses."""
        writes = operation.evaluate(self._running)
        for variable, value in writes.items():
            self._running.set(variable, value)
        node = WriteNode(
            node_id=operation.name,
            ops=frozenset({operation}),
            writes=dict(writes),
        )
        self._nodes[operation.name] = node
        self._op_node[operation.name] = operation.name
        self.dag.add_node(operation.name)
        for source in {self._op_node[name] for name in sources}:
            if source != operation.name:
                self.dag.add_edge(source, operation.name, check_acyclic=False)
        self._audit_cache = None

    def _on_append(self, operation: Operation, incoming: dict[str, set[str]]) -> None:
        """Apply one conflict-graph append: keep the new edges that
        survive §3.1's wr-removal, exactly as the installation graph
        does, but ending at this write graph's current nodes."""
        self._ingest(
            operation,
            (name for name, labels in incoming.items() if labels != {WR}),
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def node(self, node_id: Hashable) -> WriteNode:
        """The node with identifier ``node_id`` (KeyError if absent)."""
        return self._nodes[node_id]

    def nodes(self) -> list[WriteNode]:
        """All nodes, in graph insertion order."""
        return [self._nodes[node_id] for node_id in self.dag.nodes()]

    def node_ids(self) -> list[Hashable]:
        """All node identifiers."""
        return self.dag.nodes()

    def installed_nodes(self) -> list[WriteNode]:
        """Nodes whose installed bit is set (they form a prefix)."""
        return [node for node in self.nodes() if node.installed]

    def uninstalled_nodes(self) -> list[WriteNode]:
        """Nodes not yet installed."""
        return [node for node in self.nodes() if not node.installed]

    def installed_operations(self) -> set[Operation]:
        """Every operation labeling an installed node."""
        result: set[Operation] = set()
        for node in self.installed_nodes():
            result |= node.ops
        return result

    def minimal_uninstalled_nodes(self) -> list[WriteNode]:
        """Uninstalled nodes whose predecessors are all installed.

        These are the nodes a cache manager may flush next; flushing any
        of them (in any order) respects write-graph order.
        """
        result = []
        for node in self.uninstalled_nodes():
            preds = self.dag.direct_predecessors(node.node_id)
            if all(self._nodes[p].installed for p in preds):
                result.append(node)
        return result

    # ------------------------------------------------------------------
    # The four §5 operations
    # ------------------------------------------------------------------

    def install(self, node_id: Hashable) -> WriteNode:
        """*Install a node*: requires every predecessor already installed."""
        node = self._nodes[node_id]
        for pred in self.dag.direct_predecessors(node_id):
            if not self._nodes[pred].installed:
                raise WriteGraphError(
                    f"cannot install {node_id!r}: predecessor {pred!r} is uninstalled"
                )
        node.installed = True
        self._audit_cache = None
        return node

    def add_edge(self, source_id: Hashable, target_id: Hashable) -> None:
        """*Add an edge*: target must be uninstalled; graph must stay acyclic."""
        if target_id not in self._nodes or source_id not in self._nodes:
            raise WriteGraphError("add_edge endpoints must be existing nodes")
        if self._nodes[target_id].installed:
            raise WriteGraphError(
                f"cannot add edge into installed node {target_id!r}"
            )
        try:
            self.dag.add_edge(source_id, target_id, labels={"added"})
        except CycleError as exc:
            raise WriteGraphError(str(exc)) from exc
        self._audit_cache = None

    def collapse(
        self, node_ids: Iterable[Hashable], new_id: Hashable | None = None
    ) -> WriteNode:
        """*Collapse nodes*: merge ``node_ids`` into one node.

        Writes are last-writer-wins among the collapsed set (the §5 rule:
        keep the pair from the node ordered after every other collapsed
        writer of that variable).  The result must be acyclic, and the
        installed bits must still form a prefix — collapsing an installed
        node with an uninstalled *successor-closed* group is how systems
        install; collapsing that would strand an installed node behind an
        uninstalled one is rejected.
        """
        members = [self._nodes[node_id] for node_id in dict.fromkeys(node_ids)]
        if len(members) < 2:
            raise WriteGraphError("collapse requires at least two nodes")
        member_ids = {node.node_id for node in members}

        merged_writes: dict[str, tuple[Hashable, Value]] = {}
        for node in members:
            for variable, value in node.writes.items():
                current = merged_writes.get(variable)
                if current is None:
                    merged_writes[variable] = (node.node_id, value)
                    continue
                if self.dag.has_path(current[0], node.node_id):
                    merged_writes[variable] = (node.node_id, value)
                elif not self.dag.has_path(node.node_id, current[0]):
                    raise WriteGraphError(
                        f"collapsed nodes write {variable!r} but are unordered"
                    )

        merged_ops = frozenset().union(*(node.ops for node in members))
        installed = any(node.installed for node in members)
        if new_id is None:
            new_id = f"collapsed-{next(self._fresh)}"
        if new_id in self._nodes:
            raise WriteGraphError(f"node id {new_id!r} already exists")

        incoming = set()
        outgoing = set()
        for node in members:
            incoming |= self.dag.direct_predecessors(node.node_id) - member_ids
            outgoing |= self.dag.direct_successors(node.node_id) - member_ids

        # Acyclicity: an external node both reachable from the group and
        # reaching into it would close a cycle through the merged node.
        for external in incoming:
            for node in members:
                if self.dag.has_path(node.node_id, external):
                    raise WriteGraphError(
                        f"collapsing {sorted(map(str, member_ids))} would create a cycle "
                        f"through {external!r}"
                    )

        # Installed-prefix preservation, checked BEFORE mutating so a
        # rejected collapse leaves the graph untouched.  Only the case
        # where the merged node comes out installed can break the
        # property: an uninstalled external predecessor of any member
        # would then sit before installed work.
        if installed:
            for external_id, external in self._nodes.items():
                if external_id in member_ids or external.installed:
                    continue
                if any(
                    self.dag.has_path(external_id, node.node_id)
                    for node in members
                ):
                    raise WriteGraphError(
                        "collapse would install work ahead of uninstalled "
                        f"predecessor {external_id!r}; install or include it first"
                    )

        for node in members:
            self.dag.remove_node(node.node_id)
            del self._nodes[node.node_id]
        merged = WriteNode(
            node_id=new_id,
            ops=merged_ops,
            writes={variable: value for variable, (_, value) in merged_writes.items()},
            installed=installed,
        )
        self._nodes[new_id] = merged
        for op in merged_ops:
            self._op_node[op.name] = new_id
        self.dag.add_node(new_id)
        for source in incoming:
            self.dag.add_edge(source, new_id, check_acyclic=False)
        for target in outgoing:
            self.dag.add_edge(new_id, target, check_acyclic=False)
        self._audit_cache = None

        assert self.dag.is_prefix(
            {node.node_id for node in self.installed_nodes()}
        ), "internal error: pre-validated collapse broke the installed prefix"
        return merged

    def remove_write(self, node_id: Hashable, variable: str) -> None:
        """*Remove a write*: drop ``variable`` from ``writes(node)``.

        Side condition (§5): every node ``m`` reading ``variable`` is
        either installed, or ordered before ``node`` while some node
        following ``node`` blind-writes ``variable`` — i.e. no uninstalled
        reader can ever need the removed value.

        Both checks run off the conflict graph's variable index: cost is
        O(accessors of ``variable``), not O(nodes).
        """
        node = self._nodes[node_id]
        if variable not in node.writes:
            raise WriteGraphError(f"node {node_id!r} does not write {variable!r}")
        if node.installed:
            # Removing a write models choosing not to write the variable
            # when the node installs; an installed node's values are
            # already in the stable state and cannot be un-written.
            raise WriteGraphError(
                f"cannot remove a write from installed node {node_id!r}"
            )
        index = self.installation.conflict.variable_index
        # (b) The removed value must never be needed as the final value:
        # some node ordered after this one must blind-overwrite the
        # variable (its replay regenerates the final value without
        # reading).  An *installed* overwriter after this uninstalled
        # node cannot exist — installed nodes form a prefix — so only
        # blind writers need checking.
        overwriter = False
        for op in index.writers(variable):
            if not op.writes_blindly(variable):
                continue
            other_id = self._op_node[op.name]
            if other_id != node_id and self.dag.has_path(node_id, other_id):
                overwriter = True
                break
        if not overwriter:
            raise WriteGraphError(
                f"cannot remove write of {variable!r} from {node_id!r}: "
                f"no following node overwrites it, so the value is final"
            )
        # (a) No uninstalled reader may need the removed value.  The node's
        # own read is exempt: once the node installs it is never replayed,
        # and until then the stable value is untouched by this removal.
        for op in index.readers(variable):
            other_id = self._op_node[op.name]
            if other_id == node_id:
                continue
            other = self._nodes[other_id]
            if other.installed:
                continue
            if self.dag.has_path(other_id, node_id):
                continue  # reads an earlier version; ordered before us
            raise WriteGraphError(
                f"cannot remove write of {variable!r} from {node_id!r}: "
                f"uninstalled node {other_id!r} reads it"
            )
        del node.writes[variable]
        self._audit_cache = None

    # ------------------------------------------------------------------
    # Elision
    # ------------------------------------------------------------------

    def unexposed_now(self) -> set[str]:
        """Variables currently unexposed by the installed operations
        (memoized per variable; see :class:`ExposureMemo`)."""
        self._memo.set_installed(self.installed_operations())
        return self._memo.unexposed_variables()

    def elide_unexposed(self) -> dict[Hashable, set[str]]:
        """Apply remove-write wherever its side conditions permit, for
        every currently-unexposed variable — the §5 optimization a cache
        manager runs before an atomic install to shrink the write set.
        Returns {node_id: removed variables}; nodes whose removals are
        refused (e.g. no blind overwriter yet) are simply skipped.
        """
        removed: dict[Hashable, set[str]] = {}
        for variable in sorted(self.unexposed_now()):
            for node in self.uninstalled_nodes():
                if variable not in node.writes:
                    continue
                try:
                    self.remove_write(node.node_id, variable)
                except WriteGraphError:
                    continue
                removed.setdefault(node.node_id, set()).add(variable)
        return removed

    # ------------------------------------------------------------------
    # States and audits
    # ------------------------------------------------------------------

    def determined_state(self, within: Iterable[Hashable] | None = None) -> State:
        """The state determined by the node set ``within`` (default: the
        installed prefix).  ``within`` must be a prefix of the write graph."""
        if within is None:
            members = {node.node_id for node in self.installed_nodes()}
        else:
            members = set(within)
            if not self.dag.is_prefix(members):
                raise WriteGraphError("determined_state requires a write-graph prefix")
        state = self.initial.copy()
        assignments: dict[str, tuple[Hashable, Value]] = {}
        for node_id in members:
            for variable, value in self._nodes[node_id].writes.items():
                current = assignments.get(variable)
                if current is None or self.dag.has_path(current[0], node_id):
                    assignments[variable] = (node_id, value)
        for variable, (_, value) in assignments.items():
            state.set(variable, value)
        return state

    def stable_state(self) -> State:
        """The state determined by the installed prefix — the simulated disk."""
        return self.determined_state()

    def audit(self) -> bool:
        """Corollary 5 check: the installed prefix's operations form an
        installation-graph prefix that explains the stable state.

        The verdict is memoized and invalidated by every mutation, and
        the exposure side of ``explains`` runs off the per-variable memo,
        so auditing after each step of a long run is cheap.
        """
        if self._audit_cache is None:
            is_prefix, _, mismatched = explanation(
                self.installation,
                self.installed_operations(),
                self.stable_state(),
                self.initial,
                self._memo,
            )
            self._audit_cache = is_prefix and not mismatched
        return self._audit_cache

    def __repr__(self) -> str:
        return (
            f"WriteGraph(nodes={len(self.dag)}, installed="
            f"{len(self.installed_nodes())}/{len(self.dag)})"
        )
