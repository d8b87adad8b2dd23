"""Equivalence tests for the incremental theory core.

The conflict graph, installation graph and exposure memo are all
maintained incrementally (append-at-a-time) in the
library.  These tests pin them to independent from-scratch references:

- a definitional O(N^2) backward-scan conflict-graph builder written
  here, sharing no code with the library's single-pass construction;
- the batch constructors (``ConflictGraph(ops)``,
  ``InstallationGraph(conflict)``), which must agree with a graph grown
  one :meth:`ConflictGraph.append` at a time under subscription;
- the uncached exposure functions and the definitional
  :func:`strictly_exposed_variables`, which the memoized
  :class:`ExposureMemo` must match across random interleavings of
  appends, installs, and uninstalls.

Lemma 1 is what makes these equivalences theorems rather than accidents:
any linear extension regenerates the same conflict graph, so in
particular the generating order does, one operation at a time.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import RW, WR, WW, ConflictGraph
from repro.core.exposed import (
    ExposureMemo,
    exposed_variables,
    is_exposed,
    strictly_exposed_variables,
)
from repro.core.explain import explains
from repro.core.installation import InstallationGraph
from repro.core.model import State
from repro.graphs import Dag
from repro.workloads.opgen import OpSequenceSpec, random_operations
from tests.conftest import scratch_determined_state

SPEC = OpSequenceSpec(n_operations=12, n_variables=4)
DENSE = OpSequenceSpec(n_operations=10, n_variables=2, read_extra=0.8)
SPARSE = OpSequenceSpec(n_operations=14, n_variables=8, blind_ratio=0.7)
SPECS = [SPEC, DENSE, SPARSE]

seeds = st.integers(min_value=0, max_value=5_000)


def reference_conflict_dag(ops):
    """The §2.2 conflict graph by definitional backward scan.

    For each operation, scan the prefix right-to-left: ``wr`` from the
    last writer of each read variable, ``ww`` from the last writer of
    each written variable, ``rw`` from every accessor that read the
    variable at or after that write (an operation that reads and writes
    a variable reads first, so it counts as a reader after its own
    write).  Deliberately quadratic and index-based — it shares nothing
    with the library's single-pass scan-state construction.
    """
    dag = Dag()
    for op in ops:
        dag.add_node(op.name)
    for j, op in enumerate(ops):
        incoming: dict[str, set[str]] = {}

        def last_write_index(variable):
            for i in range(j - 1, -1, -1):
                if ops[i].writes(variable):
                    return i
            return None

        for variable in op.read_set:
            i = last_write_index(variable)
            if i is not None:
                incoming.setdefault(ops[i].name, set()).add(WR)
        for variable in op.write_set:
            i = last_write_index(variable)
            if i is not None:
                incoming.setdefault(ops[i].name, set()).add(WW)
            for k in range(0 if i is None else i, j):
                if ops[k].reads(variable) and ops[k] is not op:
                    incoming.setdefault(ops[k].name, set()).add(RW)
        for source, labels in incoming.items():
            dag.add_edge(source, op.name, labels=labels, check_acyclic=False)
    return dag


class TestIncrementalConflictGraph:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_append_equals_batch_equals_definition(self, seed):
        for spec in SPECS:
            ops = random_operations(seed, spec)
            batch = ConflictGraph(ops)
            grown = ConflictGraph()
            for op in ops:
                grown.append(op)
            assert grown.dag.same_structure(batch.dag, with_labels=True)
            assert grown.dag.same_structure(
                reference_conflict_dag(ops), with_labels=True
            )

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_append_feed_carries_the_complete_edge_delta(self, seed):
        """Rebuilding a dag purely from the subscription feed must
        reproduce the graph — the contract installation graphs rely on."""
        ops = random_operations(seed, SPEC)
        conflict = ConflictGraph()
        shadow = Dag()

        def listen(operation, incoming):
            shadow.add_node(operation.name)
            for source, labels in incoming.items():
                shadow.add_edge(
                    source, operation.name, labels=labels, check_acyclic=False
                )

        conflict.subscribe(listen)
        conflict.extend(ops)
        assert shadow.same_structure(conflict.dag, with_labels=True)


class TestIncrementalInstallationGraph:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_subscription_equals_filter_construction(self, seed):
        for spec in SPECS:
            ops = random_operations(seed, spec)
            conflict = ConflictGraph()
            incremental = InstallationGraph(conflict)  # built via _on_append
            conflict.extend(ops)
            batch = InstallationGraph(ConflictGraph(ops))  # built via filter
            assert incremental.dag.same_structure(batch.dag, with_labels=True)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_prefixes_agree_between_constructions(self, seed):
        ops = random_operations(seed, OpSequenceSpec(n_operations=7, n_variables=3))
        conflict = ConflictGraph()
        incremental = InstallationGraph(conflict)
        conflict.extend(ops)
        batch = InstallationGraph(ConflictGraph(ops))
        grown_prefixes = {frozenset(op.name for op in p) for p in incremental.prefixes()}
        batch_prefixes = {frozenset(op.name for op in p) for p in batch.prefixes()}
        assert grown_prefixes == batch_prefixes


class TestGrowingStateGraph:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_determined_states_track_appends_and_initials(self, seed):
        """Ask for a state graph partway through, keep appending, switch
        to a second initial state and back: after every step, random
        installation-graph prefixes determine the same state as a
        from-scratch build, through ``determined_state`` and through the
        grown graph itself."""
        rng = random.Random(seed)
        ops = random_operations(seed, SPEC)
        first, second = State(), State({"v0": 5, "v2": -3}, default=2)
        conflict = ConflictGraph()
        installation = InstallationGraph(conflict)
        split = rng.randrange(len(ops))
        conflict.extend(ops[:split])
        installation.state_graph(first)
        schedule = [first] * 4 + [second] * 4 + [first] * 4
        for step, op in enumerate(ops[split:]):
            conflict.append(op)
            initial = schedule[step % len(schedule)]
            graph = installation.state_graph(initial)
            for _ in range(4):
                nodes = installation.dag.nodes()
                chosen = rng.sample(nodes, rng.randrange(len(nodes) + 1))
                names = installation.dag.prefix_closure(chosen)
                prefix = {conflict.operation(name) for name in names}
                expected = scratch_determined_state(
                    list(conflict.operations), initial, names
                )
                assert installation.determined_state(prefix, initial) == expected
                assert graph.determined_state(initial, names) == expected
        installation.state_graph(first).validate()
        installation.state_graph(second).validate()


class TestExposureMemo:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_memo_agrees_with_uncached_across_interleavings(self, seed):
        """Random append/install/uninstall/replace interleavings: after
        every step, every memoized verdict must equal the uncached one
        and the exposed set must equal the definitional strict one."""
        rng = random.Random(seed)
        pool = random_operations(seed, OpSequenceSpec(n_operations=16, n_variables=4))
        graph = ConflictGraph()
        memo = ExposureMemo(InstallationGraph(graph))
        appended = []
        next_op = 0
        for _ in range(40):
            action = rng.random()
            if (action < 0.4 or not appended) and next_op < len(pool):
                graph.append(pool[next_op])
                appended.append(pool[next_op])
                next_op += 1
            elif action < 0.6 and appended:
                memo.install(rng.choice(appended))
            elif action < 0.8 and appended:
                memo.uninstall(rng.choice(appended))
            elif appended:
                memo.set_installed(rng.sample(appended, rng.randrange(len(appended) + 1)))
            installed = memo.installed
            for variable in graph.variable_index.variables():
                assert memo.is_exposed(variable) == is_exposed(
                    graph, installed, variable
                )
            assert memo.exposed_variables() == exposed_variables(graph, installed)
            assert memo.exposed_variables() == strictly_exposed_variables(
                graph, installed
            )

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_memo_tracks_appends_after_memoization(self, seed):
        """A memoized verdict must be invalidated by a later append that
        touches the variable."""
        ops = random_operations(seed, SPEC)
        graph = ConflictGraph(ops[: len(ops) // 2])
        memo = ExposureMemo(InstallationGraph(graph))
        memo.exposed_variables()  # populate the memo
        for op in ops[len(ops) // 2 :]:
            graph.append(op)
            assert memo.exposed_variables() == exposed_variables(
                graph, memo.installed
            )


class TestExplainabilityAgreement:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_explains_agrees_between_constructions(self, seed):
        ops = random_operations(seed, OpSequenceSpec(n_operations=7, n_variables=3))
        initial = State()
        conflict = ConflictGraph()
        incremental = InstallationGraph(conflict)
        conflict.extend(ops)
        batch = InstallationGraph(ConflictGraph(ops))
        for prefix in incremental.prefixes(limit=40):
            determined = incremental.determined_state(prefix, initial)
            perturbed = determined.updated(
                {variable: 10_000 for variable in list(determined.bound_variables())[:1]}
            )
            for state in (determined, perturbed):
                assert explains(incremental, prefix, state, initial) == explains(
                    batch, prefix, state, initial
                )


class TestLogGraphs:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_log_conflict_graph_tracks_appends(self, seed):
        ops = random_operations(seed, SPEC)
        from repro.core.recovery import Log

        half = len(ops) // 2
        log = Log(ops[:half])
        first = log.conflict_graph()
        assert first.dag.same_structure(
            ConflictGraph(ops[:half]).dag, with_labels=True
        )
        installation = log.installation_graph()
        for op in ops[half:]:
            log.append(op)
        # Same live objects, extended past the watermark — no rebuild.
        assert log.conflict_graph() is first
        assert log.installation_graph() is installation
        assert first.dag.same_structure(ConflictGraph(ops).dag, with_labels=True)
        assert installation.dag.same_structure(
            InstallationGraph(ConflictGraph(ops)).dag, with_labels=True
        )

    def test_graph_analysis_feeds_the_recovery_loop(self):
        from repro.core.recovery import Log, graph_analysis, recover

        ops = random_operations(7, OpSequenceSpec(n_operations=5, n_variables=3))
        log = Log(ops)
        outcome = recover(State(), log, analyze=graph_analysis())
        baseline = recover(State(), Log(ops))
        assert outcome.state == baseline.state
        assert outcome.redo_set == baseline.redo_set
        analysis = outcome.decisions[0].analysis
        assert analysis["conflict"] is log.conflict_graph()
        assert analysis["installation"] is log.installation_graph()
