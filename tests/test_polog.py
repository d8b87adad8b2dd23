"""Tests for partial-order logs (§4.1)."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import ConflictGraph
from repro.core.expr import Var, assign, blind_write, increment
from repro.core.installation import InstallationGraph
from repro.core.model import State
from repro.core.polog import PartialOrderLog, first_by_name
from repro.core.recovery import Log, recover
from repro.graphs import all_prefixes
from repro.workloads.opgen import OpSequenceSpec, random_operations

SPEC = OpSequenceSpec(n_operations=6, n_variables=3)


def last_by_name(candidates):
    return max(candidates, key=lambda op: op.name)


def paper_opq():
    """The paper's O, P, Q (Figures 4, 5, 7)."""
    return [
        assign("O", "x", Var("x") + 1),
        assign("P", "y", Var("x") + 1),
        assign("Q", "x", Var("x") + 2),
    ], ()


def shared_variables():
    """Increments, reads and blind writes: variable-connected components
    a component-by-component replay would take one at a time."""
    ops = []
    for i in range(4):
        ops.append(increment(f"inc{i}", f"v{i % 2}"))
        ops.append(assign(f"mix{i}", f"w{i}", Var(f"v{i % 2}") + i))
        ops.append(blind_write(f"blind{i}", f"u{i}", i * 10))
    return ops, ()


def checkpointed():
    """A checkpoint that moves A out of the unrecovered set."""
    A = blind_write("A", "x", 1)
    B = increment("B", "y")
    return [A, B], [A]


LINEARIZATION_INPUTS = {
    "opq": paper_opq,
    "shared-variables": shared_variables,
    "checkpointed": checkpointed,
}


class TestStructure:
    def test_consistent_by_construction(self, opq, opq_conflict):
        assert PartialOrderLog(opq_conflict).is_consistent()

    def test_extra_edges_allowed(self, initial_state):
        from tests.conftest import make_ops

        # Two non-conflicting operations: the log may order them freely.
        a, b = make_ops(("A", "x", 1), ("B", "y", 2))
        conflict = ConflictGraph([a, b])
        free = PartialOrderLog(conflict)
        assert set(free.minimal_unrecovered({a, b})) == {a, b}
        pinned = PartialOrderLog(conflict, extra_edges=[(b, a)])
        assert pinned.is_consistent()
        assert pinned.minimal_unrecovered({a, b}) == [b]

    def test_minimal_unrecovered(self, opq, opq_conflict):
        O, P, Q = opq
        log = PartialOrderLog(opq_conflict)
        # O -> P is a conflict (wr) edge, so the log must order them.
        assert set(log.minimal_unrecovered({O, P, Q})) == {O}
        assert set(log.minimal_unrecovered({P, Q})) == {P}
        assert set(log.minimal_unrecovered({Q})) == {Q}


class TestRecoverPartialOrder:
    def test_matches_linear_recovery(self, opq, initial_state):
        conflict = ConflictGraph(list(opq))
        linear = recover(initial_state, Log.from_operations(list(opq)))
        partial = recover(initial_state, PartialOrderLog(conflict))
        assert partial.state == linear.state
        assert partial.redo_set == linear.redo_set

    @pytest.mark.parametrize(
        "tie_break", [first_by_name, last_by_name], ids=["first", "last"]
    )
    @pytest.mark.parametrize(
        "build", list(LINEARIZATION_INPUTS.values()), ids=list(LINEARIZATION_INPUTS)
    )
    def test_tie_break_does_not_change_result(self, build, tie_break):
        """§4.1: whichever linearization the tie-break takes, recovery
        reaches what the total-order log recovers."""
        ops, checkpoint = build()
        linear = recover(State(), Log(ops), checkpoint=checkpoint)
        partial = recover(
            State(),
            PartialOrderLog(ConflictGraph(ops), tie_break=tie_break),
            checkpoint=checkpoint,
        )
        assert partial.state == linear.state
        assert partial.redo_set == linear.redo_set
        assert partial.logged == linear.logged

    def test_checkpointed_operation_is_not_replayed(self):
        (A, B), checkpoint = checkpointed()
        outcome = recover(
            State(), PartialOrderLog(ConflictGraph([A, B])), checkpoint=checkpoint
        )
        assert outcome.redo_set == {B}
        assert outcome.state["x"] == 0
        assert outcome.state["y"] == 1

    @given(
        st.integers(min_value=0, max_value=5_000),
        st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_tie_breaks_all_recover(self, seed, tie_seed):
        """§4.1's point at scale: for every installation-prefix crash
        state, recovery over the partial-order log with *random* minimal
        choices reaches the final state."""
        ops = random_operations(seed, SPEC)
        conflict = ConflictGraph(ops)
        installation = InstallationGraph(conflict)
        initial = State()
        final = conflict.final_state(initial)
        variables = set()
        for op in ops:
            variables |= op.variables()
        rng = Random(tie_seed * 131 + seed)

        def random_tie(candidates):
            return rng.choice(sorted(candidates, key=lambda o: o.name))

        polog = PartialOrderLog(conflict, tie_break=random_tie)

        for prefix_names in all_prefixes(installation.dag, limit=12):
            prefix = {conflict.operation(name) for name in prefix_names}
            state = installation.determined_state(prefix, initial)
            outcome = recover(state, polog, checkpoint=prefix)
            assert outcome.state.agrees_with(final, variables)

    def test_bad_tie_break_rejected(self, opq, initial_state):
        O, P, Q = opq
        log = PartialOrderLog(ConflictGraph(list(opq)), tie_break=lambda cands: Q)
        with pytest.raises(ValueError, match="non-candidate"):
            recover(initial_state, log)  # Q is never minimal first

    def test_non_minimal_first_pick_rejected(self, opq, initial_state):
        """One illegal pick is enough: Q first, then every pick legal,
        would replay Q, O, P and land on y=4 where log order gives y=2."""
        O, P, Q = opq
        picks = iter([Q])

        def q_first(candidates):
            return next(picks, candidates[0])

        log = PartialOrderLog(ConflictGraph(list(opq)), tie_break=q_first)
        with pytest.raises(ValueError, match="non-candidate"):
            recover(initial_state, log)
