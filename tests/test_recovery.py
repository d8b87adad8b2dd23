"""Unit tests for the abstract recovery procedure (§4, Figure 6)."""

import pytest

from repro.core.conflict import ConflictGraph
from repro.core.model import State
from repro.core.polog import PartialOrderLog
from repro.core.recovery import (
    Log,
    analysis_once,
    recover,
)
from tests.conftest import make_ops


def partial_order_log(operations):
    return PartialOrderLog(ConflictGraph(operations))


@pytest.fixture(
    params=[Log.from_operations, partial_order_log], ids=["Log", "PartialOrderLog"]
)
def make_log(request):
    """Both kinds of log over the same operations: one recovery loop
    serves them, so the analysis protocol must hold for each."""
    return request.param


class TestLog:
    def test_append_assigns_dense_lsns(self):
        ops = make_ops(("A", "x", 1), ("B", "y", 2))
        log = Log()
        r0 = log.append(ops[0])
        r1 = log.append(ops[1], page="p1")
        assert (r0.lsn, r1.lsn) == (0, 1)
        assert r1.labels == {"page": "p1"}

    def test_from_operations(self):
        ops = make_ops(("A", "x", 1), ("B", "y", 2))
        log = Log.from_operations(ops)
        assert log.operations() == ops
        assert len(log) == 2

    def test_record_for(self):
        ops = make_ops(("A", "x", 1))
        log = Log.from_operations(ops)
        assert log.record_for(ops[0]).lsn == 0
        with pytest.raises(KeyError):
            log.record_for(make_ops(("Z", "z", 1))[0])

    def test_is_log_for_accepts_execution_order(self, opq, opq_conflict):
        assert Log.from_operations(list(opq)).is_log_for(opq_conflict)

    def test_is_log_for_accepts_any_linear_extension(self, opq, opq_conflict):
        for extension in opq_conflict.all_linear_extensions():
            assert Log.from_operations(extension).is_log_for(opq_conflict)

    def test_is_log_for_rejects_conflict_violation(self, opq, opq_conflict):
        O, P, Q = opq
        assert not Log.from_operations([Q, P, O]).is_log_for(opq_conflict)

    def test_is_log_for_rejects_missing_operation(self, opq, opq_conflict):
        O, P, Q = opq
        assert not Log.from_operations([O, P]).is_log_for(opq_conflict)

    def test_suffix_from(self, opq):
        log = Log.from_operations(list(opq))
        suffix = log.suffix_from(1)
        assert [r.lsn for r in suffix] == [1, 2]


class TestRecoverProcedure:
    def test_replays_everything_without_checkpoint(self, opq, initial_state):
        log = Log.from_operations(list(opq))
        outcome = recover(initial_state, log)
        assert outcome.state["x"] == 3 and outcome.state["y"] == 2
        assert outcome.redo_set == set(opq)
        assert outcome.installed == set()

    def test_checkpoint_skips_operations(self, opq, initial_state):
        O, P, Q = opq
        log = Log.from_operations(list(opq))
        # {O} checkpointed: state must already contain O's effect.
        outcome = recover(State({"x": 1}), log, checkpoint={O})
        assert outcome.state["x"] == 3 and outcome.state["y"] == 2
        assert outcome.redo_set == {P, Q}
        assert outcome.installed == {O}

    def test_redo_test_controls_replay(self, opq, initial_state):
        O, P, Q = opq

        def redo_only_q(operation, state, log, analysis):
            return operation == Q

        log = Log.from_operations(list(opq))
        outcome = recover(State({"x": 1, "y": 2}), log, redo=redo_only_q)
        assert outcome.redo_set == {Q}
        assert outcome.state["x"] == 3

    def test_decisions_trace_in_log_order(self, opq, initial_state):
        log = Log.from_operations(list(opq))
        outcome = recover(initial_state, log)
        assert [d.operation.name for d in outcome.decisions] == ["O", "P", "Q"]
        assert all(d.redone for d in outcome.decisions)

    def test_input_state_not_mutated(self, opq, initial_state):
        log = Log.from_operations(list(opq))
        recover(initial_state, log)
        assert initial_state == State()

    def test_installed_after_bookkeeping(self, opq, initial_state):
        """installed_i grows monotonically to the full logged set."""
        O, P, Q = opq
        log = Log.from_operations(list(opq))
        outcome = recover(initial_state, log, checkpoint={O})
        before = outcome.installed_after(0)
        assert before == {O}  # only the checkpointed op is safe initially
        assert outcome.installed_after(1) == {O, P}
        assert outcome.installed_after(2) == {O, P, Q}

    def test_analysis_once_runs_single_pass(self, opq, initial_state, make_log):
        calls = []

        def single(state, log, unrecovered):
            calls.append(len(unrecovered))
            return "the-analysis"

        log = make_log(list(opq))
        outcome = recover(initial_state, log, analyze=analysis_once(single))
        assert calls == [3]  # ran once, at the first iteration
        assert all(d.analysis == "the-analysis" for d in outcome.decisions)

    def test_per_iteration_analysis(self, opq, initial_state, make_log):
        seen = []

        def analyze(state, log, unrecovered, analysis):
            seen.append(sorted(op.name for op in unrecovered))
            return len(unrecovered)

        log = make_log(list(opq))
        recover(initial_state, log, analyze=analyze)
        assert seen == [["O", "P", "Q"], ["P", "Q"], ["Q"]]

    def test_analysis_value_reaches_redo_test(self, opq, initial_state, make_log):
        log = make_log(list(opq))

        def analyze(state, log_, unrecovered, analysis):
            return {"countdown": len(unrecovered)}

        def redo(operation, state, log_, analysis):
            assert analysis["countdown"] >= 1
            return True

        outcome = recover(initial_state, log, redo=redo, analyze=analyze)
        assert outcome.state["x"] == 3


class TestCorollary4Shape:
    def test_wrong_redo_choice_breaks_recovery(self, opq, initial_state):
        """Skipping O while the state doesn't contain O's effect violates
        the invariant, and recovery indeed lands in the wrong state."""
        O, P, Q = opq

        def skip_o(operation, state, log, analysis):
            return operation != O

        log = Log.from_operations(list(opq))
        outcome = recover(initial_state, log, redo=skip_o)
        # P read x=0 instead of 1: y ends up 1, not 2.
        assert outcome.state["y"] == 1
        final = ConflictGraph(list(opq)).final_state(initial_state)
        assert outcome.state != final
