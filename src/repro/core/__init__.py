"""The paper's primary contribution, as an executable library.

Modules map one-to-one onto the paper's sections:

======================  =======================================================
Module                  Paper section
======================  =======================================================
``model``               §2.1 system model: variables, values, states, operations
``expr``                expression DSL used to define operations declaratively
``conflict``            §2.2 conflict graphs and Lemma 1
``exposed``             §2.3 exposed variables
``state_graph``         §2.4 state graphs, Lemma 2, conflict state graphs
``installation``        §3.1 installation graphs
``explain``             §3.2–3.3 explainable states, applicability, replay steps
``replay``              §3.4 Theorem 3 (potential recoverability)
``recovery``            §4 the abstract ``recover`` procedure (Figure 6)
``polog``               §4.1 partial-order logs: any linearization recovers
``invariant``           §4.5 the Recovery Invariant checker
``write_graph``         §5 write graphs and Corollary 5
==============================================================================

Everything here is re-exported at the package root (:mod:`repro`).
"""

from repro.core.model import Operation, State, run_sequence, state_sequence
from repro.core.expr import Add, Const, Expr, Var, assign, blind_write, increment
from repro.core.conflict import ConflictGraph
from repro.core.varindex import VariableIndex
from repro.core.exposed import (
    ExposureMemo,
    exposed_variables,
    is_exposed,
    unexposed_variables,
)
from repro.core.state_graph import StateGraph
from repro.core.installation import InstallationGraph
from repro.core.explain import (
    explains,
    find_explaining_prefixes,
    is_applicable,
    is_explainable,
)
from repro.core.replay import is_potentially_recoverable, replay, replay_order
from repro.core.recovery import (
    Log,
    LogRecord,
    RecoveryOutcome,
    RedoDecision,
    recover,
)
from repro.core.polog import PartialOrderLog
from repro.core.invariant import (
    InvariantReport,
    check_recovery_invariant,
    installed_set,
)
from repro.core.write_graph import WriteGraph, WriteGraphError, WriteNode

__all__ = [
    "Add",
    "ConflictGraph",
    "Const",
    "ExposureMemo",
    "Expr",
    "InstallationGraph",
    "InvariantReport",
    "Log",
    "LogRecord",
    "Operation",
    "PartialOrderLog",
    "RecoveryOutcome",
    "RedoDecision",
    "State",
    "StateGraph",
    "Var",
    "VariableIndex",
    "WriteGraph",
    "WriteGraphError",
    "WriteNode",
    "assign",
    "blind_write",
    "check_recovery_invariant",
    "explains",
    "exposed_variables",
    "find_explaining_prefixes",
    "increment",
    "installed_set",
    "is_applicable",
    "is_explainable",
    "is_exposed",
    "is_potentially_recoverable",
    "recover",
    "replay",
    "replay_order",
    "run_sequence",
    "state_sequence",
    "unexposed_variables",
]
