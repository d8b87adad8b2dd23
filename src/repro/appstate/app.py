"""Crash-survivable deterministic applications.

A persistent application is a pure transition function
``step(state, event) -> state`` plus an initial state.  Durability comes
entirely from redo recovery:

- posting an event appends a logical log record (the event, verbatim)
  and advances the volatile state through ``step``;
- a checkpoint forces the log, serializes the current state into the
  staging area, and swings the shadow pointer — one atomic action that
  installs the whole history so far and truncates the redo set (the
  System R pattern of §6.1, reused for arbitrary program state);
- recovery loads the last snapshot and replays every later stable event
  through ``step``.

Determinism of ``step`` is the whole contract: replaying the same
events from the same snapshot must rebuild the same state.  States and
events must be plain data (tuples/ints/strings/dicts...), since they
live in log records and page cells.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.logmgr import CheckpointRecord, LogicalRedo
from repro.methods.base import Machine
from repro.storage import Page, ShadowStore

SNAPSHOT_PAGE = "app-state"
Transition = Callable[[Any, Any], Any]


class TransitionError(RuntimeError):
    """The transition function rejected an event."""


class PersistentApplication:
    """A deterministic application made crash-survivable by redo logging."""

    def __init__(
        self,
        step: Transition,
        initial_state: Any,
        machine: Machine | None = None,
        checkpoint_every: int | None = None,
    ):
        self.step = step
        self.initial_state = initial_state
        self.machine = machine if machine is not None else Machine()
        self.shadow = ShadowStore(self.machine.disk)
        self.checkpoint_every = checkpoint_every
        self.state: Any = initial_state
        self.events_posted = 0
        self.events_replayed = 0
        self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------

    def post(self, event: Any) -> Any:
        """Apply ``event``; its log record is the durability story."""
        self.machine.log.append(LogicalRedo(("app-event", event, None)))
        self.state = self._apply(event)
        self.events_posted += 1
        self._since_checkpoint += 1
        if (
            self.checkpoint_every is not None
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return self.state

    def _apply(self, event: Any) -> Any:
        try:
            return self.step(self.state, event)
        except TransitionError:
            raise
        except Exception as exc:  # surface programmer errors loudly
            raise TransitionError(
                f"transition failed on event {event!r}: {exc}"
            ) from exc

    def commit(self) -> None:
        """Force the log: everything posted so far becomes durable."""
        self.machine.log.flush()

    def checkpoint(self) -> None:
        """Snapshot the state; one pointer swing installs everything."""
        self.machine.log.flush()
        checkpoint_lsn = self.machine.log.stable_lsn
        self.shadow.stage_page(Page(SNAPSHOT_PAGE, {"state": self.state}))
        self.machine.log.append(CheckpointRecord(("app", checkpoint_lsn)))
        self.machine.log.flush()
        self.shadow.swing_pointer(checkpoint_lsn)
        self._since_checkpoint = 0

    # ------------------------------------------------------------------
    # Durability contract
    # ------------------------------------------------------------------

    def durable_event_count(self) -> int:
        """Events whose log records are stable (the crash-survivable prefix)."""
        return self.machine.log.stable_operation_count()

    def expected_state_after(self, events: list) -> Any:
        """The oracle: fold ``events`` over the initial state."""
        state = self.initial_state
        for event in events:
            state = self.step(state, event)
        return state

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose the volatile state and the unforced log tail."""
        self.machine.crash()
        self.state = None  # volatile state is gone

    def recover(self) -> None:
        """Snapshot + replay: the Figure 6 procedure specialized to one
        snapshot record and a logical event log."""
        self.machine.reboot_pool()
        self.shadow = ShadowStore(self.machine.disk)
        self.shadow.abandon_staging()
        checkpoint_lsn = self.shadow.checkpoint_lsn()
        if self.shadow.has_current(SNAPSHOT_PAGE):
            self.state = self.shadow.read_current(SNAPSHOT_PAGE).get("state")
        else:
            self.state = self.initial_state
        for entry in self.machine.log.stable_records_from(checkpoint_lsn + 1):
            if not isinstance(entry.payload, LogicalRedo):
                continue
            _, event, _ = entry.payload.description
            self.state = self._apply(event)
            self.events_replayed += 1

    def __repr__(self) -> str:
        return (
            f"PersistentApplication(events={self.events_posted}, "
            f"replayed={self.events_replayed})"
        )
