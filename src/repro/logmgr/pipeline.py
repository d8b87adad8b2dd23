"""Cross-session pipelined group commit: many sessions, one fsync.

Every manager force is a write plus an ``fsync``; one session batches
its own forces with its commit cadence (``commit_every``).  A server
multiplexing thousands of sessions needs more: forces arriving from
*different* threads within one disk rotation should share one staged
write and one ``fsync``.  That is what :class:`GroupCommitPipeline`
does.

The shape is the classic pipelined group commit:

- a session calls :meth:`commit` with the LSN of its last record; the
  request joins the open *window*, the committer is nudged, and the
  session parks on that window's event;
- one **committer thread** drains the window with a single force of
  everything appended so far — ``log.flush(up_to)`` window-encodes the
  whole batch into one packed blob of per-record frames per segment run
  (one staged blob, one ``write``) plus one ``fsync`` covering every
  session's records — then loops;
- while that fsync is in flight, a commit whose records it already
  covers joins it; later requests accumulate into the *next* window, so
  the batch size **emerges** from the disk's own latency (the slower the
  fsync, the wider the window), which is why throughput scales with
  fan-in;
- the window is **adaptive**: sessions announce an operation in flight
  (:meth:`enter` before taking the engine mutex, :meth:`leave` after
  the apply).  With no other session in flight, waiting buys nothing and
  the committer forces at once.  Otherwise it waits until the in-flight
  count reaches zero — those operations' records land in the same force
  — capped by a running estimate of one force's duration, so a session
  that never leaves delays a commit by at most one fsync's worth;
- waking is per window: once a window's force returns, its event
  releases exactly the commits it covered (the next window's waiters
  sleep on), and each re-reads the manager's stable watermark before
  acknowledging — never early.

Two ordering guarantees the tests pin down: ``stable_lsn`` never
regresses (the manager's force path takes a max), and a
:meth:`commit` return implies durability of that session's records
(the acknowledgement is checked against ``stable_lsn``, not inferred
from the wake-up).
Forces issued *around* the pipeline — a ``sync()``, the WAL gate's
``ensure_stable`` — interleave safely: they serialize on the manager's
force lock and can only advance the same watermark.  Every commit is
counted exactly once, as ``fast_path`` (already stable when asked) or
in the window whose force covered it: ``coalesced_total + fast_path ==
commits`` once no commit is waiting.

A force that raises is final: the committer keeps the exception, closes
the pipeline and wakes every parked commit; each commit whose records are
not yet stable then raises :class:`PipelineFailed`, chained to it, at once.
"""

from __future__ import annotations

import threading
import time
from typing import Any

DEFAULT_COMMIT_TIMEOUT = 60.0


class PipelineClosed(RuntimeError):
    """A commit was requested after the pipeline shut down."""


class PipelineFailed(PipelineClosed):
    """The pipeline shut down because a force failed; ``__cause__`` is
    the force's exception."""


class GroupCommitPipeline:
    """One committer thread coalescing every session's pending forces."""

    def __init__(
        self,
        log,
        name: str = "group-commit",
        commit_timeout: float = DEFAULT_COMMIT_TIMEOUT,
    ):
        self.log = log
        self.commit_timeout = commit_timeout
        self._mutex = threading.Lock()
        self._work = threading.Condition(self._mutex)
        self._pending = 0  # requests waiting for the next window
        self._requested_lsn = -1  # their high-water mark
        self._covering_lsn = -1  # target of the force on the disk, if any
        self._window_size = 0  # commits in the current window
        # Set once a window's force returns: the next window's waiters
        # park on ``_next``, the ones covered by the force on the disk
        # on ``_forcing``.
        self._next = threading.Event()
        self._forcing = threading.Event()
        self._in_flight = 0  # sessions between enter() and leave()
        self._gathering = False
        self._force_estimate = 0.0  # seconds; running mean of one force
        self._closed = False
        self._abort = False
        # The exception of the force that failed the pipeline, if any.
        self.failure: BaseException | None = None
        # Counters (read via stats(); mutated under the mutex).
        self.commits = 0
        self.fast_path = 0
        self.windows = 0
        self.gathered_windows = 0
        self.coalesced_total = 0
        self.max_coalesced = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # The session-facing half
    # ------------------------------------------------------------------

    def enter(self) -> None:
        """Announce an operation about to append: a window opening now
        waits (briefly) for it to :meth:`leave`."""
        with self._mutex:
            self._in_flight += 1

    def leave(self) -> None:
        """The announced operation has appended its records."""
        with self._mutex:
            self._in_flight -= 1
            if self._gathering and not self._in_flight:
                self._work.notify()

    def commit(self, lsn: int | None = None, timeout: float | None = None) -> int:
        """Make the log stable through ``lsn`` (default: everything
        appended so far); blocks until it is.  Returns the stable LSN
        observed on wake, which is >= ``lsn`` by construction.
        """
        if lsn is None:
            lsn = self.log.next_lsn - 1
        with self._work:
            if self.log.stable_lsn >= lsn:
                # Someone else's force already covered these records.
                self.commits += 1
                self.fast_path += 1
                return self.log.stable_lsn
            self._raise_if_failed()
            if self._closed:
                raise PipelineClosed("commit after pipeline close")
            self.commits += 1
            if lsn <= self._covering_lsn:
                # The force on the disk right now covers these records.
                self._join_window(1)
                done = self._forcing
            else:
                self._pending += 1
                if lsn > self._requested_lsn:
                    self._requested_lsn = lsn
                if self._pending == 1 and not self._gathering:
                    self._work.notify()
                done = self._next
        if timeout is None:
            timeout = self.commit_timeout
        # Park on this window alone — a force wakes only the commits it
        # covers — and acknowledge only what the watermark shows stable.
        done.wait(timeout)
        stable = self.log.stable_lsn
        if stable < lsn:
            self._raise_if_failed()
            raise TimeoutError(
                f"group commit of LSN {lsn} still not stable after "
                f"{timeout}s (stable_lsn={stable})"
            )
        return stable

    def _raise_if_failed(self) -> None:
        failure = self.failure
        if failure is not None:
            raise PipelineFailed(f"group commit failed: {failure}") from failure

    def _join_window(self, n: int) -> None:
        self._window_size += n
        self.coalesced_total += n
        if self._window_size > self.max_coalesced:
            self.max_coalesced = self._window_size

    # ------------------------------------------------------------------
    # The committer half
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._work:
                while not self._closed and not self._pending:
                    self._work.wait()
                if self._pending and self._requested_lsn <= self.log.stable_lsn:
                    # A force around the pipeline covered them first.
                    self.fast_path += self._pending
                    self._pending = 0
                    self._next.set()
                    self._next = threading.Event()
                if self._closed and (self._abort or not self._pending):
                    return
                if self._in_flight and not self._closed:
                    # Another session is mid-apply: its records can ride
                    # this force if it finishes within about one force.
                    self.gathered_windows += 1
                    self._gathering = True
                    self._work.wait_for(
                        lambda: not self._in_flight or self._closed,
                        timeout=self._force_estimate,
                    )
                    self._gathering = False
                    if self._abort:
                        return
                # The window: every pending request, plus whatever is
                # appended by now — a session between leave() and its
                # commit request is covered too, and joins on arrival.
                target = self.log.next_lsn - 1
                self._covering_lsn = target
                self._forcing, self._next = self._next, threading.Event()
                self._window_size = 0
                self._join_window(self._pending)
                self._pending = 0
                self._requested_lsn = -1
                self.windows += 1
            started = time.perf_counter()
            try:
                self.log.flush(up_to_lsn=target)
            except Exception as exc:
                with self._mutex:
                    self.failure = exc
                    self._closed = True
                    self._covering_lsn = -1
                    self._forcing.set()
                    self._next.set()
                return
            elapsed = time.perf_counter() - started
            with self._mutex:
                self._covering_lsn = -1
                self._forcing.set()
                if self.windows == 1:
                    self._force_estimate = elapsed
                else:
                    self._force_estimate += (elapsed - self._force_estimate) / 8

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------

    def close(self, timeout: float = 10.0, abort: bool = False) -> None:
        """Drain the open window, then stop the committer (idempotent).
        Commits requested after close raise :class:`PipelineClosed`.

        ``abort=True`` skips the drain — the committer exits without
        forcing, which is what a simulated crash needs (the volatile
        tail must be *lost*, not flushed on the way down).  Sessions
        still parked in :meth:`commit` then time out rather than being
        woken with a durability promise nobody kept.
        """
        with self._work:
            self._closed = True
            if abort:
                self._abort = True
            self._work.notify()
        self._thread.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict[str, Any]:
        """Pipeline counters (for the engine metrics registry)."""
        with self._mutex:
            return {
                "commits": self.commits,
                "fast_path": self.fast_path,
                "windows": self.windows,
                "coalesced_total": self.coalesced_total,
                "max_coalesced": self.max_coalesced,
                "gathered_windows": self.gathered_windows,
                "force_estimate_us": round(self._force_estimate * 1e6, 1),
            }

    def __repr__(self) -> str:
        return (
            f"GroupCommitPipeline(commits={self.commits}, "
            f"windows={self.windows}, max_coalesced={self.max_coalesced})"
        )
