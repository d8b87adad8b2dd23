"""Cross-session pipelined group commit: many sessions, one fsync.

Every manager force is a write plus an ``fsync``; one session batches
its own forces with its commit cadence (``commit_every``).  A server
multiplexing thousands of sessions needs more: forces arriving from
*different* threads within one disk rotation should share one staged
write and one ``fsync``.  That is what :class:`GroupCommitPipeline`
does.

The shape is the classic pipelined group commit:

- a session calls :meth:`commit` with the LSN of its last record; the
  request is folded into the *window* (just a max over requested LSNs),
  the committer is nudged, and the session parks on the log manager's
  :meth:`~repro.logmgr.manager.LogManager.wait_stable`;
- one **committer thread** drains the window: it takes the highest
  requested LSN and issues a single force —
  ``log.flush(up_to)`` window-encodes the whole batch
  into one packed blob of per-record frames per segment run (one
  staged blob, one ``write``) plus one ``fsync`` covering every
  session's records — then loops;
- while that fsync is in flight, new commit requests accumulate into
  the *next* window; the batch size **emerges** from the disk's own
  latency (the slower the fsync, the wider the window), which is why
  throughput scales with fan-in.  On a fast disk the fsync alone is too
  short a gathering interval, so the committer also waits
  ``window_delay`` after a window opens before forcing — the classic
  group-commit timer: a bounded, configurable latency add (default
  1 ms) bought back many times over in fsyncs saved;
- waking is by stable LSN: the force advances the manager's watermark
  and notifies its condition variable, releasing exactly the waiters
  whose records are covered — never early, because the predicate is
  re-checked under the manager mutex.

Two ordering guarantees the tests pin down: ``stable_lsn`` never
regresses (the manager's force path takes a max), and a
:meth:`commit` return implies durability of that session's records
(``wait_stable`` is predicate-checked, not notification-counted).
Forces issued *around* the pipeline — a ``sync()``, the WAL gate's
``ensure_stable`` — interleave safely: they serialize on the manager's
force lock and can only advance the same watermark.
"""

from __future__ import annotations

import threading
import time
from typing import Any

DEFAULT_COMMIT_TIMEOUT = 60.0
DEFAULT_WINDOW_DELAY = 0.001


class PipelineClosed(RuntimeError):
    """A commit was requested after the pipeline shut down."""


class GroupCommitPipeline:
    """One committer thread coalescing every session's pending forces."""

    def __init__(
        self,
        log,
        name: str = "group-commit",
        commit_timeout: float = DEFAULT_COMMIT_TIMEOUT,
        window_delay: float = DEFAULT_WINDOW_DELAY,
    ):
        self.log = log
        self.commit_timeout = commit_timeout
        self.window_delay = window_delay
        self._mutex = threading.Lock()
        self._work = threading.Condition(self._mutex)
        self._requested_lsn = -1  # high-water mark of the open window
        self._window_requests = 0  # commits folded into the open window
        self._closed = False
        self._abort = False
        # Counters (read via stats(); mutated under the mutex).
        self.commits = 0
        self.fast_path = 0
        self.windows = 0
        self.coalesced_total = 0
        self.max_coalesced = 0
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # The session-facing half
    # ------------------------------------------------------------------

    def commit(self, lsn: int | None = None, timeout: float | None = None) -> int:
        """Make the log stable through ``lsn`` (default: everything
        appended so far); blocks until it is.  Returns the stable LSN
        observed on wake, which is >= ``lsn`` by construction.
        """
        if lsn is None:
            lsn = self.log.next_lsn - 1
        if self.log.stable_lsn >= lsn:
            # Someone else's window already covered these records.
            with self._mutex:
                self.commits += 1
                self.fast_path += 1
            return self.log.stable_lsn
        with self._work:
            if self._closed:
                raise PipelineClosed("commit after pipeline close")
            self.commits += 1
            self._window_requests += 1
            if lsn > self._requested_lsn:
                self._requested_lsn = lsn
            self._work.notify_all()
        if not self.log.wait_stable(
            lsn, timeout=self.commit_timeout if timeout is None else timeout
        ):
            raise TimeoutError(
                f"group commit of LSN {lsn} still not stable after "
                f"{self.commit_timeout if timeout is None else timeout}s "
                f"(stable_lsn={self.log.stable_lsn})"
            )
        return self.log.stable_lsn

    # ------------------------------------------------------------------
    # The committer half
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._work:
                while not self._closed and (
                    self._requested_lsn <= self.log.stable_lsn
                ):
                    self._work.wait()
                if self._closed and (
                    self._abort or self._requested_lsn <= self.log.stable_lsn
                ):
                    return
            # Let the window gather: requests arriving during this delay
            # (and during the fsync below) share the force.  Skipped when
            # closing — the drain should not dawdle.
            if self.window_delay > 0 and not self._closed:
                time.sleep(self.window_delay)
            with self._work:
                target = self._requested_lsn
                coalesced = self._window_requests
                self._window_requests = 0
            # One write + one fsync for the whole window.  Requests that
            # arrive while this force is on the disk fold into the next
            # window — that is the pipelining.
            self.log.flush(up_to_lsn=target)
            with self._mutex:
                self.windows += 1
                self.coalesced_total += coalesced
                if coalesced > self.max_coalesced:
                    self.max_coalesced = coalesced

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
            self._work.notify_all()
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
            }

    def __repr__(self) -> str:
        return (
            f"GroupCommitPipeline(commits={self.commits}, "
            f"windows={self.windows}, max_coalesced={self.max_coalesced})"
        )
