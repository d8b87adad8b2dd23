"""Cross-session group commit: many sessions, one fsync, no committer thread.

An acknowledgement depends on one thing only: the stable prefix of the
log, which recovery replays and ``stable_lsn`` reports.  So the session
that needs the watermark moved forces it on its own thread
(:meth:`GroupCommitPipeline.commit`): on the **fast path** its records are
already stable; as a **follower** it waits for the force in progress and
returns if that covered it; as the **leader** it forces everything
appended by the time the force starts, so sessions that appended meanwhile
ride along and the batch size follows the disk's latency.

The leader **gathers**: sessions bracket each apply with :meth:`enter` and
:meth:`leave`, and a leader that finds some in flight waits for them,
capped by a running estimate of one force, before it forces.  The
announcement takes no lock (``list.append``/``list.pop`` are atomic), and
:meth:`leave` takes the mutex only to wake a leader that is gathering.

A commit returns only once ``stable_lsn`` covers its LSN, else it raises
``RuntimeError`` (a crash dropped the records).  A closed log refuses
every commit with ``ValueError``, fast path included.  A failed force
raises on the leader's own thread; the file store's failure is sticky,
so each follower that then leads fails at once.  Every commit is counted
once: ``commits == fast_path + coalesced_total``, and ``windows`` counts
the leaders' forces.
"""

from __future__ import annotations

import threading
import time
from typing import Any


class GroupCommitPipeline:
    """Leader/follower group commit over one log, run by the committers."""

    def __init__(self, log):
        self.log = log
        self._mutex = threading.Lock()
        self._left = threading.Condition(self._mutex)  # _in_flight emptied
        self._forced = threading.Condition(self._mutex)  # a force finished
        self._leading = False
        self._parked = 0  # followers waiting on _forced
        self._in_flight: list[None] = []  # one entry per enter() not yet left
        self._gathering = False  # the leader waits on _left
        self._force_estimate = 0.0  # seconds; running mean of one force
        # Counters (read via stats(); mutated under the mutex).
        self.commits = 0
        self.fast_path = 0
        self.windows = 0
        self.gathered_windows = 0
        self.coalesced_total = 0

    def enter(self) -> None:
        """Announce an operation about to append: a leader starting its
        force now waits (briefly) for it to :meth:`leave`."""
        self._in_flight.append(None)

    def leave(self) -> None:
        """The announced operation has appended its records.  A leader
        sets ``_gathering`` before it looks at ``_in_flight``, so either
        it sees this pop or this sees the flag and wakes it."""
        self._in_flight.pop()
        if self._gathering:
            with self._mutex:
                self._left.notify()

    def commit(self, lsn: int | None = None) -> int:
        """Make the log stable through ``lsn`` (default: everything
        appended so far); blocks until it is.  Returns the stable LSN,
        which is >= ``lsn``."""
        log = self.log
        if log.closed:
            raise ValueError("commit to a closed log")
        if lsn is None:
            lsn = log.next_lsn - 1
        with self._mutex:
            self.commits += 1
            if log.stable_lsn >= lsn:
                self.fast_path += 1
                return log.stable_lsn
            while self._leading:
                self._parked += 1
                self._forced.wait()
                self._parked -= 1
                if log.stable_lsn >= lsn:
                    self.coalesced_total += 1
                    return log.stable_lsn
            self._leading = True
            self.windows += 1
            self.coalesced_total += 1
            self._gathering = True
            if self._in_flight:
                # Another session is mid-apply: its records can ride this
                # force if it finishes within about one force.
                self.gathered_windows += 1
                self._left.wait_for(
                    lambda: not self._in_flight, timeout=self._force_estimate
                )
            self._gathering = False
        started = time.perf_counter()
        try:
            log.flush()
        finally:
            elapsed = time.perf_counter() - started
            with self._mutex:
                self._leading = False
                if self._parked:
                    self._forced.notify_all()
                if self.windows == 1:
                    self._force_estimate = elapsed
                else:
                    self._force_estimate += (elapsed - self._force_estimate) / 8
        stable = log.stable_lsn
        if stable < lsn:  # never acknowledge below the commit's own records
            raise RuntimeError(
                f"LSN {lsn} is not stable after a force (stable_lsn={stable}): "
                f"a crash dropped it"
            )
        return stable

    def stats(self) -> dict[str, Any]:
        """Pipeline counters (for the engine metrics registry)."""
        with self._mutex:
            return {
                "commits": self.commits,
                "fast_path": self.fast_path,
                "windows": self.windows,
                "coalesced_total": self.coalesced_total,
                "gathered_windows": self.gathered_windows,
                "force_estimate_us": round(self._force_estimate * 1e6, 1),
            }

    def __repr__(self) -> str:
        return f"GroupCommitPipeline(commits={self.commits}, windows={self.windows})"
