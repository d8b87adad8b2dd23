"""The cache manager (buffer pool + install scheduler).

The cache is where the write graph becomes operational (§5–6): pages
accumulate the effects of many operations, and flushing a page to disk
*installs* every operation whose effects it carries.  The pool's flush
decisions are all delegated to one live §5 write graph, the
:class:`~repro.cache.scheduler.InstallScheduler`:

- the write-ahead rule is install's stable-LSN side condition (a page
  cannot reach disk before the log records that produced its updates are
  stable);
- *careful write ordering* constraints are the write-graph "add an edge"
  operation, e.g. "flush the new B-tree page before overwriting the old
  one" (§6.4, Figure 8), bound to node generations so a constraint is
  never satisfied by a flush that preceded its registration;
- redundant flushes are *elided* via the remove-write operation when a
  dirty page's content already equals its disk image and no other page
  is ordered after it;
- eviction prefers victims the graph says are free (clean frames, then
  minimal uninstalled nodes), recency (LRU) breaking ties, in steal
  (flush-dirty-victim) and no-steal modes.
"""

from repro.cache.pool import BufferPool, CachePolicyError, FlushConstraint
from repro.cache.scheduler import (
    InstallScheduler,
    PageNode,
    SchedulerCycleError,
    SchedulerError,
)

__all__ = [
    "BufferPool",
    "CachePolicyError",
    "FlushConstraint",
    "InstallScheduler",
    "PageNode",
    "SchedulerCycleError",
    "SchedulerError",
]
