"""The traced pass: bench-owned spans around each layer's public calls.

One table (:data:`LAYER_TABLE`) names, per layer of ``src/repro``, the
public callables a span is recorded around.  :func:`install` wraps them
in place — nothing under ``src/`` is edited, and an entry that no longer
resolves raises, so a change that moves or renames a traced call cannot
silently drop its span.

A span is ``[name, parent, start, end]``: ``parent`` is the index of the
enclosing span *on the same thread* (-1 for a root) and the clock is
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so a client process can window a server process's spans by its own
timestamps.  Spans are kept in per-thread lists in memory and summarised
(or written out) when the round ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; within one thread children never
overlap, so that part is the sum of the direct children's durations.
Summed over a thread, self times equal the thread's root durations —
which is what lets the ledger reconcile with the wall clock exactly.
"""

from __future__ import annotations

import importlib
import threading
import time

METHOD_CLASSES = (
    "repro.methods.physiological:PhysiologicalKV",
    "repro.methods.physical:PhysicalKV",
    "repro.methods.logical:LogicalKV",
    "repro.methods.generalized:GeneralizedKV",
)

# (layer, span name, owner as "module" or "module:Class", attributes).
# An attribute prefixed with "*" returns an iterator: each step is a span.
LAYER_TABLE = [
    ("shard", "shard.route", "repro.shard.sharded:ShardedSession",
     ("execute", "get", "commit")),
    ("engine", "engine.op", "repro.engine.kv:KVDatabase", ("execute", "get")),
    ("engine", "engine.op", "repro.engine.kv:Session", ("execute", "get")),
    ("engine", "engine.commit", "repro.engine.kv:KVDatabase", ("commit", "sync")),
    ("engine", "engine.commit", "repro.engine.kv:Session", ("commit", "sync")),
    ("engine", "engine.checkpoint", "repro.engine.kv:KVDatabase", ("checkpoint",)),
    ("engine", "engine.restart", "repro.engine.kv:KVDatabase",
     ("cold_start", "recover", "drain_lazy")),
    ("methods", "methods.apply", "repro.methods.base:RecoveryMethodKV", ("apply",)),
    *[
        entry
        for cls in METHOD_CLASSES
        for entry in (
            ("methods", "methods.apply", cls, ("get",)),
            ("methods", "methods.checkpoint", cls, ("checkpoint",)),
            ("methods", "methods.recover", cls, ("recover",)),
            ("methods", "methods.analysis", cls, ("begin_lazy_recovery",)),
        )
    ],
    ("methods", "methods.lazy_replay", "repro.methods.lazy:PagewiseLazyPlan",
     ("fault", "step", "drain")),
    ("methods", "methods.lazy_replay", "repro.methods.lazy:SuffixLazyPlan",
     ("step", "drain")),
    ("cache", "cache.pool", "repro.cache.pool:BufferPool",
     ("get_page", "update", "mark_dirty", "flush_page", "flush_all")),
    ("cache", "cache.scheduler", "repro.cache.scheduler:InstallScheduler",
     ("collapse", "add_edge", "install", "remove_write", "set_rec_lsn", "rec_lsns")),
    ("storage", "storage.read", "repro.storage.disk:Disk", ("read_page",)),
    ("storage", "storage.write", "repro.storage.disk:Disk", ("write_page",)),
    ("logmgr.manager", "logmgr.append", "repro.logmgr.manager:LogManager", ("append",)),
    ("logmgr.manager", "logmgr.flush", "repro.logmgr.manager:LogManager", ("flush",)),
    ("logmgr.manager", "logmgr.ensure_stable", "repro.logmgr.manager:LogManager",
     ("ensure_stable",)),
    ("logmgr.manager", "logmgr.open", "repro.logmgr.manager:LogManager", ("open",)),
    ("logmgr.manager", "logmgr.scan", "repro.logmgr.manager:LogManager",
     ("*stable_records_from",)),
    ("logmgr.manager", "logmgr.entries", "repro.logmgr.manager:LogManager",
     ("stable_entries",)),
    ("logmgr.manager", "logmgr.fetch_chain", "repro.logmgr.manager:LogManager",
     ("fetch_chain",)),
    # The manager imports these by name, so its own globals are patched.
    ("logmgr.codec", "codec.encode", "repro.logmgr.manager", ("encode_window",)),
    ("logmgr.codec", "codec.decode", "repro.logmgr.codec", ("decode_payload",)),
    ("logmgr.filelog", "filelog.stage", "repro.logmgr.filelog:FileLogStore",
     ("stage_many",)),
    ("logmgr.filelog", "filelog.write", "repro.logmgr.filelog:FileLogStore",
     ("write_up_to",)),
    ("logmgr.filelog", "filelog.fsync", "repro.logmgr.filelog:FileLogStore", ("sync",)),
    ("logmgr.filelog", "filelog.seal", "repro.logmgr.filelog:FileLogStore",
     ("seal_segment", "write_page_index")),
    ("logmgr.filelog", "filelog.open", "repro.logmgr.filelog:FileLogStore",
     ("attach", "load_segment", "segment_stats")),
    ("logmgr.filelog", "filelog.read_chain", "repro.logmgr.filelog:FileLogStore",
     ("read_records_at",)),
    ("logmgr.pipeline", "pipeline.commit", "repro.logmgr.pipeline:GroupCommitPipeline",
     ("commit",)),
    ("logmgr.pageindex", "pageindex.build", "repro.logmgr.manager:LogManager",
     ("page_index",)),
    ("logmgr.pageindex", "pageindex.load", "repro.logmgr.filelog:FileLogStore",
     ("load_page_index", "build_page_index")),
    ("logmgr.pageindex", "pageindex.index", "repro.logmgr.manager",
     ("index_records", "encode_page_index")),
    ("logmgr.pageindex", "pageindex.fold", "repro.logmgr.pageindex:PageRedoIndex",
     ("add_segment",)),
    ("sim", "sim.audit", "repro.sim.audit:AuditTracker", ("audit",)),
    ("sim", "sim.sync", "repro.sim.audit:AuditTracker", ("sync",)),
    ("core", "core.conflict_append", "repro.core.conflict:ConflictGraph", ("append",)),
    ("core", "core.is_prefix", "repro.core.installation:InstallationGraph",
     ("is_prefix",)),
    ("core", "core.determined_state", "repro.core.installation:InstallationGraph",
     ("determined_state",)),
    ("core", "core.exposure", "repro.core.exposed:ExposureMemo",
     ("set_installed", "exposed_variables")),
    ("graphs", "graphs.dag", "repro.graphs.dag:Dag",
     ("add_node", "add_edge", "is_prefix")),
]

LAYER_OF = {span: layer for layer, span, _owner, _attrs in LAYER_TABLE}

# A request handled by the server starts at one of these on its thread.
REQUEST_ROOTS = ("shard.route", "engine.op", "engine.commit")

_DONE = object()


def _advance(iterator):
    return next(iterator, _DONE)


class SpanTracer:
    """A thread-local span stack; spans are recorded only while ``on``."""

    def __init__(self):
        self.on = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[tuple[str, list]] = []

    def _thread_state(self):
        state = ([], [])
        self._local.state = state
        with self._lock:
            self.threads.append((threading.current_thread().name, state[0]))
        return state

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` recorded around each call."""
        tracer, local, clock = self, self._local, time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = tracer._thread_state()
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def wrap_iter(self, name: str, fn):
        """``fn`` returns an iterator; each step it takes is one span (the
        consumer's work between steps is not the iterator's)."""
        step = self.wrap(name, _advance)

        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                item = step(iterator)
                if item is _DONE:
                    return
                yield item

        return traced

    def dump(self) -> list:
        """A JSON-ready copy of every thread's spans."""
        with self._lock:
            return [[name, list(spans)] for name, spans in self.threads]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def install(tracer: SpanTracer) -> None:
    """Wrap every callable of :data:`LAYER_TABLE` in place."""
    for _layer, span, owner_name, attrs in LAYER_TABLE:
        owner = _resolve(owner_name)
        for attr in attrs:
            wrap = tracer.wrap_iter if attr.startswith("*") else tracer.wrap
            attr = attr.lstrip("*")
            raw = vars(owner)[attr]  # KeyError: the table names a call that moved
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrap(span, raw.__func__))
            else:
                wrapped = wrap(span, raw)
            setattr(owner, attr, wrapped)


def self_times(spans, window=None) -> tuple[dict, dict]:
    """Summarise one thread's spans.

    Returns ``(by_name, roots)``: ``by_name[name] = [count, self_s,
    total_s]`` and ``roots[name] = [count, total_s]`` for spans with no
    parent.  With ``window=(t0, t1)`` only roots lying wholly inside the
    window, and their descendants, are counted.  A span still open when
    the list was copied (``end < start``) is dropped with its subtree.
    """
    keep = [False] * len(spans)
    covered = [0.0] * len(spans)
    for index, (_name, parent, start, end) in enumerate(spans):
        if end < start:
            continue
        if parent < 0:
            keep[index] = window is None or (window[0] <= start and end <= window[1])
        else:
            keep[index] = keep[parent]
        if keep[index] and parent >= 0:
            covered[parent] += end - start
    by_name: dict[str, list] = {}
    roots: dict[str, list] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        if not keep[index]:
            continue
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
        entry[2] += end - start
        if parent < 0:
            root = roots.setdefault(name, [0, 0.0])
            root[0] += 1
            root[1] += end - start
    return by_name, roots


def summarize(threads, window=None) -> dict:
    """Merge :func:`self_times` over ``threads`` (``[name, spans]`` pairs)."""
    by_name: dict[str, list] = {}
    roots: dict[str, list] = {}
    for _thread_name, spans in threads:
        names, thread_roots = self_times(spans, window)
        for name, (count, self_s, total_s) in names.items():
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += self_s
            entry[2] += total_s
        for name, (count, total_s) in thread_roots.items():
            root = roots.setdefault(name, [0, 0.0])
            root[0] += count
            root[1] += total_s
    return {"spans": by_name, "roots": roots}
