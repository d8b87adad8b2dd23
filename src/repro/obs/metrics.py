"""The metrics registry: one namespaced read path for every counter.

The system's operational counters live where the work happens —
``MethodStats`` on each recovery method, ``SchedulerStats`` on the
install scheduler, loose attributes on the log manager, disk, and
buffer pool.  The :class:`MetricsRegistry` reads them all through one
path instead of merging dicts with ``update()`` (the historical
``report()`` collision hazard):

- **collectors** adopt the per-component stats objects without
  rewriting them: a collector is a namespace plus a callable returning
  a plain mapping, and its keys are published as ``namespace.key``
  (``method.records_replayed``, ``scheduler.elisions``, ``log.forces``);
- :meth:`MetricsRegistry.merge` folds a child registry in under a
  prefix, read live (one per shard in a deployment);
- :class:`Histogram` instruments are owned by the registry and named
  with dotted namespaces (``server.latency.put``);
- :meth:`MetricsRegistry.snapshot` materializes everything into one
  dict and **raises on any name collision** instead of silently
  overwriting.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Mapping

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
_NAMESPACE_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class MetricsError(ValueError):
    """A metrics-naming violation: bad name, taken namespace, or collision."""


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise MetricsError(
            f"metric name {name!r} must be dotted lowercase "
            f"(namespace.key, e.g. 'method.records_replayed')"
        )
    return name


class Histogram:
    """A quantile-capable distribution on fixed log-scale buckets.

    Exact moments (count / total / min / max) plus a fixed array of
    geometrically spaced buckets so :meth:`quantile` can answer p50 /
    p95 / p99 without retaining observations.  The bucket layout is
    compile-time fixed — no tuning, no allocation per observation:

    - bucket ``i`` covers ``[LOW * GROWTH**i, LOW * GROWTH**(i+1))``
      with ``LOW = 2**-24`` (~6e-8) and ``GROWTH = 2**(1/4)`` (four
      buckets per octave, ~19% relative width — quantile error is
      bounded by one bucket's width);
    - values below ``LOW`` (including 0) land in an underflow bucket
      read back as ``LOW``; values past the top land in an overflow
      bucket read back as the top boundary.  The range covers ~1e-7 to
      ~2e3, i.e. 100 ns to half an hour when observations are seconds —
      every latency this system can produce.

    The bucket index is integer arithmetic on ``math.frexp`` (no
    ``log`` call): ``frexp`` gives the power of two, and one comparison
    ladder against precomputed sub-octave boundaries picks the quarter.

    A snapshot publishes ``<name>.count``, ``.total``, ``.min``,
    ``.max``, ``.mean``, ``.p50``, ``.p95``, ``.p99``.  All-zero when
    empty — an empty histogram has an explicit empty summary, it never
    divides by its zero count.
    """

    # Four buckets per octave over 2**-24 .. 2**11 gives 140 buckets +
    # under/overflow.  frexp(LOW) == (0.8388608, -23).
    _GROWTH = 2.0 ** 0.25
    _LOW_EXP = -23  # frexp exponent of the lowest boundary's octave
    _OCTAVES = 35
    _N_BUCKETS = _OCTAVES * 4
    _LOW = 2.0 ** (_LOW_EXP - 1)  # ~5.96e-8, the underflow boundary
    # Sub-octave boundaries for the comparison ladder: a mantissa m in
    # [0.5, 1) falls in quarter q iff m >= 0.5 * GROWTH**q.
    _QUARTERS = (0.5 * 2.0 ** 0.25, 0.5 * 2.0 ** 0.5, 0.5 * 2.0 ** 0.75)

    __slots__ = ("name", "count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Any = None
        self.max: Any = None
        self._buckets = [0] * (self._N_BUCKETS + 2)  # + underflow, overflow
        self._lock = threading.Lock()

    def _bucket_of(self, value: float) -> int:
        """The bucket index for ``value`` (0 = underflow, last = overflow)."""
        if value < self._LOW:
            return 0
        mantissa, exponent = math.frexp(value)
        octave = exponent - self._LOW_EXP
        if octave < 0:
            return 0
        quarters = self._QUARTERS
        quarter = (
            3 if mantissa >= quarters[2]
            else 2 if mantissa >= quarters[1]
            else 1 if mantissa >= quarters[0]
            else 0
        )
        index = octave * 4 + quarter + 1
        if index > self._N_BUCKETS:
            return self._N_BUCKETS + 1
        return index

    @classmethod
    def bucket_bound(cls, index: int) -> float:
        """The upper boundary of bucket ``index`` (what quantile reads
        back: the conservative edge, never an undershoot)."""
        if index <= 0:
            return cls._LOW
        capped = min(index, cls._N_BUCKETS)
        return cls._LOW * (cls._GROWTH ** capped)

    def observe(self, value) -> None:
        """Record one observation (atomic: moments and bucket move
        together, so a concurrent snapshot never sees a half-applied
        observation)."""
        bucket = self._bucket_of(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self._buckets[bucket] += 1

    def mean(self) -> float:
        """The mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), read off the buckets.

        Returns the upper boundary of the bucket holding the q-th
        observation — within one bucket width (~19%) of the true value,
        clamped to the observed min/max so p0/p100 are exact.  0.0 when
        empty.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q!r} out of [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            if q <= 0.0:
                return self.min
            if q >= 1.0:
                return self.max
            # Nearest-rank: the bucket holding the ceil(q*count)-th
            # observation, read back as its upper boundary (a latency
            # quantile should overshoot, never undershoot).
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for index, n in enumerate(self._buckets):
                seen += n
                if n and seen >= rank:
                    bound = self.bucket_bound(index)
                    return max(self.min, min(self.max, bound))
            return self.max  # unreachable; belt and braces

    def summary(self) -> dict[str, Any]:
        """The summary values keyed by suffix — explicitly all-zero for
        an empty histogram (the zero count is never a divisor)."""
        if self.count == 0:
            return {
                "count": 0, "total": 0, "min": 0, "max": 0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r} n={self.count} mean={self.mean():.3g})"


class MetricsRegistry:
    """Histograms and adopted stats — one namespace.

    Histograms are created on first request (``histogram(name)`` is
    get-or-create).  Collectors adopt external stats objects; their keys
    surface as ``namespace.key`` in every snapshot.
    """

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._collectors: dict[str, Callable[[], Mapping[str, Any]]] = {}

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[_check_name(name)] = Histogram(name)
        return histogram

    # -- collectors ----------------------------------------------------

    def register_collector(
        self, namespace: str, collect: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Adopt an external stats source under ``namespace``.

        ``collect`` is called at snapshot time and must return a plain
        mapping; each key ``k`` is published as ``namespace.k``.  This
        is how the registry absorbs the pre-existing ``MethodStats``,
        ``SchedulerStats``, and log/disk/pool counters without moving
        them.
        """
        if not _NAMESPACE_RE.match(namespace):
            raise MetricsError(f"bad collector namespace {namespace!r}")
        if namespace in self._collectors:
            raise MetricsError(f"collector namespace {namespace!r} already taken")
        self._collectors[namespace] = collect

    def merge(self, prefix: str, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry under ``prefix``.

        Late-bound, not a copy: ``other.snapshot`` is adopted as a
        collector, so every future snapshot of this registry re-reads
        the child registry live and publishes its dotted names as
        ``prefix.<name>``.  This is how a deployment folds N per-shard
        registries into one report — each shard keeps its own registry
        (same code path as a standalone engine) and the router pays one
        ``merge("shard00", ...)`` per shard.  Namespacing makes cross-
        shard collisions impossible by construction; a duplicate
        ``prefix`` raises, same as any collector namespace.
        """
        if other is self:
            raise MetricsError("cannot merge a registry into itself")
        self.register_collector(prefix, other.snapshot)

    # -- reads ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Every metric, one dict, dotted names; raises on collisions."""
        out: dict[str, Any] = {}

        def put(key: str, value: Any) -> None:
            if key in out:
                raise MetricsError(f"metric name collision on {key!r}")
            out[key] = value

        for name, histogram in self._histograms.items():
            for suffix, value in histogram.summary().items():
                put(f"{name}.{suffix}", value)
        for namespace, collect in self._collectors.items():
            for key, value in collect().items():
                put(f"{namespace}.{key}", value)
        return out

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(histograms={len(self._histograms)}, "
            f"collectors={sorted(self._collectors)})"
        )
