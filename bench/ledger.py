"""Metric definitions: the six end-to-end metrics and the per-layer ledger.

Every name, unit and direction in ``BENCHMARK.json`` is defined here, and
``run.py --selftest`` checks the two agree.

Per-layer sources (``bench/README.md`` has the full table):

- **C** — a delta of the program's public counters over the timed phase
  of an *untraced* round (``db.metrics.snapshot()``, wire ``stats``).
  Exact and repeatable for the single-threaded workloads.
- **T** — span time from the *traced* round (``bench/layers.py``): self
  time for ``*_us_per_*`` and ``*_self_*`` metrics, inclusive time for
  the ``*_ms`` phases and the two ``*wait*`` metrics, divided by a count
  taken from the same traced round.

A metric whose layer does no work on a workload reads 0 there.
"""

from __future__ import annotations

import math
import statistics

from layers import LAYER_OF, REQUEST_ROOTS

METHODS = ("physiological", "physical", "logical", "generalized")

# name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("log_bytes_per_user_byte", "ratio", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.05),
]


def quantile(ordered: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_rank(n: int) -> int:
    """Index (ascending, 0-based) of the ``op_tail_ms`` sample: p99 when
    there are at least 1 000 samples, otherwise the highest sample with at
    least ten beyond it (the maximum when there are fewer than eleven)."""
    if n >= 1000:
        return math.ceil(0.99 * n) - 1
    return n - 11 if n >= 11 else n - 1


def robust_time_s(rounds: list[dict]) -> float:
    """The timed wall of one round, freed of the host's interruptions.

    Every round does identical work, so piece *j* of a lane (a chunk of
    operations, or one whole recovery) is the same work in each of them
    and differs only by what else the host was doing.  Each piece counts
    with its median over the rounds; a lane is the sum of its pieces, and
    concurrent lanes (one per client) end when the slowest does.
    """
    lanes = zip(*(r["lanes_ms"] for r in rounds))
    return max(
        sum(statistics.median(piece) for piece in zip(*lane, strict=True))
        for lane in lanes
    ) / 1e3


def latency_ms(rounds: list[dict]) -> tuple[float, float, dict]:
    """``op_p50_ms`` and ``op_tail_ms``, and how the tail was taken.

    A round with at least 1 000 samples has its own median and p99, and
    the run reports the median of those over its rounds, so one
    interrupted round cannot move either.  Smaller rounds (``restart``)
    are pooled, and the tail is the highest sample with ten beyond it.
    """
    if all(len(r["lat_ms"]) >= 1000 for r in rounds):
        per_round = [sorted(r["lat_ms"]) for r in rounds]
        how = {"samples": len(per_round[0]), "percentile": 99.0, "per_round": True}
    else:
        per_round = [sorted(ms for r in rounds for ms in r["lat_ms"])]
        rank = tail_rank(len(per_round[0]))
        how = {
            "samples": len(per_round[0]),
            "percentile": round(100.0 * (rank + 1) / len(per_round[0]), 1),
            "per_round": False,
        }
    p50 = statistics.median(quantile(ordered, 0.5) for ordered in per_round)
    tail = statistics.median(ordered[tail_rank(len(ordered))] for ordered in per_round)
    return p50, tail, how


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """The six metrics over a run's rounds, plus how the tail was taken."""
    p50, tail, how = latency_ms(rounds)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "ops_per_s": rounds[0]["ops"] / robust_time_s(rounds),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "log_bytes_per_user_byte": (
            sum(r["log_bytes"] for r in rounds) / sum(r["user_bytes"] for r in rounds)
        ),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    return values, how


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _Round:
    """What the formulas read: ``fact`` is an exact counter of the
    untraced round; span times and their divisors (``count``, ``tfact``)
    come from the traced round."""

    def __init__(self, plain: dict, traced: dict):
        self.plain, self.traced = plain, traced
        self.spans = traced["trace"]["spans"]
        self.roots = traced["trace"]["roots"]

    def fact(self, name: str) -> float:
        return self.plain["facts"].get(name, 0)

    def tfact(self, name: str) -> float:
        return self.traced["facts"].get(name, 0)

    def count(self, span: str) -> int:
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def self_us(self, *spans: str) -> float:
        return 1e6 * sum(self.spans.get(s, (0, 0.0, 0.0))[1] for s in spans)

    def total_us(self, span: str) -> float:
        return 1e6 * self.spans.get(span, (0, 0.0, 0.0))[2]

    def request_root_us(self) -> float:
        return 1e6 * sum(self.roots.get(s, (0, 0.0))[1] for s in REQUEST_ROOTS)


def _method_rate(suffix: str):
    return [
        (f"methods.{m}.{suffix}", "1/s", "higher", lambda r, n=f"methods.{m}.{suffix}": r.fact(n))
        for m in METHODS
    ]


# name, unit, better, formula.
PER_LAYER = [
    ("server.self_us_per_req", "us", "lower",
     lambda r: _per(1e6 * r.tfact("rtt_s") - r.request_root_us(), r.tfact("requests"))
     if r.tfact("rtt_s") else 0.0),
    ("server.requests", "count", "higher", lambda r: r.fact("requests")),
    ("server.put_p99_ms", "ms", "lower", lambda r: r.fact("server_put_p99_ms")),
    ("server.get_p50_ms", "ms", "lower", lambda r: r.fact("server_get_p50_ms")),
    ("shard.route_us_per_req", "us", "lower",
     lambda r: _per(r.self_us("shard.route"), r.tfact("requests"))),
    ("engine.self_us_per_op", "us", "lower",
     lambda r: _per(r.self_us("engine.op"), r.count("engine.op"))),
    ("engine.commit_wait_us_per_commit", "us", "lower",
     lambda r: _per(r.total_us("engine.commit"), r.count("engine.commit"))),
    ("engine.checkpoint_ms", "ms", "lower",
     lambda r: _per(r.total_us("engine.checkpoint") / 1e3, r.count("engine.checkpoint"))),
    ("methods.apply_self_us_per_op", "us", "lower",
     lambda r: _per(r.self_us("methods.apply"), r.count("methods.apply"))),
    ("methods.recover_self_ms", "ms", "lower",
     lambda r: _per(r.self_us("methods.recover") / 1e3, r.count("methods.recover"))),
    ("methods.analysis_ms", "ms", "lower",
     lambda r: _per(r.total_us("methods.analysis") / 1e3, r.count("methods.analysis"))),
    ("methods.replay_ratio", "ratio", "lower",
     lambda r: _per(r.fact("method_records_replayed"), r.fact("method_records_scanned"))),
    *_method_rate("ingest_ops_per_s"),
    *_method_rate("eager_records_per_s"),
    *[
        (f"methods.{m}.lazy_ttfr_ms", "ms", "lower",
         lambda r, n=f"methods.{m}.lazy_ttfr_ms": r.fact(n))
        for m in METHODS
    ],
    *_method_rate("lazy_drain_records_per_s"),
    *_method_rate("audits_per_s"),
    ("cache.hit_ratio", "ratio", "higher",
     lambda r: _per(r.fact("cache_hits"), r.fact("cache_hits") + r.fact("cache_misses"))),
    ("cache.evictions_per_op", "ratio", "lower",
     lambda r: _per(r.fact("cache_evictions"), r.fact("ops"))),
    ("cache.flushes_per_op", "ratio", "lower",
     lambda r: _per(r.fact("cache_flushes"), r.fact("ops"))),
    ("cache.elision_ratio", "ratio", "higher",
     lambda r: _per(r.fact("scheduler_elisions"),
                    r.fact("scheduler_elisions") + r.fact("scheduler_installs"))),
    ("cache.self_us_per_op", "us", "lower",
     lambda r: _per(r.self_us("cache.pool", "cache.scheduler"), r.tfact("ops"))),
    ("storage.page_writes_per_op", "ratio", "lower",
     lambda r: _per(r.fact("disk_page_writes"), r.fact("ops"))),
    ("storage.bytes_written_per_user_byte", "ratio", "lower",
     lambda r: _per(r.fact("disk_bytes_written"), r.fact("user_bytes"))),
    ("storage.self_us_per_op", "us", "lower",
     lambda r: _per(r.self_us("storage.read", "storage.write"), r.tfact("ops"))),
    ("logmgr.append_us_per_record", "us", "lower",
     lambda r: _per(r.self_us("logmgr.append"), r.count("logmgr.append"))),
    ("logmgr.flush_self_us_per_force", "us", "lower",
     lambda r: _per(r.self_us("logmgr.flush"), r.tfact("log_forces"))),
    ("logmgr.records_per_force", "ratio", "higher",
     lambda r: _per(r.fact("log_records"), r.fact("log_forces"))),
    ("logmgr.ensure_stable_us_per_flush", "us", "lower",
     lambda r: _per(r.self_us("logmgr.ensure_stable"), r.count("logmgr.ensure_stable"))),
    ("logmgr.open_ms", "ms", "lower",
     lambda r: _per(r.total_us("logmgr.open") / 1e3, r.count("logmgr.open"))),
    ("logmgr.scan_us_per_record", "us", "lower",
     lambda r: _per(r.self_us("logmgr.scan"), r.count("logmgr.scan"))),
    ("logmgr.fetch_chain_us_per_record", "us", "lower",
     lambda r: _per(r.self_us("logmgr.fetch_chain"), r.tfact("chain_frames_timed"))),
    ("codec.encode_us_per_record", "us", "lower",
     lambda r: _per(r.self_us("codec.encode"), r.tfact("durable_records_written"))),
    ("codec.decode_us_per_record", "us", "lower",
     lambda r: _per(r.self_us("codec.decode"), r.count("codec.decode"))),
    ("codec.log_bytes_per_record", "B", "lower",
     lambda r: _per(r.fact("log_bytes"), r.fact("log_records"))),
    ("filelog.write_us_per_force", "us", "lower",
     lambda r: _per(r.self_us("filelog.stage", "filelog.write"), r.count("filelog.write"))),
    ("filelog.fsync_us_per_fsync", "us", "lower",
     lambda r: _per(r.self_us("filelog.fsync"), r.tfact("durable_fsyncs"))),
    ("filelog.fsyncs_per_commit", "ratio", "lower",
     lambda r: _per(r.fact("durable_fsyncs"), r.fact("commits"))),
    ("filelog.bytes_per_fsync", "B", "higher",
     lambda r: _per(r.fact("durable_bytes_written"), r.fact("durable_fsyncs"))),
    ("filelog.seal_ms_per_segment", "ms", "lower",
     lambda r: _per(r.total_us("filelog.seal") / 1e3, r.tfact("durable_seals_written"))),
    ("pipeline.commits_per_window", "ratio", "higher",
     lambda r: _per(r.fact("pipeline_coalesced_total"), r.fact("pipeline_windows"))),
    ("pipeline.wait_us_per_commit", "us", "lower",
     lambda r: _per(r.self_us("pipeline.commit"), r.count("pipeline.commit"))),
    ("pipeline.fast_path_share", "ratio", "higher",
     lambda r: _per(r.fact("pipeline_fast_path"), r.fact("pipeline_commits"))),
    ("pageindex.build_ms", "ms", "lower",
     lambda r: _per(r.total_us("pageindex.build") / 1e3, r.count("pageindex.build"))),
    ("pageindex.sidecar_share", "ratio", "higher",
     lambda r: _per(r.fact("pageindex_sidecars_used"), r.fact("pageindex_segments_indexed"))),
    ("pageindex.chain_frames_read", "count", "lower",
     lambda r: r.fact("durable_chain_frames_read")),
    ("sim.audit_self_us_per_instant", "us", "lower",
     lambda r: _per(r.self_us("sim.audit"), r.count("sim.audit"))),
    ("sim.sync_us_per_instant", "us", "lower",
     lambda r: _per(r.self_us("sim.sync"), r.count("sim.audit"))),
    ("core.conflict_append_us_per_op", "us", "lower",
     lambda r: _per(r.self_us("core.conflict_append"), r.count("core.conflict_append"))),
    ("core.is_prefix_us_per_instant", "us", "lower",
     lambda r: _per(r.self_us("core.is_prefix"), r.count("sim.audit"))),
    ("core.determined_state_us_per_instant", "us", "lower",
     lambda r: _per(r.self_us("core.determined_state"), r.count("sim.audit"))),
    ("core.exposure_us_per_instant", "us", "lower",
     lambda r: _per(r.self_us("core.exposure"), r.count("sim.audit"))),
    ("graphs.edges_per_op", "ratio", "lower",
     lambda r: _per(r.fact("graph_edges"), r.fact("ops"))),
    ("trace.untraced_share", "ratio", "lower",
     lambda r: r.traced["trace"]["untraced_share"]),
    ("trace.overhead_share", "ratio", "lower",
     lambda r: 1.0 - _per(r.traced["ops"] / r.traced["ops_time_s"],
                          r.plain["ops"] / r.plain["ops_time_s"])),
]


def per_layer(plain: dict, traced: dict) -> dict:
    """Every per-layer metric from one untraced and one traced round of
    the same size."""
    context = _Round(plain, traced)
    return {name: float(formula(context)) for name, _unit, _better, formula in PER_LAYER}


def layer_self_s(spans: dict) -> dict:
    """Self time per layer (seconds) from a ``summarize`` span table."""
    totals: dict[str, float] = {}
    for span, (_count, self_s, _total_s) in spans.items():
        layer = LAYER_OF[span]
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals
