"""``repro top``: a polling terminal dashboard over the wire protocol.

Zero-dependency ``top`` for a live deployment: polls ``stats`` +
``health`` over one :class:`~repro.server.client.KVClient` connection
and renders per-shard liveness (stable LSN, volatile pipeline depth,
dirty pages), deployment throughput rates (ops/commits/fsyncs per
second, from deltas between polls), and the server's per-op latency
quantiles (p50/p95/p99 from the log-scale histograms).

Single-shot mode (``--once``) renders one snapshot without rates and
exits — the CI-friendly form, and the building block for scripts.
"""

from __future__ import annotations

import time
from typing import Any

_CLEAR = "\x1b[2J\x1b[H"


def _total(stats: dict[str, Any], suffix: str) -> int:
    """Sum a counter across shards: ``suffix`` + every ``shardNN_suffix``."""
    total = 0
    for key, value in stats.items():
        if key == suffix or key.endswith("_" + suffix):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total += value
    return int(total)


def _fmt_seconds(seconds: float) -> str:
    """A latency as a human unit (ns/µs/ms/s)."""
    if seconds <= 0:
        return "0"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.0f}ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def _rate(now: int, before: int | None, dt: float | None) -> str:
    if before is None or not dt or dt <= 0:
        return "-"
    return f"{(now - before) / dt:,.0f}/s"


def render_top(
    address: tuple[str, int],
    stats: dict[str, Any],
    health: dict[str, Any],
    prev_stats: dict[str, Any] | None = None,
    dt: float | None = None,
) -> str:
    """One dashboard frame, as a multi-line string."""
    host, port = address
    lines: list[str] = []
    lines.append(
        f"repro top — {host}:{port} — uptime {health.get('uptime_s', 0.0):.1f}s "
        f"— sessions {health.get('sessions_active', 0)} active / "
        f"{health.get('sessions_served', 0)} served"
    )

    ops = _total(stats, "method_operations")
    commits = _total(stats, "pipeline_commits")
    fsyncs = _total(stats, "durable_fsyncs")
    forces = _total(stats, "log_forces")
    prev = prev_stats or {}
    lines.append(
        f"throughput: ops={ops:,} ({_rate(ops, _total(prev, 'method_operations') if prev else None, dt)})"
        f"  commits={commits:,} ({_rate(commits, _total(prev, 'pipeline_commits') if prev else None, dt)})"
        f"  fsyncs={fsyncs:,} ({_rate(fsyncs, _total(prev, 'durable_fsyncs') if prev else None, dt)})"
        f"  log-forces={forces:,}"
    )

    shards = health.get("shards")
    if shards:
        lines.append("")
        lines.append(
            f"{'shard':>5}  {'stable_lsn':>10}  {'depth':>5}  "
            f"{'dirty':>5}  {'ops':>10}  {'recoveries':>10}  "
            f"{'backlog':>7}  {'state':<10}"
        )
        for index, shard in enumerate(shards):
            lines.append(
                f"{index:>5}  {shard.get('stable_lsn', -1):>10}  "
                f"{shard.get('pipeline_depth', 0):>5}  "
                f"{shard.get('dirty_pages', 0):>5}  "
                f"{shard.get('operations', 0):>10}  "
                f"{shard.get('recoveries', 0):>10}  "
                f"{shard.get('replay_backlog', 0):>7}  "
                f"{shard.get('state', 'ready'):<10}"
            )
        backlog_total = health.get("replay_backlog_total", 0)
        if backlog_total:
            lines.append(
                f"lazy restart: {backlog_total} pages awaiting replay "
                f"(deployment {health.get('state', 'recovering')})"
            )
    elif "stable_lsn" in health:
        lines.append(
            f"engine: stable_lsn={health['stable_lsn']} "
            f"depth={health.get('pipeline_depth', 0)} "
            f"dirty={health.get('dirty_pages', 0)} "
            f"method={health.get('method', '?')} "
            f"backlog={health.get('replay_backlog', 0)} "
            f"state={health.get('state', 'ready')}"
        )

    latency = stats.get("latency") or {}
    observed = {op: s for op, s in latency.items() if s.get("count")}
    if observed:
        lines.append("")
        lines.append(
            f"{'op':<10} {'count':>8} {'mean':>9} {'p50':>9} {'p95':>9} {'p99':>9}"
        )
        for op, summary in sorted(observed.items()):
            lines.append(
                f"{op:<10} {summary['count']:>8} "
                f"{_fmt_seconds(summary['mean']):>9} "
                f"{_fmt_seconds(summary['p50']):>9} "
                f"{_fmt_seconds(summary['p95']):>9} "
                f"{_fmt_seconds(summary['p99']):>9}"
            )
    else:
        lines.append("no request latency observed yet")
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval: float = 2.0,
    once: bool = False,
    iterations: int | None = None,
    out=None,
) -> int:
    """Poll and render until interrupted (or once / N iterations)."""
    import sys

    from repro.server.client import KVClient

    out = out if out is not None else sys.stdout
    with KVClient(host, port) as client:
        prev_stats: dict[str, Any] | None = None
        prev_at: float | None = None
        count = 0
        while True:
            stats = client.stats()
            health = client.health()
            now = time.monotonic()
            dt = (now - prev_at) if prev_at is not None else None
            frame = render_top(
                (host, port), stats, health, prev_stats=prev_stats, dt=dt
            )
            if once or iterations is not None:
                print(frame, file=out, flush=True)
            else:
                print(_CLEAR + frame, file=out, flush=True)
            count += 1
            if once or (iterations is not None and count >= iterations):
                return 0
            prev_stats, prev_at = stats, now
            time.sleep(interval)
