"""E18: durable log throughput — append rate, group commit, cold scan.

Three measurements over the file-backed log tier
(:mod:`repro.logmgr.codec` + :mod:`repro.logmgr.filelog`):

1. **append MB/s** — encode + stage + buffered write of a long record
   stream, with a single force at the end (the sequential-write ceiling
   of the wire format);
2. **commit throughput** — a force after every append (every record
   pays a real ``fsync``) versus a force after every 16th (the commit
   cadence an engine's ``commit_every=16`` gives: sixteen records share
   one ``fsync``).  The whole point of group commit is that commit
   latency is fsync-bound, so the batched configuration must clear
   **>= 5x** the per-record rate;
3. **recovery scan records/s** — a cold start
   (:meth:`~repro.logmgr.manager.LogManager.open`) followed by a full
   streaming decode of the stable log, the rate every §6 method's
   recovery scan is built on.

Results go to E18.txt and ``BENCH_durable_log.json``.  Set ``E18_OPS``
(append/scan stream length) and ``E18_COMMITS`` (fsync loop length) to
shrink the run for CI smoke.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.logmgr import LogManager, PageAction, PhysiologicalRedo

from benchmarks.conftest import RESULTS_DIR, emit, table

N_OPS = int(os.environ.get("E18_OPS", 20_000))
N_COMMITS = int(os.environ.get("E18_COMMITS", 400))
GROUP_SIZE = 16
SEGMENT_SIZE = 2048
REPEATS = 3
MIN_SPEEDUP = 5.0


def payload(i: int) -> PhysiologicalRedo:
    """A representative single-page record (put of a small int value)."""
    return PhysiologicalRedo(f"page{i % 64:03d}", PageAction("put", (f"k{i % 512}", i)))


def fresh_log(directory) -> LogManager:
    return LogManager.open(directory, segment_size=SEGMENT_SIZE)


def measure_append(directory) -> tuple[float, int]:
    """Seconds and bytes for N_OPS appends plus one force."""
    log = fresh_log(directory)
    start = time.perf_counter()
    for i in range(N_OPS):
        log.append(payload(i))
    log.flush()
    elapsed = time.perf_counter() - start
    bytes_written = log.store.bytes_written
    log.store.close()
    return elapsed, bytes_written


def measure_commits(directory, commit_every: int) -> tuple[float, int]:
    """Seconds and fsync count for N_COMMITS appends, forced after every
    ``commit_every``-th."""
    log = fresh_log(directory)
    start = time.perf_counter()
    for i in range(N_COMMITS):
        log.append(payload(i))
        if (i + 1) % commit_every == 0:
            log.flush()
    log.flush()  # drain the last partial batch
    elapsed = time.perf_counter() - start
    fsyncs = log.store.fsyncs
    log.store.close()
    return elapsed, fsyncs


def measure_scan(directory) -> tuple[float, int]:
    """Seconds for a cold start plus a full stable-log decode."""
    start = time.perf_counter()
    log = LogManager.open(directory, segment_size=SEGMENT_SIZE)
    scanned = sum(1 for _ in log.stable_records_from(0))
    elapsed = time.perf_counter() - start
    log.store.close()
    return elapsed, scanned


def test_e18_durable_log_throughput():
    # 1. Append throughput (and keep the best run's files for the scan).
    append_dirs = []
    append_best = None
    for _ in range(REPEATS):
        directory = tempfile.mkdtemp(prefix="e18-append-")
        append_dirs.append(directory)
        elapsed, nbytes = measure_append(directory)
        if append_best is None or elapsed < append_best[0]:
            append_best = (elapsed, nbytes, directory)
    append_s, append_bytes, scan_dir = append_best
    append_mb_s = append_bytes / append_s / 1e6

    # 3 (measured now, on the appended files). Cold-start scan rate.
    scan_best = None
    for _ in range(REPEATS):
        elapsed, scanned = measure_scan(scan_dir)
        if scan_best is None or elapsed < scan_best[0]:
            scan_best = (elapsed, scanned)
    scan_s, scanned = scan_best
    assert scanned == N_OPS
    scan_rate = scanned / scan_s
    for directory in append_dirs:
        shutil.rmtree(directory, ignore_errors=True)

    # 2. Commit throughput: a force per record vs one per GROUP_SIZE.
    def commit_best(commit_every):
        best = None
        for _ in range(REPEATS):
            directory = tempfile.mkdtemp(prefix="e18-commit-")
            try:
                result = measure_commits(directory, commit_every)
            finally:
                shutil.rmtree(directory, ignore_errors=True)
            if best is None or result[0] < best[0]:
                best = result
        return best

    per_record_s, per_record_fsyncs = commit_best(1)
    batched_s, batched_fsyncs = commit_best(GROUP_SIZE)
    per_record_rate = N_COMMITS / per_record_s
    batched_rate = N_COMMITS / batched_s
    speedup = batched_rate / per_record_rate

    rows = [
        [
            "append (stage+write)",
            f"{append_s * 1e3:.1f}",
            f"{append_mb_s:.1f} MB/s",
            f"{N_OPS / append_s:,.0f} rec/s",
        ],
        [
            "commit, fsync each",
            f"{per_record_s * 1e3:.1f}",
            f"{per_record_rate:,.0f} commits/s",
            f"{per_record_fsyncs} fsyncs",
        ],
        [
            f"commit, group of {GROUP_SIZE}",
            f"{batched_s * 1e3:.1f}",
            f"{batched_rate:,.0f} commits/s",
            f"{batched_fsyncs} fsyncs",
        ],
        [
            "cold-start scan",
            f"{scan_s * 1e3:.1f}",
            f"{scan_rate:,.0f} rec/s",
            f"{scanned} records",
        ],
    ]
    lines = table(rows, headers=["phase", "ms (best of 3)", "rate", "detail"])
    lines.append("")
    lines.append(
        f"group commit speedup: {speedup:.1f}x "
        f"({N_COMMITS} commits; floor {MIN_SPEEDUP:.0f}x) — "
        f"{per_record_fsyncs} fsyncs collapse to {batched_fsyncs}"
    )
    emit("E18", "durable log: append, group commit, cold scan", lines)

    RESULTS_DIR.mkdir(exist_ok=True)
    result = {
        "experiment": "E18",
        "n_operations": N_OPS,
        "n_commits": N_COMMITS,
        "group_size": GROUP_SIZE,
        "segment_size": SEGMENT_SIZE,
        "repeats": REPEATS,
        "append_seconds": append_s,
        "append_bytes": append_bytes,
        "append_mb_per_s": append_mb_s,
        "per_record_commit_seconds": per_record_s,
        "per_record_commits_per_s": per_record_rate,
        "per_record_fsyncs": per_record_fsyncs,
        "batched_commit_seconds": batched_s,
        "batched_commits_per_s": batched_rate,
        "batched_fsyncs": batched_fsyncs,
        "group_commit_speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "scan_seconds": scan_s,
        "scan_records": scanned,
        "scan_records_per_s": scan_rate,
    }
    (RESULTS_DIR / "BENCH_durable_log.json").write_text(json.dumps(result, indent=1))

    # The fsync arithmetic must match the design: one per commit when
    # unbatched; roughly one per GROUP_SIZE commits when batched (+1 for
    # the directory fsync and +1 for the final drain).
    assert per_record_fsyncs >= N_COMMITS
    assert batched_fsyncs <= N_COMMITS // GROUP_SIZE + 3
    assert speedup >= MIN_SPEEDUP, (
        f"group commit of {GROUP_SIZE} reached only {speedup:.1f}x the "
        f"per-record-fsync commit rate (floor {MIN_SPEEDUP:.0f}x)"
    )
