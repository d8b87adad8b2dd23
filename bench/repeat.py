"""The noise gate: can two sets of runs of the same code meet the bounds?

    python3 bench/repeat.py [--pairs 5] [--seed 14] [--workload W ...]

runs the benchmark ``2 x pairs`` times as two alternating sets A B A B ...
(pair *i* uses seed ``seed + i`` on both sides, so the sets see the same
inputs and the runs of one set do not).  For every workload and
end-to-end metric it prints both medians, the gap between them, the
spread of all runs (interquartile range over median, as the pipeline
takes it) and the bound from ``BENCHMARK.json``, and fails when a gap or a
spread exceeds the bound (``setup_s`` is held to its gap only).

It also fails when a count differs where it must not: within a pair,
``log_bytes_per_user_byte`` and the number of operations attempted; and,
between two traced passes of the same seed, every per-layer metric that is
a pure count on the single-threaded workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MANIFEST = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

SINGLE_THREADED = ("engine_ingest", "theory_audit")
# Per-layer metrics computed from the program's counters alone.
PURE_COUNTS = (
    "methods.replay_ratio", "cache.hit_ratio", "cache.evictions_per_op",
    "cache.flushes_per_op", "cache.elision_ratio", "storage.page_writes_per_op",
    "storage.bytes_written_per_user_byte", "logmgr.records_per_force",
    "codec.log_bytes_per_record", "filelog.fsyncs_per_commit", "filelog.bytes_per_fsync",
    "pageindex.sidecar_share", "pageindex.chain_frames_read", "graphs.edges_per_op",
)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["values"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=14)
    parser.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in MANIFEST["workloads"]])
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    problems: list[str] = []

    sets: dict = {name: {"A": [], "B": []} for name in names}
    for pair in range(args.pairs):
        for side in "AB":
            for name in names:
                sets[name][side].append(run(name, args.seed + pair, args.seconds, 0))
                print(f"pair {pair + 1}/{args.pairs} set {side} {name} done", file=sys.stderr)
    for name in names:
        for pair, (a, b) in enumerate(zip(sets[name]["A"], sets[name]["B"])):
            for what, x, y in (
                ("attempted", a["attempted"], b["attempted"]),
                ("log_bytes_per_user_byte", a["values"]["log_bytes_per_user_byte"],
                 b["values"]["log_bytes_per_user_byte"]),
            ):
                if x != y:
                    problems.append(f"{name} pair {pair + 1}: {what} {x} != {y}")
    for name in [n for n in names if n in SINGLE_THREADED]:
        first, second = (run(name, args.seed, args.seconds, 1)["values"] for _ in "AB")
        for metric in PURE_COUNTS:
            if first[metric] != second[metric]:
                problems.append(f"{name}: {metric} {first[metric]} != {second[metric]}")

    print(f"{'workload':17s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
          f"{'gap':>7s} {'spread':>7s} {'bound':>6s}")
    for name in names:
        for metric in MANIFEST["end_to_end"]:
            a = [r["values"][metric["name"]] for r in sets[name]["A"]]
            b = [r["values"][metric["name"]] for r in sets[name]["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            gap = abs(median_b - median_a) / median_a
            quartiles = statistics.quantiles(a + b, n=4)
            spread = (quartiles[2] - quartiles[0]) / statistics.median(a + b)
            held = [gap] if metric["name"] == "setup_s" else [gap, spread]
            verdict = "PASS" if max(held) <= metric["bound"] else "FAIL"
            if verdict == "FAIL":
                problems.append(f"{name} {metric['name']}: gap {gap:.1%} spread {spread:.1%}")
            print(f"{name:17s} {metric['name']:24s} {median_a:12.5g} {median_b:12.5g} "
                  f"{gap:7.2%} {spread:7.2%} {metric['bound']:6.2f} {verdict}")
    for problem in problems:
        print("FAIL", problem)
    print("repeat:", "FAIL" if problems else "PASS",
          f"({args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
