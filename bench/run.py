"""The benchmark of record.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the six
end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  Without ``--workload`` all five run, their rounds
interleaved.  ``--selftest`` checks the benchmark's own arithmetic and
runs every workload at a twentieth of its size.  ``README.md`` has the
metric tables, the reason for each workload and the noise study.

A run is a number of rounds per workload, in proportion to ``--seconds``
(``workloads.ROUNDS_PER_10S``), each a fresh child process doing a fixed
number of operations, so counts repeat exactly and timing metrics are
medians over rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_work"  # inside the checkout, git-ignored
DEFAULT_SEED = 14
TRACED_SCALE = 0.5
SELFTEST_SCALE = 0.05
ROUND_TIMEOUT_S = 150

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: the program under test is missing: no {ROOT / 'src' / 'repro'}")

import ledger  # noqa: E402 — after the check above, which must not import anything
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Fixes the iteration order of string sets, so operation counters are
    # the same in every process; it does not tighten the timings.
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts rounds, each in its own session so that a round that hangs
    or dies takes its server and workers with it."""

    def __init__(self, seed: int, keep_spans: bool = False):
        self.seed = seed
        self.keep_spans = keep_spans
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
        self.count = 0
        self.child: subprocess.Popen | None = None

    def round(self, workload: str, scale: float, traced: bool, **extra) -> dict:
        self.count += 1
        work = self.work / f"round-{self.count}"
        work.mkdir()
        spec = {
            "workload": workload, "seed": self.seed, "scale": scale, "traced": traced,
            "keep_spans": self.keep_spans, "work": str(work),
            "result": str(work / "result.json"), "spawn_ts": time.perf_counter(), **extra,
        }
        self.child = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "trial.py"), json.dumps(spec)],
            env=child_env(), start_new_session=True, stdout=sys.stderr,
        )
        try:
            code = self.child.wait(timeout=ROUND_TIMEOUT_S)
        finally:
            self.stop_child(force=self.child.poll() != 0)
        if code != 0:
            raise RuntimeError(f"{workload}: round exited with {code}")
        record = json.loads((work / "result.json").read_text())
        shutil.rmtree(work)
        return record

    def stop_child(self, force: bool = True) -> None:
        child, self.child = self.child, None
        if child is None:
            return
        if force:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        child.wait()

    def close(self) -> None:
        self.stop_child()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass


def provenance(args, rounds: dict, scale: float) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = found.stdout.strip() or sha
    return {
        "git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "rounds": rounds, "scale": scale,
        "sizes": workloads.SIZES, "selftest": bool(args.selftest),
    }


def untraced_result(workload: str, rounds: list[dict]) -> dict:
    values, tail = ledger.end_to_end(rounds)
    units = {name: unit for name, unit, _better, _bound in ledger.END_TO_END}
    return finish_result(workload, rounds, values, units, {
        "op_tail": tail,
        "per_round": {
            "ops_per_s": [r["ops"] / r["ops_time_s"] for r in rounds],
            "setup_s": [r["setup_s"] for r in rounds],
            "timed_s": [r["timed_s"] for r in rounds],
        },
    })


def traced_result(workload: str, plain: dict, traced: dict) -> dict:
    values = ledger.per_layer(plain, traced)
    units = {name: unit for name, unit, _better, _formula in ledger.PER_LAYER}
    trace = traced["trace"]
    return finish_result(workload, [plain, traced], values, units, {
        "reconciliation": {
            "wall_s": trace["wall_s"], "untraced_s": trace["untraced_s"],
            "layer_self_s": trace["layer_self_s"],
        },
        "spans": trace["spans"],
        "threads": trace["threads"],
    })


def finish_result(workload, rounds, values, units, detail) -> dict:
    failed = sum(r["failed"] for r in rounds)
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
        "detail": dict(
            detail,
            failures=[f for r in rounds for f in r["failures"]][:10],
            inputs_sha256=sorted({r["inputs_sha256"] for r in rounds}),
            ops_per_round=[r["ops"] for r in rounds],
        ),
    }


def report(result: dict, label: str) -> None:
    """Every metric by name with its unit, for a reader."""
    detail = result["detail"]
    print(f"== {result['workload']} {label}")
    print(f"   inputs sha256 {' '.join(detail['inputs_sha256'])}  ops/round {detail['ops_per_round']}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            tail = detail["op_tail"]
            scope = "each round, median over rounds" if tail["per_round"] else "all rounds pooled"
            note = f"  (p{tail['percentile']} of {tail['samples']} samples, {scope})"
        elif name in detail.get("per_round", {}):
            note = "  (rounds: " + " ".join(f"{v:.6g}" for v in detail["per_round"][name]) + ")"
        print(f"   {name:40s} {metric['value']:>14.6g} {metric['unit']}{note}")
    if "reconciliation" in detail:
        rec = detail["reconciliation"]
        layers_s = sum(rec["layer_self_s"].values())
        print(f"   wall {rec['wall_s']:.6f}s = layers {layers_s:.6f}s + untraced {rec['untraced_s']:.6f}s")
        for layer, self_s in sorted(rec["layer_self_s"].items(), key=lambda kv: -kv[1]):
            print(f"      {layer:20s} {self_s:10.6f}s {self_s / rec['wall_s']:7.1%}")
    print(f"   attempted {result['attempted']}  failed {result['failed']}")
    for failure in detail["failures"]:
        print(f"   FAILED {failure}")


def contract(result: dict) -> dict:
    """The result object the pipeline reads."""
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def measure(runner: Runner, names: list[str], rounds: dict, scale: float, trace: bool) -> dict:
    """Results by workload.  Untraced: ``rounds[name]`` rounds each, pass
    *r* running the workloads rotated by *r* so none always runs first.
    Traced: one untraced and one traced round, both at ``scale``."""
    if trace:
        return {
            name: traced_result(
                name, runner.round(name, scale, False), runner.round(name, scale, True)
            )
            for name in names
        }
    records: dict[str, list] = {name: [] for name in names}
    for r in range(max(rounds[name] for name in names)):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            if r < rounds[name]:
                records[name].append(runner.round(name, scale, False))
    return {name: untraced_result(name, records[name]) for name in names}


def write_out(out: Path, meta: dict, results: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, result in results.items():
        threads = result["detail"].pop("threads", None)
        if threads is not None:
            (out / f"spans-{name}.json").write_text(json.dumps(threads))
    (out / "result.json").write_text(json.dumps({"provenance": meta, "results": results}, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10,
                        help="run length: the number of rounds is in proportion")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass and the per-layer ledger")
    parser.add_argument("--out", type=Path,
                        help="also write result.json (and spans) to this directory")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else WORKLOADS
    rounds = {
        name: max(3, round(workloads.ROUNDS_PER_10S[name] * args.seconds / 10))
        for name in names
    }
    scale, label = (TRACED_SCALE, "traced pass, half size") if args.trace else (1.0, "")
    if args.selftest:
        import selftest

        selftest.unit_checks()
        scale, label = SELFTEST_SCALE, "SELFTEST (not a measurement)"
    if args.trace or args.selftest:
        rounds = {name: 2 for name in names}  # one untraced, one traced
    meta = provenance(args, rounds, scale)
    print("bench: " + json.dumps({k: v for k, v in meta.items() if k != "sizes"}))

    runner = Runner(args.seed, keep_spans=bool(args.out and args.trace))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        results = measure(runner, names, rounds, scale, bool(args.trace or args.selftest))
        if args.selftest:
            sabotaged = runner.round("restart", scale, False, tear_below_acked=True)
    finally:
        runner.close()
    for result in results.values():
        report(result, label)
    if args.out:
        write_out(args.out, meta, results)
    if args.selftest:
        selftest.check_results(results, sabotaged)
        print("selftest ok")
    elif args.workload:
        print(json.dumps(contract(results[args.workload])))
    else:
        print(json.dumps({name: contract(r) for name, r in results.items()}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
