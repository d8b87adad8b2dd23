"""``run.py --selftest``: the benchmark checks its own arithmetic, then
every workload at a twentieth of its size with all oracles on."""

from __future__ import annotations

import json
import math
from pathlib import Path

import inputs
import layers
import ledger
import workloads

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_self_times() -> None:
    """Nested, sibling and cross-thread spans on synthetic data."""
    thread_a = [
        ["outer", -1, 0.0, 10.0],
        ["mid", 0, 2.0, 5.0],      # nested in outer
        ["inner", 1, 3.0, 4.0],    # nested in mid
        ["mid", 0, 6.0, 8.0],      # sibling of the first mid
        ["outer", -1, 20.0, 21.0],  # a second root
        ["open", -1, 30.0, 0.0],   # still open when dumped: dropped
        ["inner", 5, 31.0, 32.0],  # ... with its subtree
    ]
    thread_b = [["outer", -1, 1.0, 9.0], ["inner", 0, 1.5, 2.5]]  # overlaps thread a in time
    names, roots = layers.self_times(thread_a)
    check(names == {"outer": [2, 6.0, 11.0], "mid": [2, 4.0, 5.0], "inner": [1, 1.0, 1.0]},
          f"nested/sibling self times: {names}")
    check(roots == {"outer": [2, 11.0]}, f"roots: {roots}")
    both = layers.summarize([["a", thread_a], ["b", thread_b]])
    check(both["spans"]["outer"] == [3, 13.0, 19.0] and both["spans"]["inner"] == [2, 2.0, 2.0],
          f"cross-thread spans must not cover each other: {both['spans']}")
    self_total = sum(self_s for _n, self_s, _t in both["spans"].values())
    root_total = sum(total for _n, total in both["roots"].values())
    check(math.isclose(self_total, root_total), "self times must sum to the root durations")
    windowed, _ = layers.self_times(thread_a, window=(0.0, 15.0))
    check(windowed["outer"] == [1, 5.0, 10.0], f"window keeps whole trees only: {windowed}")

    tracer = layers.SpanTracer()
    outer = tracer.wrap("outer", lambda: inner() + inner())
    inner = tracer.wrap("inner", lambda: 1)
    steps = tracer.wrap_iter("step", lambda: iter(range(3)))
    check(outer() == 2 and not tracer.threads, "an idle tracer records nothing")
    tracer.on = True
    check(outer() == 2 and list(steps()) == [0, 1, 2], "wrapped calls keep their results")
    recorded = [(name, parent) for name, parent, _s, _e in tracer.dump()[0][1]]
    check(recorded == [("outer", -1), ("inner", 0), ("inner", 0)] + [("step", -1)] * 4,
          f"recorded spans: {recorded}")


def check_tail_rule() -> None:
    """p99 from 1 000 samples up; below that, ten samples beyond."""
    for n, rank in ((60, 49), (999, 988), (1000, 989), (11, 0), (5, 4)):
        check(ledger.tail_rank(n) == rank, f"tail_rank({n}) = {ledger.tail_rank(n)}, want {rank}")
    base = {"lat_ms": list(range(1, 21)), "setup_s": 1.0, "ops": 10, "log_bytes": 30,
            "user_bytes": 10, "rss_mb": 5.0}
    # Three rounds of the same work; one piece of each was interrupted.
    rounds = [dict(base, lanes_ms=[lane_a, [400.0, 500.0]]) for lane_a in
              ([900.0, 1000.0, 100.0], [1000.0, 5000.0, 100.0], [1000.0, 1000.0, 700.0])]
    values, tail = ledger.end_to_end(rounds)
    check(values["op_tail_ms"] == 17
          and tail == {"samples": 60, "percentile": 83.3, "per_round": False},
          f"60 pooled samples -> p83: {values['op_tail_ms']} {tail}")
    check(values["op_p50_ms"] == 10, f"pooled median: {values}")
    check(values["ops_per_s"] == 10 / 2.1, f"piecewise medians, slowest lane: {values}")
    # Big rounds keep their own percentiles; the run takes the middle round.
    big = [dict(base, lanes_ms=[[1.0]], lat_ms=[float(shift + i) for i in range(1000)])
           for shift in (0, 5000, 100)]
    values, tail = ledger.end_to_end(big)
    check(values["op_p50_ms"] == 599 and values["op_tail_ms"] == 1089 and tail["per_round"],
          f"per-round percentiles, median over rounds: {values} {tail}")


def check_torn_offset() -> None:
    rng = inputs.stream_rng(1, "selftest")
    offsets = {workloads.torn_offset(1000, 1040, rng) for _ in range(500)}
    check(min(offsets) > 1000 and max(offsets) < 1040 and len(offsets) > 20,
          f"torn offsets must lie strictly between the lengths: {sorted(offsets)}")
    try:
        workloads.torn_offset(1000, 1001, rng)
    except ValueError:
        return
    check(False, "torn_offset must refuse lengths with nothing between them")


def check_manifest() -> None:
    """``BENCHMARK.json`` and ``ledger.py`` name the same metrics."""
    manifest = json.loads(MANIFEST.read_text())
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]]
    check(declared == ledger.END_TO_END, f"end_to_end differs: {declared}")
    declared = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    check(declared == [entry[:3] for entry in ledger.PER_LAYER], "per_layer differs")
    check([w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS),
          "workloads differ")


def unit_checks() -> None:
    check_self_times()
    check_tail_rule()
    check_torn_offset()
    check_manifest()


def check_results(results: dict, sabotaged: dict) -> None:
    """Over the twentieth-size traced pass of every workload."""
    for name, result in results.items():
        check(result["correct"], f"{name}: {result['detail']['failures']}")
        values = {n: m["value"] for n, m in result["metrics"].items()}
        check(all(math.isfinite(v) for v in values.values()), f"{name}: non-finite metric")
        rec = result["detail"]["reconciliation"]
        check(
            math.isclose(sum(rec["layer_self_s"].values()) + rec["untraced_s"], rec["wall_s"],
                         rel_tol=1e-9),
            f"{name}: layer self times + untraced != wall",
        )
    check(sabotaged["failed"] > 0,
          "a restart log cut below its acknowledged length must fail the oracle")
