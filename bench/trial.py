"""One round of one workload, in a fresh process.

``run.py`` starts this with a JSON spec as its only argument and reads the
round's record from the file the spec names.  The process is fresh on
purpose: interpreter state (hash layout, allocator arenas, import order)
differs from process to process by a few percent of run time, and a
median over several fresh processes is steadier than one long run.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import workloads


def main() -> int:
    spec = json.loads(sys.argv[1])
    # The whole round — this process, a server, every thread and worker
    # they start — runs on one CPU.  Left to the scheduler, whether the two
    # ends of a connection (or a lazy restart's drainer and its first
    # request) share a CPU changes a latency several-fold from one round to
    # the next (README, "Noise").
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if spec.get("stage") == "restart_build":
        workloads.restart_build(spec)  # ends the process itself
    tracer = layers.SpanTracer()
    if spec["traced"]:
        layers.install(tracer)
    round_ = workloads.Round(spec, tracer)
    workloads.WORKLOADS[spec["workload"]](round_)
    with open(spec["result"], "w") as sink:
        json.dump(round_.record(), sink)
    return 0


if __name__ == "__main__":
    sys.exit(main())
