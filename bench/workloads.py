"""The five workloads.  Each function runs one *round* — set-up, warm-up,
a timed phase of a fixed op count, then the correctness oracle — inside
the fresh child process ``trial.py`` starts, and returns the round's
record.  ``README.md`` says why each workload exists and what regime it
holds.

Op counts are fixed (``SIZES``) and only ever scaled as a whole (the
traced pass runs at half size, the self-test at a twentieth), so two
sides of a comparison do identical work and operation counters repeat
exactly.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import layers
import ledger

BENCH_DIR = Path(__file__).resolve().parent
METHODS = ledger.METHODS
WARMUP_SHARE = 0.05
CHUNK_OPS = 50

# Rounds per ten ``--seconds``.  ``engine_ingest`` takes more, shorter
# rounds: it is the workload whose run time differs most from one process
# to the next (README, "Noise"), and a median over nine is what brings it
# level with the others.
ROUNDS_PER_10S = {
    "wire_commit": 3, "wire_read_mostly": 3, "engine_ingest": 9,
    "restart": 3, "theory_audit": 3,
}

# Per-round op counts at scale 1.0.
SIZES = {
    "wire_commit": {"clients": 2, "puts_per_client": 1500, "keys_per_client": 1000},
    "wire_read_mostly": {
        "clients": 2, "requests_per_client": 8000, "keys": 8192,
        "n_pages": 256, "cache_capacity": 64,
    },
    "engine_ingest": {"ops": 8000, "keys": 2000, "commit_every": 32, "checkpoint_every": 2000},
    "restart": {
        "acked": 6000, "extra": 40, "keys": 2000, "n_pages": 256, "cache_capacity": 64,
        # Lazy restarts abandoned after the first request, per method.  The
        # counts are unequal on purpose.  Time to first request has one mode
        # per redo driver (page-wise ~10 ms, logical's suffix ~50 ms,
        # generalized's one big component ~250 ms).  Pooled with the one
        # lazy-drained restart, the two page-wise methods hold 42 of a
        # round's 50 samples, so over three rounds the pooled median is the
        # 60th percentile of their mode and the tail (ten samples beyond
        # it) the 5th of generalized's 15 — neither sits on the gap between
        # two modes, where one sample more or less would move it 5x.
        "lazy_abandoned": {"physiological": 20, "physical": 20, "logical": 2, "generalized": 4},
    },
    "theory_audit": {
        "commands": 500, "keys": 64, "n_pages": 16, "cache_capacity": 8,
        "commit_every": 2, "checkpoint_every": 50,
    },
}


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(count * scale))


class Stopwatch:
    """Attributes every interval of the round to set-up, the timed phase
    or the checks.  Starts at the parent's spawn timestamp, so set-up
    includes the child's own start-up and imports."""

    def __init__(self, start: float):
        self.last = start
        self.totals = {"setup": 0.0, "timed": 0.0, "check": 0.0}

    def lap(self, kind: str) -> float:
        now = time.perf_counter()
        elapsed = now - self.last
        self.totals[kind] += elapsed
        self.last = now
        return elapsed


class Round:
    """One round's record, filled in by a workload function."""

    def __init__(self, spec: dict, tracer: layers.SpanTracer):
        self.spec = spec
        self.scale = spec["scale"]
        self.seed = spec["seed"]
        self.work = Path(spec["work"])
        self.tracer = tracer
        self.watch = Stopwatch(spec["spawn_ts"])
        self.ops = 0            # what ops_per_s counts
        self.ops_time_s = 0.0   # ... over this much timed wall, in this round
        # The same wall as consecutive pieces of identical work (chunks of
        # CHUNK_OPS operations; whole recoveries for ``restart``), one lane
        # per concurrent client.  A run sums each piece's median over its
        # rounds (``ledger.robust_time_s``).
        self.lanes: list[list[float]] = [[]]
        self.attempted = 0      # timed operations and oracle checks
        self.failures: list[str] = []
        self.lat_ms: list[float] = []
        self.log_bytes = 0
        self.user_bytes = 0
        self.rss_mb = 0.0
        self.streams: list = []
        self.facts: dict[str, float] = {}
        self.trace: dict | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_results(self, results: list, label: str) -> None:
        """Every timed call is an attempted op; one that raised failed."""
        self.attempted += len(results)
        self.failures += [f"{label}: {r!r}" for r in results if isinstance(r, Exception)]

    def add_timed(self, ops: list, samples_ms: list, elapsed_s: float, counters: dict) -> None:
        """Account for one in-process timed phase over ``ops``."""
        self.ops += len(ops)
        self.ops_time_s += elapsed_s
        self.lat_ms += samples_ms
        self.lanes[0] += chunk_sums(samples_ms)
        self.log_bytes += counters["log_bytes"]
        self.user_bytes += inputs.user_bytes(ops)
        self.add_facts(counters)

    def add_facts(self, counters: dict) -> None:
        for name, value in counters.items():
            self.facts[name] = self.facts.get(name, 0) + value

    def timed_begin(self) -> None:
        gc.collect()
        self.watch.lap("setup")
        self.tracer.on = True

    def timed_end(self) -> float:
        self.tracer.on = False
        return self.watch.lap("timed")

    def record(self) -> dict:
        return {
            "workload": self.spec["workload"],
            "ops": self.ops,
            "ops_time_s": self.ops_time_s,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:10],
            "setup_s": self.watch.totals["setup"],
            "timed_s": self.watch.totals["timed"],
            "lat_ms": self.lat_ms,
            "lanes_ms": self.lanes,
            "log_bytes": self.log_bytes,
            "user_bytes": self.user_bytes,
            "rss_mb": self.rss_mb,
            "inputs_sha256": inputs.stream_sha256(*self.streams),
            "facts": dict(self.facts, ops=self.ops, user_bytes=self.user_bytes),
            "trace": self.trace,
        }


def timed_calls(call, ops, results: list, samples_ms: list) -> None:
    """The closed loop: issue ``ops`` one after another, keeping each
    result (or the exception it raised) and each latency."""
    clock = time.perf_counter
    last = clock()
    for op in ops:
        try:
            results.append(call(op))
        except Exception as exc:  # noqa: BLE001 — a failed op is counted, not fatal
            results.append(exc)
        now = clock()
        samples_ms.append((now - last) * 1e3)
        last = now


def chunk_sums(samples_ms: list) -> list[float]:
    """Durations of consecutive chunks of ``CHUNK_OPS`` operations."""
    return [sum(samples_ms[i:i + CHUNK_OPS]) for i in range(0, len(samples_ms), CHUNK_OPS)]


def engine_counters(db) -> dict:
    """The engine's public counters, flat, with ``_`` for ``.``."""
    return {
        name.replace(".", "_"): value
        for name, value in db.metrics.snapshot().items()
        if isinstance(value, (int, float))
    }


def delta(after: dict, before: dict) -> dict:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def finish_in_process(round_: Round) -> None:
    """RSS and, on a traced round, the span ledger of this process.  Only
    the main thread runs the timed loop, so its spans are the ones that
    reconcile with the timed wall."""
    round_.rss_mb = self_rss_mb()
    if not round_.spec["traced"]:
        return
    threads = round_.tracer.dump()
    summary = layers.summarize(threads)
    main = layers.summarize([t for t in threads if t[0] == "MainThread"])
    round_.trace = with_wall(
        summary, round_.watch.totals["timed"],
        covered_s=sum(total for _count, total in main["roots"].values()),
        reconciling_spans=main["spans"],
        threads=threads if round_.spec.get("keep_spans") else None,
    )


def with_wall(summary: dict, wall_s: float, covered_s: float, reconciling_spans: dict,
              threads) -> dict:
    """Add the reconciliation to a span summary: per-layer self time plus
    the untraced remainder equals the wall it is compared with."""
    summary["wall_s"] = wall_s
    summary["untraced_s"] = wall_s - covered_s
    summary["untraced_share"] = (wall_s - covered_s) / wall_s
    summary["layer_self_s"] = ledger.layer_self_s(reconciling_spans)
    summary["threads"] = threads
    return summary


# ----------------------------------------------------------------------
# engine_ingest
# ----------------------------------------------------------------------

def engine_ingest(round_: Round) -> None:
    from repro.engine.kv import KVDatabase

    size = SIZES["engine_ingest"]
    n = scaled(size["ops"], round_.scale, floor=200)
    warm = int(n * WARMUP_SHARE)
    for method in METHODS:
        ops = inputs.mutation_stream(
            inputs.stream_rng(round_.seed, "engine_ingest", method),
            n, size["keys"], inputs.INGEST_MIX, copyadd=method != "physiological",
        )
        round_.streams.append(ops)
        log_dir = round_.work / method
        db = KVDatabase(
            method, log_dir=log_dir, commit_every=size["commit_every"],
            checkpoint_every=size["checkpoint_every"], fsync=False,
        )
        for op in ops[:warm]:
            db.execute(op)
        before = engine_counters(db)
        results: list = []
        samples: list = []
        round_.timed_begin()
        timed_calls(db.execute, ops[warm:], results, samples)
        db.sync()
        elapsed = round_.timed_end()
        round_.add_timed(ops[warm:], samples, elapsed, delta(engine_counters(db), before))
        round_.facts[f"methods.{method}.ingest_ops_per_s"] = (n - warm) / elapsed
        round_.check_results(results, method)
        round_.check(
            db.method.dump() == inputs.apply_ops({}, ops), f"{method}: final state != oracle"
        )
        round_.check(
            db.durable_count() == n, f"{method}: durable {db.durable_count()} != issued {n}"
        )
        db.close()
        db.method.machine.log.store.close()
        shutil.rmtree(log_dir)
        round_.watch.lap("check")
    # One force per commit cadence point, plus the closing sync().
    round_.facts["commits"] = round_.facts["log_forces"]
    finish_in_process(round_)


# ----------------------------------------------------------------------
# theory_audit
# ----------------------------------------------------------------------

def theory_audit(round_: Round) -> None:
    from repro.engine.kv import KVDatabase
    from repro.sim.audit import AuditTracker

    size = SIZES["theory_audit"]
    n = scaled(size["commands"], round_.scale, floor=25)
    warm = int(n * WARMUP_SHARE)
    for method in METHODS:
        ops = inputs.mutation_stream(
            inputs.stream_rng(round_.seed, "theory_audit", method),
            n, size["keys"], inputs.AUDIT_MIX, copyadd=method != "physiological",
        )
        round_.streams.append(ops)
        db = KVDatabase(
            method, cache_capacity=size["cache_capacity"], n_pages=size["n_pages"],
            commit_every=size["commit_every"], checkpoint_every=size["checkpoint_every"],
        )
        tracker = AuditTracker(db.method)
        instant = 0

        def audited(op):
            nonlocal instant
            db.execute(op)
            instant += 1
            return tracker.audit(instant)

        warm_results: list = []
        timed_calls(audited, ops[:warm], warm_results, [])
        before = engine_counters(db)
        results: list = []
        samples: list = []
        round_.timed_begin()
        timed_calls(audited, ops[warm:], results, samples)
        elapsed = round_.timed_end()
        round_.add_timed(ops[warm:], samples, elapsed, delta(engine_counters(db), before))
        round_.facts[f"methods.{method}.audits_per_s"] = (n - warm) / elapsed
        round_.add_facts({"graph_edges": len(tracker.conflict.edges())})
        for index, verdict in enumerate(warm_results + results):
            ok = not isinstance(verdict, Exception) and verdict.holds
            detail = verdict if isinstance(verdict, Exception) else verdict.detail
            round_.check(ok, f"{method} instant {index + 1}: {detail!r}")
        round_.check(
            db.method.dump() == inputs.apply_ops({}, ops), f"{method}: final state != oracle"
        )
        db.close()
        round_.watch.lap("check")
    finish_in_process(round_)


# ----------------------------------------------------------------------
# restart
# ----------------------------------------------------------------------

def restart_ops(seed: int, method: str, scale: float) -> tuple[list, int]:
    """The mutations the crashed process issued, and how many of them it
    saw acknowledged before the last 40."""
    size = SIZES["restart"]
    acked = scaled(size["acked"], scale, floor=300)
    ops = inputs.mutation_stream(
        inputs.stream_rng(seed, "restart", method),
        acked + size["extra"], size["keys"], inputs.INGEST_MIX,
        copyadd=method != "physiological",
    )
    return ops, acked


def wal_sizes(directory: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in sorted(directory.glob("*.wal"))}


def restart_build(spec: dict) -> None:
    """Runs in its own process, which ends by ``os._exit`` with the
    databases still open: per method, a log of ``acked`` synced mutations
    and 40 more, and the segment-file lengths at both points."""
    from repro.engine.kv import KVDatabase

    size = SIZES["restart"]
    for method in METHODS:
        ops, acked = restart_ops(spec["seed"], method, spec["scale"])
        log_dir = Path(spec["work"]) / f"built-{method}"
        db = KVDatabase(
            method, log_dir=log_dir, commit_every=32, n_pages=size["n_pages"],
            cache_capacity=size["cache_capacity"], fsync=False,
        )
        for op in ops[:acked]:
            db.execute(op)
        db.sync()
        at_ack = wal_sizes(log_dir)
        for op in ops[acked:]:
            db.execute(op)
        db.sync()
        (log_dir / "LENGTHS.json").write_text(
            json.dumps({"acked": at_ack, "issued": wal_sizes(log_dir)})
        )
    sys.stdout.flush()
    os._exit(0)


def torn_offset(acked_len: int, issued_len: int, rng: inputs.SplitMix64) -> int:
    """A length strictly between the two: every acknowledged byte stays,
    some of what was flushed after it stays too, the last frame is cut."""
    if issued_len - acked_len < 2:
        raise ValueError(f"no room for a torn tail between {acked_len} and {issued_len}")
    return acked_len + 1 + rng.below(issued_len - acked_len - 1)


def tear_tail(log_dir: Path, rng: inputs.SplitMix64, below_acked: bool = False) -> int:
    """Cut the last segment of a built log to a torn tail; returns the
    new length.  ``below_acked`` cuts into acknowledged bytes instead,
    which the oracle must catch (the self-test's sabotage)."""
    lengths = json.loads((log_dir / "LENGTHS.json").read_text())
    if list(lengths["acked"]) != list(lengths["issued"]):
        raise ValueError("the 40 unacknowledged mutations opened a new segment")
    last = list(lengths["issued"])[-1]
    offset = torn_offset(lengths["acked"][last], lengths["issued"][last], rng)
    if below_acked:
        offset = lengths["acked"][last] // 2
    os.truncate(log_dir / last, offset)
    return offset


def restart(round_: Round) -> None:
    from repro.engine.kv import KVDatabase

    size = SIZES["restart"]
    builder = dict(round_.spec, stage="restart_build")
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "trial.py"), json.dumps(builder)],
        check=True, timeout=120,
    )
    engine = {"n_pages": size["n_pages"], "cache_capacity": size["cache_capacity"]}
    copies = 0

    def start(built: Path, method: str, probe: str, lazy: bool, kind: str = "timed"):
        """One restart over a fresh copy of the torn log, with no survivor
        disk (what ``serve --log-dir`` does after ``kill -9``): the time
        to the first answered request, the engine, and its answer."""
        nonlocal copies
        copies += 1
        log_dir = Path(shutil.copytree(built, round_.work / f"copy-{copies}"))
        round_.timed_begin()
        round_.tracer.on = kind == "timed"
        db = KVDatabase.cold_start(log_dir, method=method, lazy=lazy, **engine)
        answer = db.get(probe)
        round_.tracer.on = False
        return round_.watch.lap(kind), db, answer

    def finish(db, counters: str) -> None:
        """Abandon a restarted engine (this stops a lazy drainer) and
        delete its copy of the log.  ``counters``: ``"exact"`` after a
        full recovery, whose counters repeat exactly; ``"timed"`` after a
        lazy restart abandoned at its first answer, where how far the
        background drainer got is a matter of timing — only the frames it
        read are kept, as the divisor of the traced fetch time."""
        counted = engine_counters(db)
        if counters != "none":
            round_.add_facts({"chain_frames_timed": counted["durable_chain_frames_read"]})
        if counters == "exact":
            round_.add_facts(counted)
        db.crash()
        store = db.method.machine.log.store
        store.close()
        shutil.rmtree(store.directory)
        round_.watch.lap("check")

    for method in METHODS:
        ops, acked = restart_ops(round_.seed, method, round_.scale)
        round_.streams.append(ops)
        built = round_.work / f"built-{method}"
        tear_tail(
            built, inputs.stream_rng(round_.seed, "restart-tear", method),
            below_acked=round_.spec.get("tear_below_acked", False),
        )
        probe = ops[0][1]

        _warm_s, db, _answer = start(built, method, probe, lazy=True, kind="setup")
        finish(db, "none")

        eager_s, db, answer = start(built, method, probe, lazy=False)
        recovered = db.durable_count()
        state = db.method.dump()
        expected = inputs.apply_ops({}, ops[:recovered])
        round_.check(
            acked <= recovered <= len(ops),
            f"{method}: recovered {recovered} outside acked {acked}..issued {len(ops)}",
        )
        round_.check(state == expected, f"{method}: eager state != oracle over {recovered}")
        round_.check(answer == expected.get(probe), f"{method}: eager first read wrong")
        round_.log_bytes += engine_counters(db)["log_bytes"]
        round_.user_bytes += inputs.user_bytes(ops[:recovered])
        finish(db, "exact")

        ttfr_ms = []
        for _ in range(scaled(size["lazy_abandoned"][method], round_.scale)):
            ttfr_s, db, answer = start(built, method, probe, lazy=True)
            ttfr_ms.append(ttfr_s * 1e3)
            round_.check(answer == expected.get(probe), f"{method}: lazy first read wrong")
            finish(db, "timed")

        ttfr_s, db, answer = start(built, method, probe, lazy=True)
        round_.tracer.on = True
        db.drain_lazy()
        drain_s = round_.timed_end()
        ttfr_ms.append(ttfr_s * 1e3)
        round_.check(answer == expected.get(probe), f"{method}: lazy first read wrong")
        round_.check(db.method.dump() == state, f"{method}: lazy-drained state != eager state")
        index = db.method.machine.log.page_index().as_dict()
        round_.add_facts({
            "pageindex_sidecars_used": index["sidecars_used"],
            "pageindex_segments_indexed": index["segments_indexed"],
        })
        finish(db, "exact")

        round_.lat_ms += ttfr_ms
        round_.ops += 2 * recovered
        round_.ops_time_s += eager_s + ttfr_s + drain_s
        round_.lanes[0] += [eager_s * 1e3, (ttfr_s + drain_s) * 1e3]
        round_.facts[f"methods.{method}.eager_records_per_s"] = recovered / eager_s
        round_.facts[f"methods.{method}.lazy_ttfr_ms"] = statistics.median(ttfr_ms)
        round_.facts[f"methods.{method}.lazy_drain_records_per_s"] = recovered / (ttfr_s + drain_s)
    finish_in_process(round_)


# ----------------------------------------------------------------------
# wire_commit and wire_read_mostly
# ----------------------------------------------------------------------

class Server:
    """The shipped CLI as a child process (under ``server_child.py`` on a
    traced round, which installs the span wrappers first)."""

    def __init__(self, serve_args: list[str], out: Path, spans: Path | None = None):
        entry = (
            [str(BENCH_DIR / "server_child.py"), str(spans)]
            if spans is not None
            else ["-m", "repro"]
        )
        self.spans = spans
        self.out = out
        with open(out, "wb") as sink:
            self.process = subprocess.Popen(
                [sys.executable, *entry, "serve", *serve_args, "--port", "0"],
                stdout=sink, stderr=subprocess.STDOUT,
            )
        self.port = self._wait_listening()

    def _wait_listening(self) -> int:
        while True:
            for line in self.out.read_text(errors="replace").splitlines():
                if line.startswith("listening on "):
                    return int(line.split()[2].rsplit(":", 1)[1])
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited {self.process.returncode}: {self.out.read_text()}")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list | None:
        """End the server the way a crash does.  Untraced: SIGKILL.
        Traced: SIGTERM, on which ``server_child.py`` writes its spans and
        ``os._exit``s — no ``close()``, no drain, either way."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL if self.spans is None else signal.SIGTERM)
        self.process.wait(timeout=30)
        if self.spans is not None and self.spans.exists():
            return json.loads(self.spans.read_text())
        return None

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def wire_call(client):
    def call(op):
        kind, key, value = op
        if kind == "get":
            return client.request(op="get", key=key)["value"]
        return client.request(op=kind, key=key, value=value)["lsn"]

    return call


def server_counters(stats: dict) -> dict:
    """The numeric counters of a wire ``stats`` reply; a one-shard
    deployment's ``shard00_`` prefix is dropped."""
    return {
        name.removeprefix("shard00_"): value
        for name, value in stats.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def wire_round(round_: Round, serve_args: list[str], streams: list[list], readable: dict) -> None:
    """Closed loop, one connection per stream.  ``readable`` maps a key to
    the values a read of it may return when another connection wrote it
    (``None`` when only its single writer's last value is right)."""
    from repro.server import KVClient

    traced = round_.spec["traced"]
    server = Server(
        serve_args, round_.work / "server.out",
        round_.work / "spans.json" if traced else None,
    )
    verifier = None
    try:
        n_clients = len(streams)
        gate = threading.Barrier(n_clients + 1)
        results = [[] for _ in streams]
        warm_results = [[] for _ in streams]
        samples = [[] for _ in streams]
        warm = int(len(streams[0]) * WARMUP_SHARE)

        def client_loop(index: int) -> None:
            with KVClient("127.0.0.1", server.port) as client:
                call = wire_call(client)
                timed_calls(call, streams[index][:warm], warm_results[index], [])
                gate.wait()
                gate.wait()
                timed_calls(call, streams[index][warm:], results[index], samples[index])

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"client-{i}")
            for i in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        control = KVClient("127.0.0.1", server.port)
        gate.wait()
        before = server_counters(control.stats())
        gc.collect()
        round_.watch.lap("setup")
        window_start = time.perf_counter()
        gate.wait()
        for thread in threads:
            thread.join()
        window = (window_start, time.perf_counter())
        elapsed = round_.watch.lap("timed")
        stats = control.stats()
        control.close()
        counters = delta(server_counters(stats), before)
        round_.rss_mb = server.peak_rss_mb()
        threads_spans = server.stop()

        # What each connection saw: request errors, then wrong reads.
        written: dict[str, int] = {}
        for index, stream in enumerate(streams):
            mine: dict[str, int] = {}
            outcomes = warm_results[index] + results[index]
            for (kind, key, value), outcome in zip(stream, outcomes):
                ok = not isinstance(outcome, Exception)
                if ok and kind == "put":
                    mine[key] = value
                elif ok and key in mine:
                    ok = outcome == mine[key]
                elif ok:
                    ok = outcome in readable[key]
                round_.check(ok, f"client {index} {kind} {key}: {outcome!r}")
            written.update(mine)

        # Durability: restart the CLI eagerly over what the kill left and
        # read back the last acknowledged value of every key written.
        verifier = Server(serve_args, round_.work / "verifier.out")
        with KVClient("127.0.0.1", verifier.port) as reader:
            for key, value in written.items():
                round_.check(reader.get(key) == value, f"after restart {key} != {value}")
    finally:
        server.kill()
        if verifier is not None:
            verifier.kill()

    timed = [op for stream in streams for op in stream[warm:]]
    round_.streams += streams
    round_.ops = len(timed)
    round_.ops_time_s = elapsed
    round_.lat_ms = [ms for per_client in samples for ms in per_client]
    round_.lanes = [chunk_sums(per_client) for per_client in samples]
    round_.log_bytes = counters["log_bytes"]
    round_.user_bytes = inputs.user_bytes(timed)
    round_.add_facts(counters)
    latency = stats.get("latency", {})
    round_.facts.update({
        "requests": round_.ops,
        "commits": counters["pipeline_commits"],
        "rtt_s": sum(round_.lat_ms) / 1e3,
        "server_put_p99_ms": latency.get("put", {}).get("p99", 0.0) * 1e3,
        "server_get_p50_ms": latency.get("get", {}).get("p50", 0.0) * 1e3,
    })
    if traced:
        # The threads that served requests reconcile with the round trips;
        # the committer and heartbeat threads run beside them.
        serving = [
            thread for thread in threads_spans
            if set(layers.summarize([thread], window)["roots"]) & set(layers.REQUEST_ROOTS)
        ]
        served = layers.summarize(serving, window)
        round_.trace = with_wall(
            layers.summarize(threads_spans, window), round_.facts["rtt_s"],
            covered_s=sum(total for _count, total in served["roots"].values()),
            reconciling_spans=served["spans"],
            threads=threads_spans if round_.spec.get("keep_spans") else None,
        )
    round_.watch.lap("check")


def wire_commit(round_: Round) -> None:
    size = SIZES["wire_commit"]
    n = scaled(size["puts_per_client"], round_.scale, floor=40)
    streams = [
        inputs.put_stream(
            inputs.stream_rng(round_.seed, "wire_commit", client),
            n, size["keys_per_client"], prefix=f"c{client}k",
        )
        for client in range(size["clients"])
    ]
    log_dir = round_.work / "log"
    wire_round(round_, ["physiological", "--log-dir", str(log_dir)], streams, readable={})


def wire_read_mostly(round_: Round) -> None:
    from repro.engine.kv import EngineSpec
    from repro.shard import ShardedDatabase

    size = SIZES["wire_read_mostly"]
    n = scaled(size["requests_per_client"], round_.scale, floor=200)
    # The key count sets the regime (keys per page, pool misses), so the
    # half-size traced pass keeps it; only the self-test shrinks it.
    n_keys = scaled(size["keys"], min(1.0, round_.scale * 4), floor=512)
    root = round_.work / "root"
    db = ShardedDatabase.create(
        root, n_shards=1,
        spec=EngineSpec(
            n_pages=size["n_pages"], cache_capacity=size["cache_capacity"],
            commit_pipeline=True,
        ),
    )
    preload = inputs.preload_stream(n_keys)
    session = db.session(commit_every=256)
    session.run(preload)
    session.commit()
    db.close()
    for shard in db.shards:
        shard.method.machine.log.store.close()
    streams = [
        inputs.read_mostly_stream(
            inputs.stream_rng(round_.seed, "wire_read_mostly", client),
            n, n_keys, client, size["clients"],
        )
        for client in range(size["clients"])
    ]
    # A key another connection writes may read as its preloaded value or
    # as anything that connection ever puts there.
    readable = {key: {value} for _kind, key, value in preload}
    for stream in streams:
        for kind, key, value in stream:
            if kind == "put":
                readable[key].add(value)
    wire_round(round_, ["--log-dir", str(root)], streams, readable)


WORKLOADS = {
    "wire_commit": wire_commit,
    "wire_read_mostly": wire_read_mostly,
    "engine_ingest": engine_ingest,
    "restart": restart,
    "theory_audit": theory_audit,
}
