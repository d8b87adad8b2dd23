"""Command-line front door: ``python -m repro <command>``.

Commands
--------
``scenarios``
    Analyze every worked example from the paper (recoverability,
    explaining prefixes) and print a verdict table.
``graphs``
    Print the O,P,Q running example's conflict/installation/write graphs
    (Figures 4, 5, 7) as text.
``demo [method] [--seed N] [--crash-at K]``
    Run a crash/recovery demonstration on a KV engine
    (default: physiological; also logical, physical, generalized).
    ``--seed`` picks the workload; ``--crash-at`` crashes after the
    K-th command (default: end of stream) and then finishes the rest of
    the workload on the recovered incarnation — so any crash point is
    reproducible from the command line.
``audit [method] [--seed N]``
    Run a mixed workload on an engine while auditing the Recovery
    Invariant at every instant via the theory bridge.
``trace [--out FILE] {demo,audit} [args...]``
    Run ``demo`` or ``audit`` with tracing on, then replay the trace
    through :class:`repro.obs.RecoveryTimeline` and print the
    human-readable recovery account.  ``demo`` and ``audit`` also accept
    ``--trace FILE`` directly to write the JSON-lines trace without the
    rendered report.
``logdump <dir|file>``
    Pretty-print binary log segment files (``.wal``) and archives
    (``.arch``): one line per record with LSN, payload type, page,
    encoded size, and CRC status; a torn tail is reported with its byte
    offset and reason, and the exit status is 1 so scripts can gate on
    a clean log (2 = structural error: bad header, missing files).
    ``demo --log-dir DIR`` produces such files.  A sharded deployment
    root (a directory holding ``DEPLOY.json``) dumps every shard's log,
    lines prefixed with the shard directory, same exit-code contract.
    ``--pages`` renders the per-page redo index instead (page → chain
    length, first/last LSN) and verifies each segment's one sidecar
    (seal + page index) against a full frame walk (exit 2 on mismatch).
``serve [--port N] [--log-dir DIR] [--shards N] [method]``
    Run the threaded KV server: a session per connection,
    line-delimited JSON protocol, commits coalesced by the
    cross-session group-commit pipeline.  ``--shards N`` serves a
    sharded deployment (per-shard WALs under the ``--log-dir`` root;
    an existing ``DEPLOY.json`` root cold-starts, ``--shards`` then
    optional, with a live per-shard recovery progress line).
    ``--lazy-restart`` makes a cold start instant: the server binds
    after analysis alone and pages replay on first access while a
    background thread drains the rest (``health`` shows the backlog).
    Telemetry
    is always on: per-op latency histograms behind ``stats``, the
    ``health`` op, and (with ``--log-dir``) a crash flight recorder in
    the log root, written synchronously with the server's serve span
    and 1 Hz health heartbeats; the engines are never traced.  Prints
    ``listening on HOST:PORT`` once bound.
``top --port N [--host H] [--interval S] [--once]``
    A polling terminal dashboard over a live server: per-shard stable
    LSN / pipeline depth / dirty pages, throughput rates, and per-op
    latency quantiles.  ``--once`` renders a single frame and exits
    (tests and CI).
``postmortem <dir> [--ring FILE] [--last N]``
    Read-only forensics after a crash: joins the flight ring's final
    trace records (unclosed spans rendered INTERRUPTED) with the WAL
    tail (last stable LSN per log, torn-tail report) into one account
    of the final moments.  Works on a single log directory or a
    deployment root.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.conflict import ConflictGraph
from repro.core.explain import find_explaining_prefixes, is_explainable
from repro.core.installation import InstallationGraph
from repro.core.model import State
from repro.core.replay import is_potentially_recoverable
from repro.workloads.opgen import scenario_library


def cmd_scenarios(_args) -> int:
    print(f"{'scenario':14s} {'recoverable':12s} explaining prefixes")
    print("-" * 64)
    for name, scenario in scenario_library().items():
        conflict = ConflictGraph(list(scenario.operations))
        installation = InstallationGraph(conflict)
        crashed = State(dict(scenario.crashed_values))
        recoverable = is_potentially_recoverable(conflict, crashed, State())
        prefixes = [
            "{" + ",".join(sorted(op.name for op in prefix)) + "}"
            for prefix in find_explaining_prefixes(installation, crashed, State())
        ]
        verdict = "yes" if recoverable else "NO"
        assert recoverable == is_explainable(installation, crashed, State())
        assert recoverable == scenario.expected_recoverable
        print(f"{name:14s} {verdict:12s} {' '.join(sorted(prefixes)) or '-'}")
    print("\nevery verdict matches the paper (asserted, not just printed).")
    return 0


def cmd_graphs(_args) -> int:
    from repro.core.expr import Var, assign
    from repro.core.state_graph import StateGraph
    from repro.core.write_graph import WriteGraph

    ops = [
        assign("O", "x", Var("x") + 1),
        assign("P", "y", Var("x") + 1),
        assign("Q", "x", Var("x") + 2),
    ]
    conflict = ConflictGraph(ops)
    installation = InstallationGraph(conflict)
    graph = StateGraph.conflict_state_graph(conflict, State())

    print("== conflict graph (Figure 4) ==")
    for a, b, labels in conflict.edges():
        print(f"  {a.name} -> {b.name}  [{','.join(sorted(labels))}]")
    for name in ("O", "P", "Q"):
        print(f"  {name} writes {graph.writes(name)}")

    print("\n== installation graph (Figure 5) ==")
    for a, b in installation.removed_edges():
        print(f"  removed: {a.name} -> {b.name}  (write-read only)")
    for prefix in sorted(
        installation.prefixes(), key=lambda p: (len(p), sorted(op.name for op in p))
    ):
        state = installation.determined_state(prefix, State())
        names = "{" + ",".join(sorted(op.name for op in prefix)) + "}"
        print(f"  prefix {names:10s} determines x={state['x']} y={state['y']}")

    print("\n== write graph after collapsing O and Q (Figure 7) ==")
    wg = WriteGraph(installation, State())
    wg.collapse(["O", "Q"], new_id="{O,Q}")
    for node in wg.nodes():
        print(f"  node {node}")
    for a, b, _ in wg.dag.edges():
        print(f"  {a} -> {b}")
    return 0


def _make_tracer(trace_path: str | None):
    """A file-backed tracer for ``--trace FILE`` (None when not asked for)."""
    if not trace_path:
        return None
    from repro.obs import JsonLinesSink, Tracer

    return Tracer(JsonLinesSink(trace_path))


def cmd_demo(args) -> int:
    from repro.engine import KVDatabase
    from repro.logmgr import LogDirectoryError
    from repro.workloads.kv import MUTATIONS, KVWorkloadSpec, generate_kv_workload

    method = args.method
    stream = generate_kv_workload(
        args.seed,
        KVWorkloadSpec(n_operations=60, n_keys=12, put_ratio=0.7, add_ratio=0.15),
    )
    crash_at = len(stream) if args.crash_at is None else args.crash_at
    if not 0 <= crash_at <= len(stream):
        print(f"--crash-at must be in [0, {len(stream)}]", file=sys.stderr)
        return 2
    tracer = _make_tracer(getattr(args, "trace", None))
    log_dir = getattr(args, "log_dir", None)
    try:
        db = KVDatabase(
            method=method,
            cache_capacity=4,
            commit_every=3,
            checkpoint_every=20,
            tracer=tracer,
            log_dir=log_dir,
        )
    except LogDirectoryError as exc:
        if tracer is not None:
            tracer.close()
        print(f"demo needs a fresh --log-dir: {exc}", file=sys.stderr)
        return 2
    try:
        db.run(stream[:crash_at])
        history = [c for c in stream[:crash_at] if c[0] in MUTATIONS]
        print(
            f"{method}: ran {len(history)} mutations "
            f"(seed {args.seed}, crash at {crash_at}); crashing..."
        )
        db.crash_and_recover()
        durable = db.verify_against(history)
        report = db.report()
        print(
            f"recovered exactly {durable} durable operations "
            f"(replayed {report['method_records_replayed']}, "
            f"skipped {report['method_records_skipped']}, "
            f"log {report['log_bytes']}B)"
        )
        if crash_at < len(stream):
            db.run(stream[crash_at:])
            db.commit()
            db.verify_against(history[:durable] + stream[crash_at:])
            print(
                f"finished the remaining {len(stream) - crash_at} commands on "
                f"the recovered incarnation; state verified"
            )
        if log_dir is not None:
            store = db.method.machine.log.store
            print(
                f"durable log: {store.appends} records staged, "
                f"{store.fsyncs} fsyncs; inspect with "
                f"`python -m repro logdump {log_dir}`"
            )
    finally:
        db.close()
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace}")
    return 0


def cmd_audit(args) -> int:
    from repro.engine import KVDatabase
    from repro.sim.audit import audited_run, installation_graph_of
    from repro.workloads.kv import KVWorkloadSpec, generate_kv_workload

    method = args.method
    if method == "physiological":
        print("note: physiological cannot run cross-key operations; using add/put mix")
        spec = KVWorkloadSpec(n_operations=50, n_keys=8, put_ratio=0.5, add_ratio=0.35)
    else:
        spec = KVWorkloadSpec(
            n_operations=50, n_keys=8, put_ratio=0.35, add_ratio=0.2,
            copyadd_ratio=0.3, delete_ratio=0.0,
        )
    stream = generate_kv_workload(args.seed, spec)
    tracer = _make_tracer(getattr(args, "trace", None))
    db = KVDatabase(
        method=method,
        cache_capacity=4,
        commit_every=2,
        checkpoint_every=12,
        tracer=tracer,
    )
    try:
        audits = audited_run(db, stream)
        violations = [a for a in audits if not a.holds]
        graph = installation_graph_of(db)
        print(
            f"{method}: {len(audits)} instants audited, "
            f"{len(violations)} invariant violations"
        )
        print(
            f"lifted installation graph: {len(graph)} ops, "
            f"{graph.dag.edge_count()} edges, "
            f"{len(graph.removed_edges())} write-read edges removed"
        )
    finally:
        if tracer is not None:
            tracer.close()
            print(f"trace written to {args.trace}")
    return 1 if violations else 0


def _payload_pages(payload) -> str:
    """The page column for one logdump line ('-' for pageless payloads)."""
    page = getattr(payload, "page_id", None)
    if page is not None:
        return page
    writes = getattr(payload, "writes", None)
    if writes:
        return ",".join(sorted(writes))
    return "-"


def _dump_segment_files(paths, prefix: str = "") -> tuple[int, int] | None:
    """Dump segment files (every line ``prefix``-ed); returns
    (records, torn_tails), or None after printing a structural error."""
    from repro.logmgr.codec import TornTail
    from repro.logmgr.filelog import ARCHIVE_SUFFIX, open_segments

    total = torn = 0
    for path, reader, fault in open_segments(paths):
        if fault is not None:
            header_torn, reason = fault
            if not header_torn:
                print(f"{prefix}{path.name}: bad header ({reason})", file=sys.stderr)
                return None
            print(f"{prefix}== {path.name} == torn tail at byte 0: {reason}")
            torn += 1
            continue
        kind = "archive" if path.suffix == ARCHIVE_SUFFIX else "segment"
        seal = ", sealed" if reader.sealed else ""
        print(
            f"{prefix}== {path.name} "
            f"({kind}, base_lsn={reader.base_lsn}, {len(reader.buf)}B{seal}) =="
        )
        try:
            for record in reader.records():
                print(
                    f"{prefix}  lsn={record.lsn:<6d} "
                    f"type={type(record.payload).__name__:<18s} "
                    f"page={_payload_pages(record.payload):<12s} "
                    f"size={record.size_bytes()}B crc=ok"
                )
                total += 1
        except TornTail as tear:
            print(
                f"{prefix}  torn tail at byte {tear.offset}: {tear.reason} "
                f"({len(reader.buf) - tear.offset}B after the tear are not "
                f"part of the log)"
            )
            torn += 1
    return total, torn


def _canon_edges(edges) -> list:
    """Multi-page edges in one comparable shape (wire round-trips keep
    tuple/list types, but the dump must not fail a sidecar on that)."""
    return [(lsn, tuple(reads), tuple(writes)) for lsn, reads, writes in edges]


def _index_segment_files(paths, prefix: str = ""):
    """Page-index every segment file by a full frame walk, verifying any
    sidecar against the walk.  Returns ``(index, verified, stale,
    mismatched)`` — or None after printing a structural error.

    The walk is the ground truth: a sidecar whose seal holds for the
    segment's bytes must produce the identical chains and edges, else
    it is corrupt and the caller exits 2.  A sidecar whose seal does
    not hold is merely stale (segment grew, sidecar lost the race, or
    it predates the current format), and one whose payload does not
    decode is ignored — the runtime falls back to the rebuild scan for
    both — so they are reported but not fatal.
    """
    from repro.logmgr.filelog import open_segments, read_sidecar
    from repro.logmgr.pageindex import PageRedoIndex, parse_page_index

    index = PageRedoIndex()
    verified = stale = mismatched = 0
    for path, reader, fault in open_segments(paths):
        if fault is not None:
            header_torn, reason = fault
            if header_torn:
                continue  # a torn tail holds no frame to index
            print(f"{prefix}{path.name}: bad header ({reason})", file=sys.stderr)
            return None
        scanned = reader.page_index()
        blob = read_sidecar(path)
        sidecar = parse_page_index(blob) if reader.sealed else None
        if blob is not None and sidecar is None:
            stale += 1
            print(
                f"{prefix}{path.name}: "
                f"{'undecodable' if reader.sealed else 'stale'} page-index "
                f"sidecar (ignored, rebuild scan used)"
            )
        elif sidecar is not None:
            if sidecar.pages == scanned.pages and _canon_edges(
                sidecar.edges
            ) == _canon_edges(scanned.edges):
                verified += 1
            else:
                mismatched += 1
                only_sidecar = sorted(set(sidecar.pages) - set(scanned.pages))
                only_walk = sorted(set(scanned.pages) - set(sidecar.pages))
                wrong = sorted(
                    p
                    for p in set(sidecar.pages) & set(scanned.pages)
                    if sidecar.pages[p] != scanned.pages[p]
                )
                print(
                    f"{prefix}{path.name}: page-index sidecar DISAGREES "
                    f"with the frame walk "
                    f"(sidecar-only={only_sidecar or '-'} "
                    f"walk-only={only_walk or '-'} "
                    f"chains-differ={wrong or '-'})",
                    file=sys.stderr,
                )
        index.add_segment(scanned)
    return index, verified, stale, mismatched


def _dump_page_index(paths, prefix: str = "") -> int | None:
    """Render one log directory's per-page redo index; returns the
    number of corrupt sidecars, or None after a structural error."""
    counts = _index_segment_files(paths, prefix=prefix)
    if counts is None:
        return None
    index, verified, stale, mismatched = counts
    pages = index.pages()
    if pages:
        print(f"{prefix}{'page':<14} {'frames':>7} {'first_lsn':>10} {'last_lsn':>9}")
        for page_id in pages:
            chain = index.chain(page_id)
            print(
                f"{prefix}{page_id:<14} {len(chain):>7} "
                f"{chain[0][2]:>10} {chain[-1][2]:>9}"
            )
    sidecars = f"{verified} sidecar(s) verified against the frame walk"
    if stale:
        sidecars += f", {stale} stale"
    if mismatched:
        sidecars += f", {mismatched} CORRUPT"
    print(
        f"{prefix}{len(pages)} page(s), {index.total_entries()} chain "
        f"entr{'y' if index.total_entries() == 1 else 'ies'}, "
        f"{len(index.edges)} multi-page edge(s) in {len(paths)} file(s); "
        f"{sidecars}"
    )
    return mismatched


def cmd_logdump(args) -> int:
    """Pretty-print binary segment files, torn tails included.

    Streams each file through the shared zero-copy frame walker (the
    same scanner recovery uses): the file is mmapped, a segment whose
    sidecar seal holds is verified with one CRC pass, and records
    decode lazily one at a time — a multi-gigabyte segment dumps in
    O(record) memory.

    A directory holding a ``DEPLOY.json`` manifest is a sharded
    deployment root: every shard's log is dumped in shard order, each
    line prefixed with the shard directory name, and damage anywhere in
    the deployment still drives the exit code (1 = torn tail somewhere,
    2 = structural error).

    ``--pages`` renders the per-page redo index instead of the record
    stream: one line per page (chain length, first/last LSN), the
    count of multi-page edges, and a verification of each segment's
    ``.pages`` sidecar against a full frame walk of the segment — a
    sidecar whose seal holds but whose index disagrees with the walk
    is corrupt and the exit status is 2.
    """
    from pathlib import Path

    from repro.logmgr.filelog import log_files
    from repro.shard import DeploymentError, log_directories

    target = Path(args.path)
    if target.is_file():
        logs = [(None, [target])]
    elif target.is_dir():
        try:
            logs = [(label, log_files(d)) for label, d in log_directories(target)]
        except DeploymentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if logs[0][0] is None and not logs[0][1]:
            print(f"no segment files in {target}", file=sys.stderr)
            return 2
    else:
        print(f"{target}: no such file or directory", file=sys.stderr)
        return 2
    sharded = logs[0][0] is not None
    total = torn = corrupt = files = 0
    for label, paths in logs:
        prefix = f"[{label}] " if sharded else ""
        if not paths:
            print(f"{prefix}no segment files")
            continue
        counts = (_dump_page_index if args.pages else _dump_segment_files)(
            paths, prefix=prefix
        )
        if counts is None:
            return 2
        if args.pages:
            corrupt += counts
            continue
        total += counts[0]
        torn += counts[1]
        files += len(paths)
    if args.pages:
        return 2 if corrupt else 0
    across = f" across {len(logs)} shard(s)" if sharded else ""
    tail = f", {torn} torn tail(s)" if torn else ""
    print(f"{total} records in {files} file(s){across}{tail}")
    # A torn/corrupt tail is expected after a crash but is something a
    # caller gating on log health must see: report it in the exit code.
    return 1 if torn else 0


def _serve_tracer(log_dir):
    """The serve tracer: one writing straight into the flight ring in
    the log root, or None when there is no log directory to hold it."""
    if not log_dir:
        return None
    import os

    from repro.obs import FlightRecorder, Tracer, flight_ring_path

    # The log root may not exist yet (fresh create path): the recorder
    # needs its directory before the engine lays down segment files.
    os.makedirs(log_dir, exist_ok=True)
    return Tracer(FlightRecorder.attach(flight_ring_path(log_dir)))


def cmd_serve(args) -> int:
    """Run the threaded KV server until interrupted.

    With ``--shards N`` the same front-end serves a sharded deployment:
    ``--log-dir`` then names the deployment *root* — cold-started when
    it already holds a ``DEPLOY.json`` manifest (``--shards`` may be
    omitted; the manifest knows), created fresh otherwise.  A sharded
    cold start prints one progress line per shard as it becomes ready.
    """
    import os

    from repro.engine import KVDatabase
    from repro.server import KVServer

    # Only the server is traced (serve span + heartbeats into the flight
    # ring); the engines' per-op firehose would tax every commit.
    tracer = _serve_tracer(args.log_dir)
    shards = args.shards
    if args.log_dir and shards is None:
        # A deployment root is self-describing; serving one without
        # --shards must not silently fall into the single-engine path.
        from repro.shard import is_deployment_root

        if is_deployment_root(args.log_dir):
            shards = 0  # sentinel: cold start, count from the manifest
    if shards is not None:
        from repro.engine import EngineSpec
        from repro.shard import ShardedDatabase, is_deployment_root

        spec = EngineSpec(method=args.method, fsync=not args.no_fsync)
        if args.log_dir and is_deployment_root(args.log_dir):

            def shard_ready(result: dict) -> None:
                # Lazy: analysis only, so the backlog is what redo owes.
                detail = (
                    f"replay_backlog={result['replay_backlog']}"
                    if args.lazy_restart
                    else f"replayed={result['replayed']} "
                    f"stable_lsn={result['stable_lsn']} "
                    f"torn_tails={result['torn_tails']}"
                )
                print(
                    f"[shard-{result['shard']:02d}] ready in "
                    f"{result['time_to_ready_s']:.2f}s ({detail})",
                    flush=True,
                )

            db = ShardedDatabase.cold_start(
                args.log_dir,
                on_progress=shard_ready,
                lazy=args.lazy_restart,
            )
            tracer.event(
                "serve.cold_start",
                wall_s=round(db.cold_report["wall_s"], 3),
                lazy=db.cold_report["lazy"],
                shards=[
                    {
                        "shard": r["shard"],
                        "stable_lsn": r["stable_lsn"],
                        "time_to_ready_s": round(r["time_to_ready_s"], 3),
                    }
                    for r in db.cold_report["per_shard"]
                ],
            )
            n_shards = db.keymap.n_shards
            print(f"cold start: wall {db.cold_report['wall_s']:.2f}s", flush=True)
            if db.cold_report["lazy"]:
                print(
                    f"lazy restart: serving with "
                    f"{db.replay_backlog()} page(s) awaiting "
                    f"background replay",
                    flush=True,
                )
            if shards not in (0, n_shards):
                print(
                    f"--shards {shards} conflicts with the manifest's "
                    f"{n_shards}; serving {n_shards}",
                    file=sys.stderr,
                )
        else:
            db = ShardedDatabase.create(
                root=args.log_dir or None,
                n_shards=max(1, shards),
                spec=spec,
            )
        print(
            f"sharded: {db.keymap.n_shards} shards, "
            f"keymap seed {db.keymap.seed}, method {args.method}",
            flush=True,
        )
    elif args.log_dir:
        try:
            db = KVDatabase.cold_start(
                args.log_dir,
                method=args.method,
                fsync=not args.no_fsync,
                lazy=args.lazy_restart,
            )
        except ValueError as exc:  # a log another method wrote
            if tracer is not None:
                tracer.close()
            print(f"serve cannot restart: {exc}", file=sys.stderr)
            return 2
        if args.lazy_restart:
            print(
                f"lazy restart: serving with {db.replay_backlog()} "
                f"page(s) awaiting background replay",
                flush=True,
            )
    else:
        db = KVDatabase(method=args.method)
    server = KVServer(
        db,
        host=args.host,
        port=args.port,
        session_commit_every=args.commit_every,
        tracer=tracer,
    )
    host, port = server.address
    print(f"listening on {host}:{port} (pid {os.getpid()})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if tracer is not None:
            tracer.close()
    return 0


def cmd_top(args) -> int:
    """Poll a live server and render the terminal dashboard."""
    from repro.server import run_top

    try:
        return run_top(
            args.host,
            args.port,
            interval=args.interval,
            once=args.once,
        )
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(f"cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2


def cmd_postmortem(args) -> int:
    """Render the forensic narrative for a crashed deployment."""
    from pathlib import Path

    from repro.obs.postmortem import collect_postmortem, render_postmortem

    root = Path(args.path)
    if not root.is_dir():
        print(f"{root}: no such directory", file=sys.stderr)
        return 2
    report = collect_postmortem(root, ring_path=args.ring, last_events=args.last)
    print(render_postmortem(report))
    if not report["ok"]:
        print(
            f"{root}: neither segment files nor a flight ring found",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_trace(args) -> int:
    """Run a traced sub-command, then render the trace as a timeline."""
    from repro.obs import RecoveryTimeline

    sub_argv = [args.traced_command, *args.rest, "--trace", args.out]
    status = main(sub_argv)
    timeline = RecoveryTimeline.from_file(args.out)
    print()
    print("== recovery timeline ==")
    print(timeline.render())
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Theory of Redo Recovery (SIGMOD 2003), executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("scenarios", help="analyze the paper's worked examples")
    sub.add_parser("graphs", help="print the O,P,Q graphs (Figures 4/5/7)")
    demo = sub.add_parser("demo", help="crash/recover a KV engine")
    demo.add_argument(
        "method",
        nargs="?",
        default="physiological",
        choices=["logical", "physical", "physiological", "generalized"],
    )
    demo.add_argument(
        "--seed", type=int, default=1, help="workload seed (default: 1)"
    )
    demo.add_argument(
        "--crash-at",
        dest="crash_at",
        type=int,
        default=None,
        metavar="K",
        help="crash after the K-th command (default: end of stream)",
    )
    demo.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSON-lines trace of the whole run to FILE",
    )
    demo.add_argument(
        "--log-dir",
        dest="log_dir",
        default=None,
        metavar="DIR",
        help="put the log on binary segment files in DIR, which must not "
        "hold a log yet (inspect them with `repro logdump DIR`)",
    )
    audit = sub.add_parser("audit", help="audit an engine against the theory")
    audit.add_argument(
        "method",
        nargs="?",
        default="logical",
        choices=["logical", "physical", "physiological", "generalized"],
    )
    audit.add_argument(
        "--seed", type=int, default=2, help="workload seed (default: 2)"
    )
    audit.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSON-lines trace of the whole run to FILE",
    )
    trace = sub.add_parser(
        "trace", help="run demo/audit traced and render the recovery timeline"
    )
    trace.add_argument(
        "--out",
        default="trace.jsonl",
        metavar="FILE",
        help="trace file to write (default: trace.jsonl)",
    )
    trace.add_argument(
        "traced_command",
        choices=["demo", "audit"],
        help="the sub-command to run with tracing on",
    )
    trace.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        help="arguments passed through to the sub-command",
    )
    logdump = sub.add_parser(
        "logdump", help="pretty-print binary log segment files"
    )
    logdump.add_argument(
        "path", help="a segment directory, or one .wal/.arch file"
    )
    logdump.add_argument(
        "--pages",
        action="store_true",
        help="render the per-page redo index (chain length, first/last "
        "LSN per page) and verify each segment's one .pages sidecar (seal "
        "+ page index) against a full frame walk (exit 2 on mismatch)",
    )
    serve = sub.add_parser(
        "serve", help="run the threaded KV server (line-delimited JSON)"
    )
    serve.add_argument(
        "method",
        nargs="?",
        default="physiological",
        choices=["logical", "physical", "physiological", "generalized"],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to bind (default: 0 = pick a free one, printed on start)",
    )
    serve.add_argument(
        "--log-dir",
        dest="log_dir",
        default=None,
        metavar="DIR",
        help="durable log segment directory (cold-starts from it; "
        "omit for an in-memory log)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="serve a sharded deployment of N engines (with --log-dir: "
        "the deployment root, cold-started when it holds a DEPLOY.json "
        "manifest, created fresh otherwise)",
    )
    serve.add_argument(
        "--lazy-restart",
        dest="lazy_restart",
        action="store_true",
        help="cold-start lazily: accept connections after analysis "
        "alone, replay each page on first access (and in the "
        "background), instead of replaying the whole log up front — "
        "`health` reports the per-shard replay backlog while it drains",
    )
    serve.add_argument(
        "--commit-every",
        dest="commit_every",
        type=int,
        default=1,
        metavar="N",
        help="per-session auto-commit cadence (default: 1)",
    )
    serve.add_argument(
        "--no-fsync",
        dest="no_fsync",
        action="store_true",
        help="skip fsync on the durable log (benchmarks only)",
    )
    top = sub.add_parser(
        "top", help="polling terminal dashboard over a live server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, required=True)
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between polls (default: 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (scripts, CI)",
    )
    postmortem = sub.add_parser(
        "postmortem",
        help="read-only crash forensics: flight ring + WAL tail",
    )
    postmortem.add_argument(
        "path", help="a log directory or sharded deployment root"
    )
    postmortem.add_argument(
        "--ring",
        default=None,
        metavar="FILE",
        help="flight ring file (default: FLIGHT.ring under the root)",
    )
    postmortem.add_argument(
        "--last",
        type=int,
        default=20,
        metavar="N",
        help="how many final trace records to show (default: 20)",
    )
    args = parser.parse_args(argv)
    handlers = {
        "scenarios": cmd_scenarios,
        "graphs": cmd_graphs,
        "demo": cmd_demo,
        "audit": cmd_audit,
        "trace": cmd_trace,
        "logdump": cmd_logdump,
        "serve": cmd_serve,
        "top": cmd_top,
        "postmortem": cmd_postmortem,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
