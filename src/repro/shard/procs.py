"""Picklable per-shard workers for process-parallel deployment work.

Everything here runs in ``spawn`` children of a
:class:`~concurrent.futures.ProcessPoolExecutor`, so it must be
module-level and traffic only in plain picklable data: task dicts in,
result dicts out.  Page images cross the process boundary as
``{page_id: (cells, lsn)}`` (:func:`pack_disk` / :func:`unpack_disk`) —
the same shape :func:`repro.sim.crash.canonical_state` uses for
byte-identity checks, which is deliberate: what ships between processes
is exactly what the equivalence tests compare.

The handoff protocol for :func:`recover_shard` is *recover, quiesce,
ship the disk*: the child replays the shard's stable log (paying the
torn-tail truncation against the real segment files), then
``quiesce()``s so the disk image alone captures the recovered state —
no log appends, so the segment files are unchanged modulo the tail
truncation and a second cold start lands on the same bytes.  The parent
rebuilds the shard from the shipped image with ``recover=False``;
the child's file-level truncation already happened, so the parent's
``LogManager.open`` sees a clean log.
"""

from __future__ import annotations

import sys
import time
from typing import Any

from repro.engine.kv import EngineSpec
from repro.obs.progress import RecoveryProgress
from repro.storage import Disk, Page


def pack_disk(disk: Disk) -> dict[str, tuple[dict, int]]:
    """A disk's page images as picklable ``{page_id: (cells, lsn)}``."""
    return {
        page.page_id: (dict(page.cells), page.lsn) for page in disk.pages()
    }


def unpack_disk(pages: dict[str, tuple[dict, int]]) -> Disk:
    """Rebuild a :class:`Disk` from :func:`pack_disk` output."""
    disk = Disk()
    for page_id, (cells, lsn) in pages.items():
        disk.write_page(Page(page_id, dict(cells), lsn))
    return disk


def shard_progress_line(shard: int, snap: dict) -> str:
    """One human-readable recovery progress line for a shard."""
    return (
        f"[shard-{shard:02d}] {snap['phase']}: "
        f"segments={snap['segments']} records={snap['records']} "
        f"replayed={snap['replayed']} "
        f"bytes={snap['bytes']} ({snap['elapsed_s']:.2f}s)"
    )


def recover_shard(task: dict[str, Any]) -> dict[str, Any]:
    """Cold-start one shard in this process; return its quiesced image.

    ``task``: ``shard`` (index), ``dir`` (segment directory), ``spec``
    (:meth:`EngineSpec.as_dict`), ``pages`` (survivor disk image, may be
    empty), ``progress`` (print live recovery lines to stderr — stderr
    because it crosses the spawn-child boundary unbuffered and leaves
    stdout to the protocol).  ``elapsed_s`` times the replay+quiesce
    alone — the per-shard recovery cost, free of pool startup and result
    pickling, which is what the deployment's ``critical_path_s`` takes
    the maximum of.
    """
    spec = EngineSpec.from_dict(task["spec"])
    survivor = unpack_disk(task.get("pages") or {})
    progress = None
    if task.get("progress"):
        shard_index = task["shard"]

        def print_line(snap: dict, shard=shard_index) -> None:
            print(shard_progress_line(shard, snap), file=sys.stderr, flush=True)

        progress = RecoveryProgress(on_update=print_line)
    started = time.perf_counter()
    db = spec.cold_start(task["dir"], disk=survivor, progress=progress)
    db.quiesce()
    elapsed = time.perf_counter() - started
    report = db.report()
    result = {
        "shard": task["shard"],
        "pages": pack_disk(db.method.machine.disk),
        "elapsed_s": elapsed,
        "stable_lsn": db.method.machine.log.stable_lsn,
        "durable": db.durable_count(),
        "scanned": report.get("method_records_scanned", 0),
        "replayed": report.get("method_records_replayed", 0),
        "torn_tails": report.get("durable_torn_tails", 0),
    }
    db.close()
    return result
