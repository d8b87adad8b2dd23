"""Spawn ``python -m repro serve`` for the smoke scripts.

One place knows how a served child is started, how its banner —
``listening on HOST:PORT (pid N)`` — is read, and how it ends: the four
smoke scripts all SIGKILL their server on purpose (the crash *is* the
scenario), so the context manager does exactly that on the way out, on
the failure path too.  A smoke that dies early therefore never leaves a
``serve`` child behind holding the caller's stdout pipe open.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
BANNER = re.compile(r"listening on (\S+):(\d+) \(pid \d+\)")


def read_banner(lines) -> tuple[str, int]:
    """Consume server output up to the banner (echoing it); returns
    ``(host, port)``.  The banner is the last thing ``serve`` prints
    before it starts accepting, so whatever precedes it (the sharded
    summary, recovery progress) is simply passed through."""
    for line in lines:
        print(f"  [server] {line.rstrip()}")
        found = BANNER.search(line)
        if found:
            return found[1], int(found[2])
    raise RuntimeError("server exited before binding")


@contextmanager
def serving(*serve_args: str):
    """Run ``python -m repro serve SERVE_ARGS --port 0`` as a child
    process; yields ``(process, host, port)`` once it is listening and
    SIGKILLs it on exit — no shutdown handshake, no pipeline drain."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *serve_args, "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    try:
        host, port = read_banner(proc.stdout)
        yield proc, host, port
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
