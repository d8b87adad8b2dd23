"""The shipped CLI with the bench's span wrappers installed first.

``python server_child.py SPANS serve ...`` runs ``repro.__main__.main``
unchanged, so a traced round serves from the same program an untraced
round does.  On SIGTERM it writes every thread's spans to ``SPANS`` and
leaves by ``os._exit`` — like the SIGKILL of an untraced round, nothing is
closed or drained on the way out.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import layers


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.SpanTracer()
    layers.install(tracer)
    tracer.on = True

    def dump_and_exit(_signum, _frame) -> None:
        tracer.on = False
        with open(spans_path + ".tmp", "w") as sink:
            json.dump(tracer.dump(), sink)
        os.replace(spans_path + ".tmp", spans_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    from repro.__main__ import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
