"""The benchmark of record's self-test, as a tier-1 test.

``bench/run.py --selftest`` installs every ``bench/layers.py``
``LAYER_TABLE`` wrapper (which raises when a traced call was moved or
renamed) and runs all five workloads at 1/20 size with their oracles
on, so a refactor that breaks what the benchmark drives fails here
rather than in the pipeline that runs the benchmark.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    assert "selftest ok" in result.stdout
