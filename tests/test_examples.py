"""Smoke tests: every example script runs to completion in-process.

Examples are documentation that executes; these tests keep them honest
as the library evolves.  Each example asserts its own claims internally,
so "runs without raising" is a meaningful check.
"""

import importlib.util
import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "crash_recovery_demo.py",
        "btree_split_logging.py",
        "invariant_checker.py",
        "bank_ledger.py",
        "persistent_app.py",
        "render_figures.py",
    ],
)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    output = capsys.readouterr().out
    assert output.strip(), f"{script} produced no output"


def test_rendered_figures_match_paper_shapes(tmp_path):
    """The dot files regenerate the paper's figure structure."""
    runpy.run_path(str(EXAMPLES / "render_figures.py"), run_name="__main__")
    figure5 = (EXAMPLES / "figures" / "figure5.dot").read_text()
    assert "O -> P [style=dashed" in figure5  # the removed wr edge
    assert 'O -> Q [style=solid label="rw,wr,ww"]' in figure5
    figure7 = (EXAMPLES / "figures" / "figure7.dot").read_text()
    assert "{O,Q}" in figure7
    assert '"P" -> "OQ"' in figure7
    figure8 = (EXAMPLES / "figures" / "figure8.dot").read_text()
    assert "careful write order" in figure8


def test_serve_helper_round_trips_the_banner(tmp_path):
    """The smoke scripts' shared ``_serve.serving``: spawn ``serve``,
    parse ``listening on HOST:PORT (pid N)``, drive one put/get — and
    the child is gone afterwards even when the smoke body fails."""
    from repro.server import KVClient

    spec = importlib.util.spec_from_file_location("_serve", EXAMPLES / "_serve.py")
    helper = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helper)
    assert helper.read_banner(
        ["sharded: 3 shards\n", "listening on 127.0.0.1:4711 (pid 9)\n"]
    ) == ("127.0.0.1", 4711)
    with pytest.raises(RuntimeError, match="before binding"):
        helper.read_banner(["Traceback (most recent call last):\n"])

    with pytest.raises(ZeroDivisionError):
        with helper.serving(
            "physiological", "--log-dir", str(tmp_path), "--no-fsync"
        ) as (proc, host, port):
            with KVClient(host, port) as kv:
                kv.put("k", 7)
                assert kv.get("k") == 7
            1 / 0  # a failing smoke
    assert proc.poll() is not None, "serve child left running"
