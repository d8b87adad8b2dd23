"""Tests for the crash flight recorder (repro.obs.flightrec).

The ring's whole job is to survive a process that does not: the
cross-process tests at the bottom SIGKILL a child mid-traffic and
assert the parent can reopen the ring and read the child's final
records — the same contract ``repro postmortem`` relies on.
"""

import errno
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.obs import FlightRecorder, FlightRecorderError, Tracer, flight_ring_path
from repro.obs.flightrec import _HEADER, _SLOT_FRAME


class TestRingFile:
    def test_create_append_read_roundtrip(self, tmp_path):
        ring = FlightRecorder.create(str(tmp_path / "f.ring"), n_slots=16)
        for i in range(5):
            ring.emit({"seq": i, "type": "event", "name": "e", "fields": {"i": i}})
        records = ring.records()
        assert [r["fields"]["i"] for r in records] == [0, 1, 2, 3, 4]
        ring.close()

    def test_file_size_is_fixed(self, tmp_path):
        path = tmp_path / "f.ring"
        ring = FlightRecorder.create(str(path), slot_size=128, n_slots=8)
        expected = _HEADER.size + 128 * 8
        assert path.stat().st_size == expected
        for i in range(100):
            ring.emit({"seq": i, "type": "event", "name": "e"})
        assert path.stat().st_size == expected  # a ring never grows
        ring.close()

    def test_wraparound_overwrites_oldest(self, tmp_path):
        ring = FlightRecorder.create(str(tmp_path / "f.ring"), n_slots=8)
        for i in range(8 + 5):
            ring.emit({"seq": i, "type": "event", "name": "e"})
        survivors = [r["seq"] for r in ring.records()]
        assert survivors == list(range(5, 13))
        ring.close()

    def test_reopen_resumes_sequence(self, tmp_path):
        path = str(tmp_path / "f.ring")
        first = FlightRecorder.create(path, n_slots=8)
        for i in range(3):
            first.emit({"seq": i, "type": "event", "name": "a"})
        first.close()  # no fsync by design; same-OS reads see the writes
        second = FlightRecorder.open(path)
        assert second.next_seq == 3
        second.emit({"seq": 3, "type": "event", "name": "b"})
        names = [r["name"] for r in second.records()]
        assert names == ["a", "a", "a", "b"]
        second.close()

    def test_torn_slot_costs_one_record_not_the_file(self, tmp_path):
        path = str(tmp_path / "f.ring")
        ring = FlightRecorder.create(path, slot_size=128, n_slots=8)
        for i in range(5):
            ring.emit({"seq": i, "type": "event", "name": "e"})
        ring.close()
        # Corrupt the middle slot's payload: its CRC now fails.
        offset = _HEADER.size + 2 * 128 + _SLOT_FRAME.size
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(b"\xff\xff\xff\xff")
        survivor = FlightRecorder.open(path)
        assert [r["seq"] for r in survivor.records()] == [0, 1, 3, 4]
        survivor.close()

    def test_oversized_payload_degrades_to_stub(self, tmp_path):
        ring = FlightRecorder.create(
            str(tmp_path / "f.ring"), slot_size=96, n_slots=4
        )
        ring.emit(
            {
                "seq": 0,
                "type": "span_start",
                "name": "big",
                "id": 7,
                "parent": None,
                "fields": {"blob": "x" * 500},
            }
        )
        [record] = ring.records()
        assert record["truncated"] is True
        assert record["name"] == "big"
        assert record["id"] == 7  # span identity survives the diet
        assert ring.truncated_payloads == 1
        ring.close()

    def test_attach_recreates_garbage_file(self, tmp_path):
        path = tmp_path / "f.ring"
        path.write_bytes(b"not a flight ring at all")
        ring = FlightRecorder.attach(str(path), n_slots=8)
        assert ring.next_seq == 0
        ring.emit({"seq": 0, "type": "event", "name": "e"})
        assert len(ring.records()) == 1
        ring.close()

    def test_open_rejects_bad_magic_and_version(self, tmp_path):
        path = tmp_path / "f.ring"
        path.write_bytes(_HEADER.pack(b"NOPE", 1, 512, 8))
        with pytest.raises(FlightRecorderError, match="magic"):
            FlightRecorder.open(str(path))
        path.write_bytes(_HEADER.pack(b"FREC", 99, 512, 8))
        with pytest.raises(FlightRecorderError, match="version"):
            FlightRecorder.open(str(path))

    def test_geometry_validation(self, tmp_path):
        with pytest.raises(FlightRecorderError):
            FlightRecorder.create(str(tmp_path / "f.ring"), slot_size=4)
        with pytest.raises(FlightRecorderError):
            FlightRecorder.create(str(tmp_path / "f.ring"), n_slots=0)

    def test_flight_ring_path_is_canonical(self, tmp_path):
        assert flight_ring_path(tmp_path) == str(tmp_path / "FLIGHT.ring")


class TestSinkIntegration:
    def test_tracer_writes_into_the_ring(self, tmp_path):
        recorder = FlightRecorder.create(str(tmp_path / "f.ring"), n_slots=32)
        tracer = Tracer(recorder)
        with tracer.span("recovery", method="physical"):
            tracer.event("recovery.record", lsn=1)
        tracer.close()
        reopened = FlightRecorder.open(str(tmp_path / "f.ring"))
        on_disk = reopened.records()
        reopened.close()
        assert [r["seq"] for r in on_disk] == [0, 1, 2]
        assert [r["type"] for r in on_disk] == ["span_start", "event", "span_end"]
        assert on_disk[0]["fields"]["method"] == "physical"

    def test_failed_ring_write_never_takes_the_server_down(
        self, tmp_path, monkeypatch
    ):
        """A ring whose every ``pwrite`` fails (EIO) costs its records,
        never the server: the serve span (emitted in ``KVServer``'s
        constructor) and each heartbeat are counted and dropped."""
        from repro.engine import KVDatabase
        from repro.obs import flightrec
        from repro.server import KVClient, KVServer

        def broken_pwrite(fd, data, offset):
            raise OSError(errno.EIO, "injected I/O error")

        recorder = FlightRecorder.create(str(tmp_path / "f.ring"), n_slots=32)
        monkeypatch.setattr(flightrec.os, "pwrite", broken_pwrite)
        db = KVDatabase(method="physiological", commit_pipeline=True)
        server = KVServer(db, tracer=Tracer(recorder), heartbeat_interval=0.05)
        server.serve_background()
        try:
            assert recorder.write_errors == 1  # the server.serve span
            with KVClient(*server.address) as client:
                for i in range(10):
                    client.put(f"k{i}", i)
                client.commit()
                deadline = time.monotonic() + 5.0
                while recorder.write_errors < 3 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert recorder.write_errors >= 3, "no heartbeat within 5s"
                assert client.health()["stable_lsn"] >= 9
                assert client.stats()["latency"]["put"]["count"] == 10
            assert server._heartbeat_thread.is_alive()
        finally:
            server.close()
            recorder.close()


# ----------------------------------------------------------------------
# The real thing: SIGKILL a child writing the ring, reopen its file.
# ----------------------------------------------------------------------

CHILD_SOURCE = """\
import sys
from repro.obs import FlightRecorder, Tracer

recorder = FlightRecorder.create(sys.argv[1], n_slots=64)
tracer = Tracer(recorder)
span = tracer.span("child.run", pid=1)
i = 0
while True:
    tracer.event("child.tick", i=i)
    i += 1
    print(i, flush=True)
"""

SUICIDE_SOURCE = """\
import os, signal, sys
from repro.obs import FlightRecorder, Tracer

tracer = Tracer(FlightRecorder.create(sys.argv[1], n_slots=256))
for i in range(int(sys.argv[2])):
    tracer.event("child.tick", i=i)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _child_env():
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
class TestProcessKill:
    def test_ring_survives_sigkill_and_reopens(self, tmp_path):
        """Kill a child that never closed its ring; the parent must read
        its final events and see the unclosed span — the postmortem
        contract, exercised with a real SIGKILL."""
        script = tmp_path / "child.py"
        script.write_text(CHILD_SOURCE)
        ring_path = tmp_path / "FLIGHT.ring"
        proc = subprocess.Popen(
            [sys.executable, str(script), str(ring_path)],
            env=_child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30
            ticks = 0
            while ticks < 100:  # enough to wrap the 64-slot ring
                assert time.monotonic() < deadline, "child too slow"
                line = proc.stdout.readline()
                assert line, "child exited early"
                ticks = int(line)
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            proc.stdout.close()
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        survivor = FlightRecorder.open(str(ring_path))
        records = survivor.records()
        survivor.close()
        # A full ring — minus at most the one slot the SIGKILL could
        # have caught mid-pwrite (its CRC fails, costing one record).
        assert len(records) >= 63
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(set(seqs))  # strictly increasing
        assert seqs[-1] - seqs[0] < 64 + 1  # one 64-slot window, <=1 gap
        # Every tick the child reported was written before it printed.
        last = records[-1]
        assert last["name"] == "child.tick"
        assert last["fields"]["i"] >= ticks - 1

        from repro.obs import RecoveryTimeline

        timeline = RecoveryTimeline.from_flight_ring(records)
        # span_start was overwritten by the wrap; lenient mode still
        # renders the tail (every tick floats to the top level).
        assert timeline.records

    def test_every_record_emitted_before_sigkill_is_on_disk(self, tmp_path):
        """The ring write is synchronous: a child that SIGKILLs itself
        straight after its last emit leaves every record in the ring."""
        script = tmp_path / "child.py"
        script.write_text(SUICIDE_SOURCE)
        ring_path = tmp_path / "FLIGHT.ring"
        n = 200
        proc = subprocess.run(
            [sys.executable, str(script), str(ring_path), str(n)],
            env=_child_env(),
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL
        survivor = FlightRecorder.open(str(ring_path))
        records = survivor.records()
        survivor.close()
        assert [r["seq"] for r in records] == list(range(n))
        assert [r["fields"]["i"] for r in records] == list(range(n))
