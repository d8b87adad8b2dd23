"""One log record per operation: the durable count is stable LSNs minus
stable checkpoints.

``LogManager.stable_operation_count`` counts no record types; it relies
on every engine logging exactly one record per operation, plus its
checkpoint records.  These tests pin that premise for each §6 method and
for :class:`~repro.appstate.PersistentApplication`: at every instant of a
mixed stream — through checkpoints, quiesce, crash and recovery, and
warm and cold starts — ``durable_count()`` equals a scan of the stable
records that are not checkpoints.
"""

from dataclasses import replace

import pytest

from repro.appstate import PersistentApplication
from repro.engine import KVDatabase
from repro.logmgr import CheckpointRecord, LogManager
from repro.methods.base import Machine
from repro.workloads.kv import MUTATIONS, KVWorkloadSpec, generate_kv_workload

METHODS = ("physical", "logical", "physiological", "generalized")
MIXED = KVWorkloadSpec(
    n_operations=60,
    n_keys=12,
    put_ratio=0.45,
    add_ratio=0.2,
    copyadd_ratio=0.15,
    delete_ratio=0.1,
)
ENGINE = dict(log_segment_size=8, cache_capacity=4, commit_every=3, checkpoint_every=11)


def operations_in(records) -> int:
    """How many of ``records`` are not checkpoints, by reading them all."""
    return sum(1 for record in records if not isinstance(record.payload, CheckpointRecord))


def assert_one_record_per_operation(db: KVDatabase, history: list) -> None:
    """Every surviving mutation, and nothing else, has one log record, and
    the durable count is the stable ones."""
    log = db.method.machine.log
    assert operations_in(log.records_from(0)) == len(history)
    assert db.durable_count() == operations_in(log.stable_records_from(0))


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("method", METHODS)
def test_kv_method_logs_one_record_per_operation(tmp_path, method, lazy):
    # Physiological records name one page, so it runs no cross-key copyadd.
    spec = replace(MIXED, copyadd_ratio=0.0) if method == "physiological" else MIXED
    stream = generate_kv_workload(7, spec)
    history: list = []  # the mutations the log holds, in log order

    def run(db, commands):
        for command in commands:
            db.execute(command)
            if command[0] in MUTATIONS:
                history.append(command)
            assert_one_record_per_operation(db, history)

    db = KVDatabase(method, log_dir=tmp_path, fsync=False, **ENGINE)
    assert_one_record_per_operation(db, history)
    run(db, stream[:15])
    db.quiesce()
    assert_one_record_per_operation(db, history)
    run(db, stream[15:25])
    db.checkpoint()
    assert_one_record_per_operation(db, history)
    run(db, stream[25:40])
    db.crash_and_recover()
    del history[db.durable_count() :]
    assert db.verify_against(history) == len(history) > 0
    assert_one_record_per_operation(db, history)
    run(db, stream[40:])
    db.crash()
    del history[db.durable_count() :]
    assert_one_record_per_operation(db, history)
    disk = db.method.machine.disk
    db.method.machine.log.store.close()

    cold = KVDatabase.cold_start(
        tmp_path, disk, method=method, lazy=lazy, fsync=False, **ENGINE
    )
    assert_one_record_per_operation(cold, history)
    cold.drain_lazy()
    assert cold.verify_against(history) == len(history)
    run(cold, stream[:12])
    cold.checkpoint()
    assert_one_record_per_operation(cold, history)
    cold.close()


def counter_step(state, event):
    return state + event


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "file-log"])
def test_persistent_application_logs_one_record_per_event(tmp_path, durable):
    def machine(disk=None):
        log = LogManager.open(tmp_path, segment_size=4, fsync=False) if durable else None
        return Machine(disk=disk, log=log)

    history: list = []  # the events the log holds, in log order

    def check(app):
        log = app.machine.log
        assert operations_in(log.records_from(0)) == len(history)
        assert app.durable_event_count() == operations_in(log.stable_records_from(0))

    def crash_and_recover(app):
        app.crash()
        del history[app.durable_event_count() :]
        app.recover()
        assert app.state == app.expected_state_after(history)
        check(app)

    app = PersistentApplication(counter_step, 0, machine=machine(), checkpoint_every=7)
    for event in range(1, 31):
        app.post(event)
        history.append(event)
        check(app)
        if event % 4 == 0:
            app.commit()
            check(app)
        if event == 18:
            crash_and_recover(app)
    assert app.durable_event_count() > 0
    if not durable:
        return
    app.crash()
    del history[app.durable_event_count() :]
    app.machine.log.store.close()
    cold = PersistentApplication(
        counter_step, 0, machine=machine(app.machine.disk), checkpoint_every=7
    )
    cold.recover()
    assert cold.state == cold.expected_state_after(history)
    check(cold)
    cold.post(100)
    history.append(100)
    cold.checkpoint()
    check(cold)
    crash_and_recover(cold)
    cold.machine.log.store.close()
