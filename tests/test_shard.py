"""Tests for the sharded deployment layer: keymap, engine spec,
router, sessions, manifest, merged metrics, and the whole-deployment
audit (the in-memory and inline-recovery paths; the cross-process
paths live in test_shard_recovery.py)."""

import json

import pytest

from repro.engine import EngineSpec, KVDatabase
from repro.obs.metrics import MetricsError, MetricsRegistry
from repro.shard import (
    MANIFEST_NAME,
    DeploymentError,
    Keymap,
    ShardedDatabase,
    ShardRoutingError,
    is_deployment_root,
    read_manifest,
    shard_dirname,
)
from repro.workloads.kv import KVWorkloadSpec, apply_to_oracle, generate_kv_workload

ALL_METHODS = ["logical", "physical", "physiological", "generalized"]


def put_stream(n, prefix="k"):
    return [("put", f"{prefix}{i}", i) for i in range(n)]


class TestKeymap:
    def test_deterministic_and_in_range(self):
        keymap = Keymap(4, seed=7)
        again = Keymap(4, seed=7)
        for i in range(200):
            shard = keymap.shard_of(f"key{i}")
            assert 0 <= shard < 4
            assert shard == again.shard_of(f"key{i}")

    def test_seed_changes_placement(self):
        a, b = Keymap(8, seed=0), Keymap(8, seed=1)
        keys = [f"key{i}" for i in range(100)]
        assert any(a.shard_of(k) != b.shard_of(k) for k in keys)

    def test_all_shards_reachable(self):
        keymap = Keymap(4)
        owners = {keymap.shard_of(f"key{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_single_shard_owns_everything(self):
        keymap = Keymap(1)
        assert keymap.shard_of("anything") == 0

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            Keymap(0)

    def test_split_preserves_per_shard_order(self):
        keymap = Keymap(3)
        stream = put_stream(50)
        parts = keymap.split(stream)
        assert sum(len(p) for p in parts) == len(stream)
        for index, part in enumerate(parts):
            assert all(keymap.shard_of(c[1]) == index for c in part)
            # relative order within a shard matches the original stream
            positions = [stream.index(c) for c in part]
            assert positions == sorted(positions)

    def test_cross_shard_copyadd_refused(self):
        keymap = Keymap(4)
        keys = [f"key{i}" for i in range(100)]
        dst = keys[0]
        src = next(k for k in keys if keymap.shard_of(k) != keymap.shard_of(dst))
        with pytest.raises(ShardRoutingError):
            keymap.owner(("copyadd", dst, (src, 1)))

    def test_colocated_copyadd_allowed(self):
        keymap = Keymap(4)
        keys = [f"key{i}" for i in range(100)]
        dst = keys[0]
        src = next(
            k
            for k in keys[1:]
            if keymap.shard_of(k) == keymap.shard_of(dst)
        )
        assert keymap.owner(("copyadd", dst, (src, 1))) == keymap.shard_of(dst)

    def test_round_trip(self):
        keymap = Keymap(5, seed=3)
        assert Keymap.from_dict(keymap.as_dict()) == keymap


class TestEngineSpec:
    def test_round_trip(self):
        spec = EngineSpec(
            method="logical", commit_every=4, checkpoint_every=10, fsync=False
        )
        assert EngineSpec.from_dict(spec.as_dict()) == spec

    def test_round_trip_is_json_safe(self):
        spec = EngineSpec(method_options={})
        assert EngineSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            EngineSpec.from_dict({"method": "physical", "nope": 1})

    def test_retired_policy_fields(self):
        """The pool's two policy knobs are gone: a keyword is a
        TypeError, a manifest field holding the surviving value is
        dropped, and any other value is refused by name."""
        with pytest.raises(TypeError, match="cache_policy"):
            KVDatabase(cache_policy="lru")
        with pytest.raises(TypeError, match="install_policy"):
            EngineSpec(install_policy="graph")
        old = {**EngineSpec().as_dict(), "install_policy": "graph", "cache_policy": "lru"}
        assert EngineSpec.from_dict(old) == EngineSpec()
        with pytest.raises(ValueError, match="install_policy='legacy'"):
            EngineSpec.from_dict({**old, "install_policy": "legacy"})
        with pytest.raises(ValueError, match="cache_policy='clock'"):
            EngineSpec.from_dict({**old, "cache_policy": "clock"})

    def test_retired_log_fields(self):
        """``group_commit`` and ``truncate_on_checkpoint`` went the same
        way, and ``Machine`` no longer builds a file-backed log."""
        from repro.methods import Machine

        with pytest.raises(TypeError, match="group_commit"):
            KVDatabase(group_commit=4)
        with pytest.raises(TypeError, match="truncate_on_checkpoint"):
            KVDatabase(truncate_on_checkpoint=True)
        with pytest.raises(TypeError, match="log_dir"):
            Machine(log_dir="wal")
        old = {**EngineSpec().as_dict(), "group_commit": 1, "truncate_on_checkpoint": False}
        assert EngineSpec.from_dict(old) == EngineSpec()
        with pytest.raises(ValueError, match="group_commit=4"):
            EngineSpec.from_dict({**old, "group_commit": 4})
        with pytest.raises(ValueError, match="truncate_on_checkpoint=True"):
            EngineSpec.from_dict({**old, "truncate_on_checkpoint": True})

    def test_build_applies_config(self):
        db = EngineSpec(method="physical", commit_every=5, n_pages=4).build()
        assert db.method_name == "physical"
        assert db.commit_every == 5
        assert db.method.n_pages == 4

    def test_build_durable_and_cold_start(self, tmp_path):
        spec = EngineSpec(method="physiological", fsync=False)
        db = spec.build(log_dir=tmp_path)
        db.run(put_stream(10))
        db.sync()
        db.crash()
        reopened = spec.cold_start(tmp_path)
        assert reopened.durable_count() == 10
        assert reopened.method.dump() == apply_to_oracle(put_stream(10))
        db.close()
        reopened.close()


class TestQuiesce:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_quiesce_makes_disk_self_sufficient(self, method, tmp_path):
        """After quiesce, a cold start with recover=False over the disk
        image sees the full state — no replay needed."""
        spec = EngineSpec(method=method, fsync=False, commit_every=3)
        db = spec.build(log_dir=tmp_path)
        db.run(put_stream(20))
        db.quiesce()
        expected = db.method.dump()
        disk = db.method.machine.disk
        cold = spec.cold_start(tmp_path, disk=disk, recover=False)
        assert cold.method.dump() == expected
        db.close()
        cold.close()

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_quiesce_appends_nothing(self, method):
        db = EngineSpec(method=method).build()
        db.run(put_stream(15))
        before = len(db.method.machine.log)
        db.quiesce()
        db.quiesce()
        assert len(db.method.machine.log) == before

    def test_quiesce_is_idempotent_for_logical(self):
        db = EngineSpec(method="logical").build()
        db.run(put_stream(15))
        db.quiesce()
        root_lsn = db.method.shadow.checkpoint_lsn()
        db.quiesce()
        assert db.method.shadow.checkpoint_lsn() == root_lsn
        assert db.method.dump() == apply_to_oracle(put_stream(15))


class TestShardedDatabase:
    def test_routes_and_reads(self):
        sdb = ShardedDatabase.create(n_shards=4)
        stream = put_stream(40)
        sdb.run(stream)
        for _, key, value in stream:
            assert sdb.get(key) == value
        assert sdb.dump() == apply_to_oracle(stream)
        sdb.close()

    def test_commands_land_on_owning_shard(self):
        sdb = ShardedDatabase.create(n_shards=4)
        sdb.run(put_stream(40))
        for index, shard in enumerate(sdb.shards):
            for key in shard.method.dump():
                assert sdb.keymap.shard_of(key) == index
        sdb.close()

    def test_shard_count_respects_keymap(self):
        keymap = Keymap(3)
        with pytest.raises(DeploymentError):
            ShardedDatabase([KVDatabase(), KVDatabase()], keymap, EngineSpec())

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_crash_recover_verify(self, method):
        spec = EngineSpec(method=method, commit_every=3, checkpoint_every=15)
        sdb = ShardedDatabase.create(n_shards=3, spec=spec)
        stream = put_stream(45) + [("add", f"k{i}", 2) for i in range(0, 45, 4)]
        sdb.run(stream)
        sdb.crash()
        sdb.recover()
        durable = sdb.verify_against(stream)
        assert durable <= len(stream)
        sdb.close()

    def test_durable_count_sums_shards(self):
        sdb = ShardedDatabase.create(n_shards=3)
        sdb.run(put_stream(30))
        assert sdb.durable_count() == sum(
            s.durable_count() for s in sdb.shards
        ) == 30
        sdb.close()

    def test_verify_against_splits_stream(self):
        sdb = ShardedDatabase.create(n_shards=3)
        stream = put_stream(30)
        sdb.run(stream)
        assert sdb.verify_against(stream) == 30
        sdb.close()

    def test_report_is_namespaced_per_shard(self):
        sdb = ShardedDatabase.create(n_shards=2)
        sdb.run(put_stream(10))
        report = sdb.report()
        assert report["n_shards"] == 2
        assert "shard00_method_operations" in report
        assert "shard01_method_operations" in report
        total = (
            report["shard00_method_operations"]
            + report["shard01_method_operations"]
        )
        assert total == 10
        sdb.close()

    def test_theory_audit_holds(self):
        sdb = ShardedDatabase.create(
            n_shards=3, spec=EngineSpec(method="physiological", commit_every=2)
        )
        sdb.run(put_stream(30))
        sdb.commit()
        verdict = sdb.theory_audit()
        assert verdict.holds
        assert len(verdict.shard_audits) == 3
        assert not verdict.misplaced
        sdb.close()

    def test_theory_audit_catches_misplaced_key(self):
        """A write that bypasses the router voids the Theorem 3 stitch —
        the deployment audit must say so even though every per-shard
        invariant still holds."""
        sdb = ShardedDatabase.create(n_shards=2)
        sdb.run(put_stream(10))
        sdb.commit()
        key = "k0"
        wrong = 1 - sdb.keymap.shard_of(key)
        sdb.shards[wrong].execute(("put", key, 99))  # around the router
        sdb.shards[wrong].commit()
        verdict = sdb.theory_audit()
        assert not verdict.holds
        assert key in verdict.misplaced[wrong]
        assert "misplaced" in verdict.detail
        sdb.close()


class TestShardedSession:
    def test_session_routes_and_commits_touched_shards(self):
        sdb = ShardedDatabase.create(n_shards=3)
        session = sdb.session(commit_every=5)
        stream = put_stream(23)
        for command in stream:
            session.execute(command)
        session.commit()
        assert session.ops == 23
        assert sdb.durable_count() == 23
        for _, key, value in stream:
            assert session.get(key) == value
        sdb.close()

    def test_last_lsn_tracks_owning_shard(self):
        sdb = ShardedDatabase.create(n_shards=3)
        session = sdb.session()
        session.execute(("put", "a", 1))
        shard = sdb.keymap.shard_of("a")
        assert session.last_shard == shard
        assert session.last_lsn >= 0
        sdb.close()

    def test_commit_returns_covering_stable_lsn(self):
        sdb = ShardedDatabase.create(n_shards=3)
        session = sdb.session(commit_every=100)
        session.execute(("put", "a", 1))
        stable = session.commit()
        shard = sdb.keymap.shard_of("a")
        assert stable >= session.last_lsn
        assert (
            sdb.shards[shard].method.machine.log.stable_lsn
            >= session.last_lsn
        )
        sdb.close()

    def test_sync_barriers_every_shard(self):
        sdb = ShardedDatabase.create(n_shards=3)
        session = sdb.session(commit_every=100)  # no auto-commit
        session.run(put_stream(12))
        session.sync()
        assert sdb.durable_count() == 12
        sdb.close()

    def test_sessions_are_independent(self):
        sdb = ShardedDatabase.create(n_shards=2)
        a, b = sdb.session(), sdb.session()
        assert a.session_id != b.session_id
        a.execute(("put", "x", 1))
        assert b.ops == 0
        sdb.close()

    def test_cross_shard_copyadd_refused_at_session(self):
        sdb = ShardedDatabase.create(n_shards=4, spec=EngineSpec(method="logical"))
        keymap = sdb.keymap
        keys = [f"key{i}" for i in range(100)]
        dst = keys[0]
        src = next(k for k in keys if keymap.shard_of(k) != keymap.shard_of(dst))
        session = sdb.session()
        with pytest.raises(ShardRoutingError):
            session.execute(("copyadd", dst, (src, 1)))
        sdb.close()


class TestManifest:
    def test_create_writes_manifest(self, tmp_path):
        root = tmp_path / "dep"
        sdb = ShardedDatabase.create(root=root, n_shards=3, seed=9)
        sdb.close()
        assert is_deployment_root(root)
        manifest = read_manifest(root)
        assert manifest["n_shards"] == 3
        assert manifest["keymap"] == {"n_shards": 3, "seed": 9}
        assert manifest["shard_dirs"] == [shard_dirname(i) for i in range(3)]
        assert EngineSpec.from_dict(manifest["spec"]) == EngineSpec()
        for dirname in manifest["shard_dirs"]:
            assert (root / dirname).is_dir()

    def test_create_refuses_existing_deployment(self, tmp_path):
        ShardedDatabase.create(root=tmp_path, n_shards=2).close()
        with pytest.raises(DeploymentError, match="already holds"):
            ShardedDatabase.create(root=tmp_path, n_shards=2)

    def test_cold_start_requires_manifest(self, tmp_path):
        with pytest.raises(DeploymentError, match=MANIFEST_NAME):
            ShardedDatabase.cold_start(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DeploymentError, match="corrupt"):
            ShardedDatabase.cold_start(tmp_path)

    def test_wrong_version_rejected(self, tmp_path):
        manifest = {"version": 99, "n_shards": 1, "shard_dirs": ["shard-00"]}
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(DeploymentError, match="version"):
            ShardedDatabase.cold_start(tmp_path)

    def test_manifest_from_before_the_policy_fields_went_cold_starts(self, tmp_path):
        sdb = ShardedDatabase.create(root=tmp_path, n_shards=2)
        sdb.run(put_stream(10))
        sdb.sync()
        sdb.close()
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["spec"].update(install_policy="graph", cache_policy="lru")
        path.write_text(json.dumps(manifest))
        cold = ShardedDatabase.cold_start(tmp_path)
        assert cold.dump() == apply_to_oracle(put_stream(10))
        cold.close()
        manifest["spec"]["install_policy"] = "legacy"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="install_policy='legacy'"):
            ShardedDatabase.cold_start(tmp_path)

    def test_manifest_with_the_log_fields_cold_starts(self, tmp_path):
        """A manifest written while the spec still carried
        ``group_commit`` and ``truncate_on_checkpoint``."""
        sdb = ShardedDatabase.create(root=tmp_path, n_shards=2)
        sdb.run(put_stream(10))
        sdb.sync()
        sdb.close()
        path = tmp_path / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["spec"].update(group_commit=1, truncate_on_checkpoint=False)
        path.write_text(json.dumps(manifest))
        cold = ShardedDatabase.cold_start(tmp_path)
        assert cold.dump() == apply_to_oracle(put_stream(10))
        cold.close()
        manifest["spec"]["group_commit"] = 4
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="group_commit=4"):
            ShardedDatabase.cold_start(tmp_path)

    def test_cold_start_honors_keymap_seed(self, tmp_path):
        sdb = ShardedDatabase.create(root=tmp_path, n_shards=2, seed=5)
        sdb.run(put_stream(10))
        sdb.sync()
        sdb.close()
        cold = ShardedDatabase.cold_start(tmp_path)
        assert cold.keymap == Keymap(2, seed=5)
        assert cold.dump() == apply_to_oracle(put_stream(10))
        cold.close()


class TestMetricsMerge:
    def test_merge_namespaces_and_stays_live(self):
        parent, child = MetricsRegistry(), MetricsRegistry()
        stats = {"forces": 1}
        child.register_collector("log", lambda: stats)
        parent.merge("shard00", child)
        assert parent.snapshot()["shard00.log.forces"] == 1
        stats["forces"] = 5  # late-bound: the merge reads the child live
        assert parent.snapshot()["shard00.log.forces"] == 5

    def test_merge_two_children_cannot_collide(self):
        parent = MetricsRegistry()
        for index in range(2):
            child = MetricsRegistry()
            child.register_collector("log", lambda n=index + 1: {"forces": n})
            parent.merge(f"shard{index:02d}", child)
        snapshot = parent.snapshot()
        assert snapshot["shard00.log.forces"] == 1
        assert snapshot["shard01.log.forces"] == 2

    def test_duplicate_prefix_rejected(self):
        parent = MetricsRegistry()
        parent.merge("shard00", MetricsRegistry())
        with pytest.raises(MetricsError):
            parent.merge("shard00", MetricsRegistry())

    def test_self_merge_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.merge("loop", registry)


class TestShardedWorkloads:
    @pytest.mark.parametrize("method", ["logical", "physical"])
    def test_generated_workload_with_colocated_copyadds(self, method):
        """Generated workloads include cross-key copyadds; dropping the
        cross-shard ones (the router refuses them) must leave a stream
        the deployment runs and verifies."""
        spec = KVWorkloadSpec(
            n_operations=80,
            n_keys=12,
            put_ratio=0.5,
            add_ratio=0.2,
            copyadd_ratio=0.2,
            delete_ratio=0.05,
        )
        stream = generate_kv_workload(11, spec)
        sdb = ShardedDatabase.create(
            n_shards=3, spec=EngineSpec(method=method, commit_every=2)
        )
        runnable = []
        for command in stream:
            try:
                sdb.keymap.owner(command)
            except ShardRoutingError:
                continue
            runnable.append(command)
        sdb.run(runnable)
        sdb.crash()
        sdb.recover()
        sdb.verify_against(runnable)
        sdb.close()
