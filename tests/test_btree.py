"""Unit and property tests for the recoverable B-tree and its split logging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BTree, BTreeError
from repro.btree.tree import data_cells, decode_key, encode_key
from repro.methods.base import Machine
from repro.workloads.btree_load import BTreeWorkloadSpec, generate_btree_keys


def fresh_tree(discipline="generalized", fanout=4, cache=8, unsafe=False) -> BTree:
    return BTree(
        Machine(cache_capacity=cache),
        fanout=fanout,
        split_discipline=discipline,
        unsafe_split_flush=unsafe,
    )


class TestEncoding:
    def test_roundtrip(self):
        for key in (0, 1, 999, 10**11):
            assert decode_key(encode_key(key)) == key

    def test_order_preserving(self):
        keys = [0, 5, 42, 1000, 99999]
        encoded = [encode_key(k) for k in keys]
        assert encoded == sorted(encoded)

    def test_out_of_range(self):
        with pytest.raises(BTreeError):
            encode_key(-1)
        with pytest.raises(BTreeError):
            encode_key(10**12)


class TestBasicOperations:
    def test_insert_search(self):
        tree = fresh_tree()
        tree.insert(5, b"five")
        tree.insert(3, b"three")
        assert tree.search(5) == b"five"
        assert tree.search(3) == b"three"
        assert tree.search(99) is None

    def test_overwrite(self):
        tree = fresh_tree()
        tree.insert(5, b"old")
        tree.insert(5, b"new")
        assert tree.search(5) == b"new"

    def test_delete(self):
        tree = fresh_tree()
        tree.insert(5, b"five")
        tree.delete(5)
        assert tree.search(5) is None

    def test_range_scan_sorted(self):
        tree = fresh_tree()
        for key in (50, 10, 30, 20, 40):
            tree.insert(key, str(key).encode())
        assert [k for k, _ in tree.range_scan(15, 45)] == [20, 30, 40]

    def test_items(self):
        tree = fresh_tree()
        pairs = {k: str(k).encode() for k in range(20)}
        for k, v in pairs.items():
            tree.insert(k, v)
        assert tree.items() == pairs

    def test_bad_discipline(self):
        with pytest.raises(BTreeError):
            BTree(split_discipline="quantum")

    def test_bad_fanout(self):
        with pytest.raises(BTreeError):
            BTree(fanout=1)


class TestSplits:
    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_splits_happen_and_invariants_hold(self, discipline):
        tree = fresh_tree(discipline)
        for key in range(40):
            tree.insert(key, str(key).encode())
        assert tree.splits > 0
        tree.check_invariants()
        assert tree.items() == {k: str(k).encode() for k in range(40)}

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_node_sizes_bounded_after_splits(self, discipline):
        tree = fresh_tree(discipline, fanout=4)
        for key in range(60):
            tree.insert(key, b"v")
        for page_id in tree._all_node_ids():
            assert len(data_cells(tree.pool.get_page(page_id))) <= 4 + 1

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_tree_grows_multiple_levels(self, discipline):
        tree = fresh_tree(discipline, fanout=3)
        pairs = [(k, str(k).encode()) for k in range(120)]
        for key, payload in pairs:
            tree.insert(key, payload)
        assert tree.height() >= 3
        assert tree.root_splits >= 2
        tree.check_invariants()
        assert tree.items() == dict(pairs)

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_deep_tree_recovers(self, discipline):
        tree = fresh_tree(discipline, fanout=3, cache=8)
        pairs = [(k, str(k).encode()) for k in range(120)]
        for key, payload in pairs:
            tree.insert(key, payload)
        tree.commit()
        height_before = tree.height()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        assert tree.height() == height_before >= 3
        assert tree.items() == dict(pairs)

    def test_generalized_registers_flush_constraint(self):
        tree = fresh_tree("generalized", fanout=2)
        for key in range(4):
            tree.insert(key, b"v")
        assert tree.splits >= 1
        assert tree.pool.pending_constraints() != []

    def test_physiological_needs_no_constraints(self):
        tree = fresh_tree("physiological", fanout=2)
        for key in range(4):
            tree.insert(key, b"v")
        assert tree.splits >= 1
        assert tree.pool.pending_constraints() == []

    def test_generalized_logs_fewer_bytes(self):
        """The §6.4 claim: split-move records avoid logging the moved half."""
        pairs = generate_btree_keys(11, BTreeWorkloadSpec(n_keys=150, payload_bytes=64))
        sizes = {}
        for discipline in ("generalized", "physiological"):
            tree = fresh_tree(discipline, fanout=6, cache=64)
            for key, payload in pairs:
                tree.insert(key, payload)
            sizes[discipline] = tree.log_bytes()
            assert tree.splits > 5
        assert sizes["generalized"] < sizes["physiological"]


class TestRecovery:
    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_crash_recover_roundtrip(self, discipline):
        tree = fresh_tree(discipline)
        pairs = generate_btree_keys(5, BTreeWorkloadSpec(n_keys=60))
        for key, payload in pairs:
            tree.insert(key, payload)
        tree.commit()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        assert tree.items() == dict(pairs)

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_uncommitted_tail_is_lost(self, discipline):
        tree = fresh_tree(discipline, cache=64)
        tree.insert(1, b"durable")
        tree.commit()
        tree.insert(2, b"volatile")
        tree.crash()
        tree.recover()
        items = tree.items()
        assert items.get(1) == b"durable"
        assert 2 not in items

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_crash_sweep_with_small_cache(self, discipline):
        """Evictions force mid-split flushes; every crash point recovers
        the durable prefix exactly."""
        pairs = generate_btree_keys(7, BTreeWorkloadSpec(n_keys=40, pattern="sequential"))
        for cut in range(0, len(pairs) + 1, 4):
            tree = fresh_tree(discipline, fanout=4, cache=3)
            for key, payload in pairs[:cut]:
                tree.insert(key, payload)
                tree.commit()
            tree.crash()
            tree.recover()
            tree.check_invariants()
            durable = tree.durable_insert_count()
            assert tree.items() == dict(pairs[:durable]), (discipline, cut)

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_checkpoint_shrinks_recovery_scan(self, discipline):
        pairs = generate_btree_keys(9, BTreeWorkloadSpec(n_keys=40))
        tree = fresh_tree(discipline, cache=64)
        for key, payload in pairs[:30]:
            tree.insert(key, payload)
        tree.checkpoint()
        for key, payload in pairs[30:]:
            tree.insert(key, payload)
        tree.commit()
        tree.crash()
        tree.recover()
        assert tree.items() == dict(pairs)
        # Replay work is bounded by the post-checkpoint suffix.
        assert tree.stats.records_replayed <= (len(pairs) - 30) * 3

    def test_recovery_after_recovery(self):
        tree = fresh_tree("generalized", fanout=3, cache=4)
        pairs = generate_btree_keys(13, BTreeWorkloadSpec(n_keys=30))
        for key, payload in pairs[:15]:
            tree.insert(key, payload)
        tree.commit()
        tree.crash()
        tree.recover()
        for key, payload in pairs[15:]:
            tree.insert(key, payload)
        tree.commit()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        assert tree.items() == dict(pairs)


class TestDeletes:
    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_deletes_survive_crash(self, discipline):
        tree = fresh_tree(discipline, fanout=4, cache=8)
        pairs = [(k, str(k).encode()) for k in range(30)]
        for key, payload in pairs:
            tree.insert(key, payload)
        for key in range(0, 30, 3):
            tree.delete(key)
        tree.commit()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        expected = {k: v for k, v in pairs if k % 3 != 0}
        assert tree.items() == expected

    def test_delete_missing_key_is_harmless(self):
        tree = fresh_tree()
        tree.insert(1, b"one")
        tree.delete(99)
        tree.commit()
        tree.crash()
        tree.recover()
        assert tree.items() == {1: b"one"}

    @pytest.mark.parametrize("discipline", ["generalized", "physiological"])
    def test_mixed_insert_delete_interleaved_with_crashes(self, discipline):
        tree = fresh_tree(discipline, fanout=3, cache=4)
        alive = {}
        for round_number in range(3):
            base = round_number * 20
            for key in range(base, base + 20):
                tree.insert(key, str(key).encode())
                alive[key] = str(key).encode()
            for key in range(base, base + 20, 4):
                tree.delete(key)
                alive.pop(key)
            tree.commit()
            tree.crash()
            tree.recover()
            tree.check_invariants()
            assert tree.items() == alive


class TestCarefulWriteOrdering:
    def test_pool_refuses_old_before_new(self):
        from repro.cache import CachePolicyError

        tree = fresh_tree("generalized", fanout=2, cache=64)
        for key in range(4):
            tree.insert(key, b"v")
        constraint = tree.pool.pending_constraints()[0]
        tree.commit()
        with pytest.raises(CachePolicyError):
            tree.pool.flush_page(constraint.then_page)

    def test_violating_order_loses_data(self):
        """The E6 ablation: flush the truncated old page first, crash
        before the new page reaches disk, and the moved half is gone."""
        pairs = [(k, str(k).encode()) for k in range(12)]
        tree = fresh_tree("generalized", fanout=4, cache=64, unsafe=True)
        for key, payload in pairs:
            tree.insert(key, payload)
            tree.commit()
        assert tree.splits > 0
        tree.crash()
        tree.recover()
        durable = tree.durable_insert_count()
        assert durable == len(pairs)  # the log says everything is durable...
        assert tree.items() != dict(pairs)  # ...but data is lost

    def test_safe_ordering_preserves_data_same_scenario(self):
        pairs = [(k, str(k).encode()) for k in range(12)]
        tree = fresh_tree("generalized", fanout=4, cache=64, unsafe=False)
        for key, payload in pairs:
            tree.insert(key, payload)
            tree.commit()
        tree.crash()
        tree.recover()
        assert tree.items() == dict(pairs)


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_workloads_roundtrip(self, seed):
        pairs = generate_btree_keys(seed, BTreeWorkloadSpec(n_keys=50))
        tree = fresh_tree("generalized", fanout=5, cache=6)
        for key, payload in pairs:
            tree.insert(key, payload)
        tree.commit()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        assert tree.items() == dict(pairs)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=49),
    )
    @settings(max_examples=20, deadline=None)
    def test_crash_at_random_point_recovers_durable_prefix(self, seed, cut):
        pairs = generate_btree_keys(seed, BTreeWorkloadSpec(n_keys=50))
        cut = min(cut, len(pairs))
        tree = fresh_tree("generalized", fanout=4, cache=4)
        for key, payload in pairs[:cut]:
            tree.insert(key, payload)
            tree.commit()
        tree.crash()
        tree.recover()
        tree.check_invariants()
        durable = tree.durable_insert_count()
        assert tree.items() == dict(pairs[:durable])
