"""Hypothesis stateful (model-based) tests.

Two machines:

- ``PoolMachine`` drives a :class:`BufferPool` with random updates,
  flushes, reads, and crashes against a pair of model dicts (volatile
  view, durable view).  The invariant: reads always see the volatile
  view; after a crash the pool sees exactly the durable view.
- ``EngineMachine`` drives a :class:`KVDatabase` (rotating through all
  four §6 methods) with random commands, commits, checkpoints, and
  crash/recover cycles, verifying the durable-prefix oracle after every
  crash and auditing the Recovery Invariant after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cache import BufferPool
from repro.engine import KVDatabase
from repro.storage import Disk

PAGES = [f"p{i}" for i in range(5)]
KEYS = [f"k{i}" for i in range(5)]


class PoolMachine(RuleBasedStateMachine):
    """Buffer pool versus a two-level (volatile/durable) model."""

    def __init__(self):
        super().__init__()
        self.disk = Disk()
        self.pool = BufferPool(self.disk, capacity=3)
        self.volatile: dict[str, dict] = {}
        self.durable: dict[str, dict] = {}

    @rule(page=st.sampled_from(PAGES), cell=st.sampled_from(KEYS), value=st.integers(0, 99))
    def write(self, page, cell, value):
        self.pool.update(page, lambda p: p.put(cell, value), create=True)
        self.volatile.setdefault(page, {})[cell] = value

    @rule(page=st.sampled_from(PAGES))
    def flush(self, page):
        if self.pool.is_cached(page):
            self.pool.flush_page(page)
        # Whatever was volatile for this page is durable now (if the page
        # was dirty) — eviction-driven flushes are handled in `write` via
        # the eviction model below being unnecessary: we recompute durable
        # lazily from the disk in the invariant instead.

    @rule(page=st.sampled_from(PAGES))
    def read(self, page):
        expected = self.volatile.get(page)
        if expected is None:
            return
        cached = self.pool.get_page(page, create=True)
        for cell, value in expected.items():
            assert cached.get(cell) == value

    @rule()
    def crash(self):
        self.pool.crash()
        # Volatile view degrades to whatever the disk holds.
        self.volatile = {
            page.page_id: dict(page.cells) for page in self.disk.snapshot().values()
        }

    @invariant()
    def clean_pages_match_disk(self):
        """A cached page that is not dirty must equal its disk image —
        otherwise updates were lost or invented."""
        for page_id in self.pool.cached_page_ids():
            if self.pool.is_dirty(page_id) or not self.disk.has_page(page_id):
                continue
            assert self.pool.get_page(page_id).cells == self.disk.read_page(page_id).cells

    @invariant()
    def reads_see_volatile_view(self):
        for page_id, cells in self.volatile.items():
            if not self.pool.is_cached(page_id) and not self.disk.has_page(page_id):
                continue
            page = self.pool.get_page(page_id, create=True)
            for cell, value in cells.items():
                assert page.get(cell) == value


PoolMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestPoolMachine = PoolMachine.TestCase


class EngineMachine(RuleBasedStateMachine):
    """A KV engine versus the durable-prefix oracle, under random chaos."""

    methods = st.sampled_from(["logical", "physical", "physiological", "generalized"])

    @initialize(method=methods, capacity=st.integers(2, 6), group=st.integers(1, 4))
    def setup(self, method, capacity, group):
        self.method = method
        self.db = KVDatabase(
            method=method,
            cache_capacity=capacity,
            commit_every=group,
            n_pages=4,
        )
        # The model: every mutation the surviving incarnations ran.
        self.history = []

    def execute(self, command):
        self.db.execute(command)
        self.history.append(command)

    @rule(key=st.sampled_from(KEYS), value=st.integers(0, 999))
    def put(self, key, value):
        self.execute(("put", key, value))

    @rule(key=st.sampled_from(KEYS), delta=st.integers(1, 50))
    def add(self, key, delta):
        self.execute(("add", key, delta))

    @rule(dst=st.sampled_from(KEYS), src=st.sampled_from(KEYS), delta=st.integers(1, 9))
    @precondition(lambda self: self.method in ("logical", "physical", "generalized"))
    def copyadd(self, dst, src, delta):
        self.execute(("copyadd", dst, (src, delta)))

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        self.execute(("delete", key, None))

    @rule()
    def commit(self):
        self.db.commit()

    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @rule()
    def crash_and_recover(self):
        self.db.crash_and_recover()
        durable = self.db.verify_against(self.history)  # raises on divergence
        # The surviving history is the durable prefix.
        del self.history[durable:]

    @invariant()
    def committed_view_is_oracle_consistent(self):
        """Without crashing, the full applied history must be visible."""
        from repro.workloads.kv import apply_to_oracle

        oracle = apply_to_oracle(self.history)
        for key in KEYS:
            assert self.db.get(key) == oracle.get(key)

    @invariant()
    def recovery_invariant_holds(self):
        """§4's contract, audited every step: the operations recovery
        would not redo form an installation-graph prefix that explains
        the stable state."""
        verdict = self.db.theory_audit()
        assert verdict.holds, verdict.detail


EngineMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
