"""Stateful property testing of SCIP via a hypothesis rule machine.

The machine issues arbitrary interleavings of requests (hot keys, fresh
keys, ghosts re-requested from the history lists) and of every entry point
that reaches the policy's state from outside a request: an off-record
``admit``, ``import_resident`` fed another policy's ``export_residents``,
``remove``, a capacity shrink followed by ``_make_room(0)`` (how
``TenantPartitionedCache.set_quotas`` does it) and a grow, attaching and
detaching a probe that needs records and one that folds, and a
``replay_columns`` chunk between single ``request()`` calls.  After every
step the policy must equal :class:`ReferenceSCIP` driven through the same
steps — every decision and every ``scip_state`` field — and the global
invariants must hold: byte accounting, queue/index coherence, history
budgets, weight normalisation, and "resident xor ghost" (an object the
cache reports resident must not simultaneously be in a history list).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.cache.lru import LRUCache
from repro.core.scip import SCIPCache
from repro.obs.probe import Probe
from repro.obs.sinks import RegistryRecorder, RingBufferSink
from repro.sim.request import Request
from tests.core.scip_reference import ReferenceSCIP, assert_same_state


class SCIPMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(200, 3_000),
        history_fraction=st.sampled_from([0.5, 2.0, 16.0]),
        escape=st.sampled_from([0.0, 0.125, 1.0]),
        deny_gap_factor=st.sampled_from([0.0, 2.5]),
        mode=st.sampled_from(["threshold", "bernoulli"]),
    )
    def setup(self, capacity, history_fraction, escape, deny_gap_factor, mode):
        params = dict(
            history_fraction=history_fraction,
            escape=escape,
            deny_gap_factor=deny_gap_factor,
            update_interval=64,
            seed=7,
        )
        self.scip = SCIPCache(capacity, **params)
        self.scip.bandit.mode = mode
        self.ref = ReferenceSCIP(capacity, mode=mode, **params)
        self.t = 0

    def _req(self, key: int, size: int) -> None:
        hit = self.scip.request(Request(self.t, key, size))
        self.t += 1
        assert hit == self.ref.request(key, size)

    @rule(key=st.integers(0, 5), size=st.integers(1, 200))
    def hot_request(self, key, size):
        self._req(key, size)

    @rule(size=st.integers(1, 400))
    def fresh_request(self, size):
        self._req(10_000 + self.t, size)

    @rule(which=st.sampled_from(["h_m", "h_l"]), size=st.integers(1, 200))
    def ghost_comeback(self, which, size):
        ghosts = getattr(self.scip, which).keys()
        if ghosts:
            self._req(ghosts[0], size)

    @rule(size=st.integers(1, 100))
    def giant_then_small(self, size):
        self._req(77_777, self.scip.capacity + 1)  # bypassed
        self._req(88_000 + self.t, size)

    # -- entry points from outside a request ---------------------------------------
    @rule(key=st.integers(0, 12), size=st.integers(1, 300))
    def admit(self, key, size):
        assert self.scip.admit(key, size) == self.ref.admit(key, size)

    @rule(keys=st.lists(st.integers(20, 40), min_size=1, max_size=12), size=st.integers(1, 150))
    def import_from_lru(self, keys, size):
        donor = LRUCache(self.scip.capacity)
        for i, key in enumerate(keys):
            donor.request(Request(i, key, size))
        for key, size in donor.export_residents():
            assert self.scip.import_resident(key, size) == self.ref.admit(key, size)

    @rule(pick=st.integers(0, 1_000))
    def remove(self, pick):
        resident = list(self.scip.index)
        if resident:
            key = resident[pick % len(resident)]
            assert self.scip.remove(key).key == key
            self.ref.remove(key)

    @rule(fraction=st.floats(0.2, 0.9))
    def quota_shrink(self, fraction):
        quota = max(int(self.scip.capacity * fraction), 1)
        self.scip.capacity = quota
        if self.scip.used > quota:
            self.scip._make_room(0)
        self.ref.resize(quota)

    @rule(extra=st.integers(1, 2_000))
    def quota_grow(self, extra):
        self.scip.capacity += extra
        self.ref.resize(self.ref.capacity + extra)

    @rule(needs_records=st.booleans())
    def attach_probe(self, needs_records):
        sinks = [RegistryRecorder()] + ([RingBufferSink(maxlen=8)] if needs_records else [])
        self.scip.attach_probe(Probe(sinks))

    @rule()
    def detach_probe(self):
        self.scip.detach_probe()

    @rule(pairs=st.lists(st.tuples(st.integers(0, 30), st.integers(1, 300)), max_size=40))
    def replay_chunk(self, pairs):
        out: list = []
        self.scip.replay_columns([k for k, _ in pairs], [s for _, s in pairs], out)
        assert out == [self.ref.request(k, s) for k, s in pairs]

    # -- invariants ----------------------------------------------------------------
    @invariant()
    def equals_the_reference(self):
        if not hasattr(self, "scip"):
            return
        assert_same_state(self.scip, self.ref)

    @invariant()
    def structures_coherent(self):
        if not hasattr(self, "scip"):
            return
        self.scip.check_invariants()

    @invariant()
    def resident_not_ghost(self):
        if not hasattr(self, "scip"):
            return
        for key in list(self.scip.index):
            assert key not in self.scip.h_m, f"{key} resident AND in H_m"
            assert key not in self.scip.h_l, f"{key} resident AND in H_l"

    @invariant()
    def weights_normalised(self):
        if not hasattr(self, "scip"):
            return
        b = self.scip.bandit
        assert abs(b.w_mru + b.w_lru - 1.0) < 1e-9
        assert 0.0 < b.w_mru < 1.0


SCIPMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
TestSCIPStateMachine = SCIPMachine.TestCase
