"""Property-based invariant tests for SCIP's learned components.

Hypothesis drives arbitrary request streams and update sequences; at every
step the paper-mandated invariants must hold:

* the bandit's execution probabilities satisfy ``ω_m + ω_l = 1`` with both
  weights in ``[0, 1]`` (Algorithm 1 keeps a normalised pair; the EXP3
  exploration floor additionally keeps both ≥ 0.01),
* the learning rate stays inside ``[λ_min, λ_max]`` through every
  hill-climbing step and random restart (Algorithm 2's clamps),
* the FIFO history lists ``H_m`` / ``H_l`` never exceed their byte budgets
  (Algorithm 1, L34-38 trims before appending),
* the cache itself never holds more than ``capacity`` bytes.

These complement the scenario tests in ``test_scip*.py``: those check that
specific traffic patterns produce specific adaptations; these check that *no*
input sequence can corrupt the learner state.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryList
from repro.core.learning import LAMBDA_MAX, LAMBDA_MIN, LearningRateController
from repro.core.scip import SCIPCache
from repro.sim.request import Request

#: Request streams over a small hot key space so ghosts recur often.
streams = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 500)), min_size=1, max_size=500
)


@settings(max_examples=50, deadline=None)
@given(streams, st.integers(500, 5_000), st.integers(0, 2**31 - 1))
def test_scip_invariants_hold_at_every_request(data, capacity, seed):
    # A tiny update interval forces many UPDATELR calls per example.
    p = SCIPCache(capacity, update_interval=16, seed=seed)
    for i, (key, size) in enumerate(data):
        p.request(Request(i, key, size))
        b = p.bandit
        assert abs(b.w_mru + b.w_lru - 1.0) < 1e-9
        # The EXP3 exploration floor keeps both experts alive.
        assert 0.01 - 1e-12 <= b.w_mru <= 0.99 + 1e-12
        assert 0.01 - 1e-12 <= b.w_lru <= 0.99 + 1e-12
        assert LAMBDA_MIN <= p.lr.value <= LAMBDA_MAX
        assert p.h_m.bytes <= p.h_m.capacity
        assert p.h_l.bytes <= p.h_l.capacity
        assert p.used <= p.capacity
    # Full structural audit (queue links, history accounting, weight pair).
    p.check_invariants()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        max_size=150,
    ),
    st.integers(0, 2**31 - 1),
    st.integers(1, 5),
)
def test_learning_rate_stays_in_bounds(hit_rate_pairs, seed, unlearn_limit):
    lr = LearningRateController(rng=random.Random(seed), unlearn_limit=unlearn_limit)
    for now, prev in hit_rate_pairs:
        lr.update(now, prev)
        assert LAMBDA_MIN <= lr.value <= LAMBDA_MAX


#: (op, key, size): op 0 = add, 1 = ghost pop, 2 = delete.
history_ops = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 30), st.integers(1, 400)), max_size=300
)


@settings(max_examples=100, deadline=None)
@given(history_ops, st.integers(0, 2_000))
def test_history_list_never_exceeds_its_byte_budget(ops, capacity):
    h = HistoryList(capacity)
    shadow: dict = {}  # key -> size, the expected contents modulo FIFO trims
    for op, key, size in ops:
        if op == 0:
            h.add(key, size, hits=size % 2, flag=size % 3, time=size)
            if size <= capacity:
                shadow[key] = size
        elif op == 1:
            entry = h.pop(key)
            if entry is not None:
                assert shadow.pop(key, None) == entry[0]
        else:
            present = key in h
            assert h.delete(key) == present
            shadow.pop(key, None)
        assert h.bytes <= capacity
        assert h.bytes == sum(s for s, _, _, _ in h._entries.values())
        h.check_invariants()
        # Everything resident must still be shadow-known (FIFO trims only
        # ever remove entries, never invent them).
        for k in h.keys():
            assert k in shadow
