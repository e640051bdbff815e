"""Property-based tests of the Algorithm 2 controller."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.learning import LAMBDA_MAX, LAMBDA_MIN, LearningRateController

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(rates, rates), min_size=1, max_size=120), st.integers(0, 2**16))
def test_lambda_always_in_bounds(updates, seed):
    c = LearningRateController(initial=0.1, rng=random.Random(seed))
    for now, prev in updates:
        lam = c.update(now, prev)
        assert LAMBDA_MIN <= lam <= LAMBDA_MAX
        assert c.unlearn_count <= c.unlearn_limit


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16))
def test_restart_draws_are_in_range_and_seeded(seed):
    a = LearningRateController(initial=0.1, unlearn_limit=1, rng=random.Random(seed))
    b = LearningRateController(initial=0.1, unlearn_limit=1, rng=random.Random(seed))
    for _ in range(3):
        la = a.update(0.0, 0.0)
        lb = b.update(0.0, 0.0)
        assert la == lb  # same seed → same restart draws
        assert LAMBDA_MIN <= la <= LAMBDA_MAX
    assert a.restarts >= 1
