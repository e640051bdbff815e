"""Algorithm 2 (UPDATELR) unit tests."""

from __future__ import annotations

import random

import pytest

from repro.core.learning import LAMBDA_MAX, LAMBDA_MIN, LearningRateController
from repro.core.scip import SCIPCache


class TestUpdateLR:
    def test_amplifies_on_positive_gradient(self):
        """λ went up and the hit rate went up → amplify the move."""
        c = LearningRateController(initial=0.1)
        # Manufacture δ ≠ 0: force the internal λ history.
        c._prev, c._prev2 = 0.2, 0.1  # δ = +0.1
        new = c.update(hit_rate_now=0.5, hit_rate_prev=0.4)  # Δ = +0.1
        # ratio = 1.0 → λ = min(0.2 + 0.2·1.0, 1) = 0.4
        assert new == pytest.approx(0.4)

    def test_reverses_on_negative_gradient(self):
        c = LearningRateController(initial=0.1)
        c._prev, c._prev2 = 0.2, 0.1  # δ = +0.1
        new = c.update(hit_rate_now=0.3, hit_rate_prev=0.4)  # Δ = −0.1
        # ratio = −1 → λ = max(0.2 − 0.2, λ_min) = λ_min
        assert new == pytest.approx(LAMBDA_MIN)

    def test_clamped_at_max(self):
        c = LearningRateController(initial=0.9)
        c._prev, c._prev2 = 0.9, 0.1  # δ = 0.8
        new = c.update(hit_rate_now=0.9, hit_rate_prev=0.0)  # huge Δ
        assert new == LAMBDA_MAX

    def test_stagnation_counts_unlearn(self):
        c = LearningRateController(initial=0.1, unlearn_limit=3)
        for _ in range(2):
            c.update(0.2, 0.2)  # δ=0 and Δ=0 → stagnant
        assert c.unlearn_count == 2
        assert c.restarts == 0

    def test_random_restart_after_limit(self):
        c = LearningRateController(initial=0.1, unlearn_limit=3, rng=random.Random(5))
        for _ in range(3):
            c.update(0.0, 0.0)  # zero hit rate → stagnant
        assert c.restarts == 1
        assert LAMBDA_MIN <= c.value <= LAMBDA_MAX
        assert c.unlearn_count == 0

    def test_improving_hit_rate_breaks_stagnation_count(self):
        c = LearningRateController(initial=0.1, unlearn_limit=2)
        c.update(0.3, 0.2)  # δ=0 but Δ>0 and HR>0 → not stagnant
        assert c.unlearn_count == 0

    def test_gradient_step_resets_unlearn(self):
        c = LearningRateController(initial=0.1, unlearn_limit=10)
        c.update(0.0, 0.0)
        assert c.unlearn_count == 1
        c._prev, c._prev2 = 0.2, 0.1
        c.update(0.5, 0.4)
        assert c.unlearn_count == 0

    def test_lambda_bounds_always_hold(self):
        rng = random.Random(0)
        c = LearningRateController(initial=0.5, rng=rng)
        for _ in range(500):
            c.update(rng.random(), rng.random())
            assert LAMBDA_MIN <= c.value <= LAMBDA_MAX

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            LearningRateController(initial=0.0)
        with pytest.raises(ValueError):
            LearningRateController(initial=1.5)

    def test_unlearn_limit_below_one_rejected(self):
        """A limit under 1 would restart λ on every window whose δ is 0,
        even one whose hit rate improved — refused when built, by the
        controller and by the policies that build one."""
        for limit in (0, -1):
            with pytest.raises(ValueError, match="unlearn_limit"):
                LearningRateController(unlearn_limit=limit)
            with pytest.raises(ValueError, match="unlearn_limit"):
                SCIPCache(100, unlearn_limit=limit)

    def test_history_shifts(self):
        c = LearningRateController(initial=0.1)
        c.update(0.1, 0.1)
        assert c._prev2 == pytest.approx(0.1)
        assert c.updates == 1
