"""The two-expert MAB: PositionBandit's state, and the update and selection
rules SCIP's kernel applies to it (driven through ``SCIPCache``)."""

from __future__ import annotations

import pytest

from repro.core.mab import PositionBandit
from repro.core.scip import SCIPCache
from repro.sim.request import Request

#: One 10-byte object fits: every new key evicts the resident one.
ONE = 10


def scip(capacity=ONE, mode="threshold", **kw):
    kw.setdefault("update_interval", 10**9)  # λ stays where it starts
    p = SCIPCache(capacity, **kw)
    p.bandit.mode = mode
    return p


def feed(p, keys):
    for k in keys:
        p.request(Request(p.clock, k, 10))


class TestWeights:
    def test_initial_normalised(self):
        b = PositionBandit(initial_w_mru=0.9)
        assert b.w_mru + b.w_lru == pytest.approx(1.0)

    def test_penalize_mru_decreases_w_mru(self):
        # Algorithm 1 literal: an H_m ghost hit penalises the MRU expert.
        p = scip(initial_w_mru=0.6, per_object=False, initial_lambda=0.5)
        feed(p, [1, 2, 1])
        assert p.bandit.penalties_mru == 1
        assert p.w_mru < 0.6
        assert p.w_mru + p.bandit.w_lru == pytest.approx(1.0)

    def test_penalize_lru_increases_w_mru(self):
        p = scip(initial_w_mru=0.4, per_object=False, initial_lambda=0.5)
        feed(p, [1, 2, 1])  # inserted at LRU, so an H_l ghost
        assert p.bandit.penalties_lru == 1
        assert p.w_mru > 0.4

    def test_floor_keeps_both_alive(self):
        # A recurring ZRO pair, every return a long-gap, zero-token ghost:
        # each request penalises the MRU expert at λ = 1.
        p = scip(escape=0.0, deny_gap_factor=0.0, initial_lambda=1.0)
        feed(p, [1, 2] * 100)
        assert p.bandit.penalties_mru >= 190
        assert p.w_mru == 0.01
        # And it can recover: fresh keys now go in at LRU, and each return
        # of an LRU-placed one penalises the LRU expert.
        for i in range(200):
            a, b = 1_000 + 2 * i, 1_001 + 2 * i
            feed(p, [a, b, a])
            if p.w_mru > 0.5:
                break
        assert p.w_mru > 0.5

    def test_penalty_counters(self):
        p = scip(initial_w_mru=0.51, per_object=False, initial_lambda=1.0)
        feed(p, [1, 2, 1])  # H_m ghost: ω_m falls below 0.5
        feed(p, [3, 1])  # 1 went back in at LRU: an H_l ghost
        assert p.bandit.penalties_mru == 1 and p.bandit.penalties_lru == 1

    def test_invalid_initial(self):
        with pytest.raises(ValueError):
            PositionBandit(initial_w_mru=0.0)
        with pytest.raises(ValueError):
            PositionBandit(initial_w_mru=1.0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            PositionBandit(mode="coin-flip")


def inserted_at_mru(p, keys):
    feed(p, keys)
    return [p.index[k].inserted_mru for k in keys]


class TestSelect:
    def test_threshold_mode_deterministic(self):
        assert all(inserted_at_mru(scip(10**6, initial_w_mru=0.9), range(20)))
        assert not any(inserted_at_mru(scip(10**6, initial_w_mru=0.3), range(20)))

    def test_bernoulli_mode_frequency(self):
        picks = inserted_at_mru(scip(10**8, "bernoulli", initial_w_mru=0.7), range(5_000))
        assert 0.65 < sum(picks) / len(picks) < 0.75

    def test_promotion_threshold_asymmetric(self):
        # Insertion at ω_m = 0.3 goes LRU, but promotion (threshold 0.2) stays MRU.
        p = scip(100, initial_w_mru=0.3, promote_threshold=0.2)
        feed(p, [1])
        assert not p.index[1].inserted_mru
        feed(p, [1])
        assert p.index[1].inserted_mru
        p = scip(100, initial_w_mru=0.1, promote_threshold=0.2)
        feed(p, [1, 1])
        assert not p.index[1].inserted_mru

    def test_promotion_threshold_zero_never_demotes(self):
        p = scip(100, initial_w_mru=0.011, promote_threshold=0.0)
        feed(p, [1, 1])
        assert p.index[1].inserted_mru

    def test_promotion_bernoulli_rescaled(self):
        p = scip(100, "bernoulli", initial_w_mru=0.9, promote_threshold=0.2)
        feed(p, [1])
        for _ in range(50):
            feed(p, [1])
            assert p.index[1].inserted_mru
