"""SCI (Algorithm 3) and the Figure 12 enhancement wrappers."""

from __future__ import annotations

import pytest

from repro.cache.lrb import LRBCache
from repro.cache.lruk import LRUKCache
from repro.core.enhance import ASCIPLRB, ASCIPLRUK, SCIPLRB, SCIPLRUK, enhance
from repro.core.sci import SCICache
from repro.core.scip import SCIPCache
from repro.sim.request import Request


def feed(p, keys, size=10, t0=0):
    for i, k in enumerate(keys):
        p.request(Request(t0 + i, k, size))


class TestSCI:
    def test_hits_always_promote_to_mru(self):
        p = SCICache(1_000, update_interval=10**9)
        feed(p, [1, 2, 3])
        p.request(Request(3, 1, 10))
        assert p.queue.head.key == 1
        assert p.index[1].inserted_mru is True

    def test_shares_insertion_machinery_with_scip(self):
        """SCI inherits SCIP's ghost-driven insertion (Algorithm 3 L6-21)."""
        p = SCICache(50, update_interval=10**9, escape=0.0)
        p.request(Request(0, 7, 10))
        feed(p, range(900, 905), t0=1)
        for i in range(int(p._tenure_ewma * p.deny_gap_factor) + 50):
            p.request(Request(10 + i, 800, 10))
        before = p.zro_denials
        p.request(Request(p.clock + 1, 7, 10))
        assert p.zro_denials == before + 1

    def test_never_demotes_hits(self, cdn_t_small):
        p = SCICache(int(cdn_t_small.working_set_size * 0.02))
        for r in cdn_t_small:
            p.request(r)
        assert p.pzro_demotions == 0


class TestEnhanceFactory:
    def test_known_hosts(self):
        assert isinstance(enhance("LRU-K", 1_000), SCIPLRUK)
        assert isinstance(enhance("LRB", 1_000), SCIPLRB)

    def test_multichain_refused(self):
        for host in ["ARC", "S4LRU", "CACHEUS"]:
            with pytest.raises(ValueError, match="multi-chain"):
                enhance(host, 1_000)

    def test_unknown_host(self):
        with pytest.raises(ValueError, match="no SCIP enhancement"):
            enhance("NOPE", 1_000)


class TestSCIPLRUK:
    def test_victim_prefers_sub_k_history(self):
        p = SCIPLRUK(30, k=2, update_interval=10**9)
        feed(p, [1, 1, 2, 2, 3])
        p.request(Request(5, 4, 10))
        assert not p.contains(3)  # infinite K-distance victim
        assert p.contains(1) and p.contains(2)

    def test_sample_below_one_rejected(self):
        """An empty inspection window has no victim to offer: refused when
        built, not at the first eviction."""
        for cls in (SCIPLRUK, ASCIPLRUK):
            for sample in (0, -3):
                with pytest.raises(ValueError, match="sample"):
                    cls(100, sample=sample)

    def test_runs_clean_on_cdn(self, cdn_t_small):
        p = SCIPLRUK(int(cdn_t_small.working_set_size * 0.02))
        for r in cdn_t_small:
            p.request(r)
            assert p.used <= p.capacity
        p.check_invariants()

    def test_improves_plain_lruk(self, cdn_t_small):
        cap = int(cdn_t_small.working_set_size * 0.02)
        host = LRUKCache(cap)
        enhanced = SCIPLRUK(cap)
        for r in cdn_t_small:
            host.request(r)
            enhanced.request(r)
        assert enhanced.stats.miss_ratio <= host.stats.miss_ratio + 0.01


class TestSCIPLRB:
    def test_runs_clean(self, cdn_t_small):
        p = SCIPLRB(
            int(cdn_t_small.working_set_size * 0.02),
            learner_kwargs={"memory_window": 3_000, "retrain_interval": 4_000},
        )
        for r in cdn_t_small:
            p.request(r)
            assert p.used <= p.capacity
        assert p.learner.trainings >= 1

    def test_pool_consistent_with_index(self, cdn_t_small):
        p = SCIPLRB(
            int(cdn_t_small.working_set_size * 0.03),
            learner_kwargs={"memory_window": 3_000, "retrain_interval": 4_000},
        )
        for r in cdn_t_small:
            p.request(r)
        assert set(p.learner._key_pos) == set(p.index)


class TestASCIPVariants:
    def test_ascip_lruk_runs(self, cdn_t_small):
        p = ASCIPLRUK(int(cdn_t_small.working_set_size * 0.02))
        for r in cdn_t_small:
            p.request(r)
        assert 0.0 < p.stats.miss_ratio < 1.0

    def test_ascip_lrb_runs(self, cdn_t_small):
        p = ASCIPLRB(
            int(cdn_t_small.working_set_size * 0.02),
            learner_kwargs={"memory_window": 3_000, "retrain_interval": 4_000},
        )
        for r in cdn_t_small:
            p.request(r)
        assert 0.0 < p.stats.miss_ratio < 1.0

    def test_names_match_figure12(self):
        assert SCIPLRUK(100).name == "LRU-K-SCIP"
        assert ASCIPLRUK(100).name == "LRU-K-ASCIP"
        assert SCIPLRB(100).name == "LRB-SCIP"
        assert ASCIPLRB(100).name == "LRB-ASCIP"
