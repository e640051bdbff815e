"""Behavioural tests for the eight insertion/promotion comparators."""

from __future__ import annotations

import random

from repro.cache.ascip import ASCIPCache
from repro.cache.daaip import DAAIPCache
from repro.cache.dgippr import DGIPPRCache
from repro.cache.dta import DTACache
from repro.cache.lip import BIPCache, DIPCache, LIPCache
from repro.cache.pipp import PIPPCache
from repro.cache.ship import SHiPCache
from repro.sim.request import Request


def feed(policy, pairs):
    for i, (k, s) in enumerate(pairs):
        policy.request(Request(i, k, s))


class TestLIP:
    def test_inserts_at_lru(self):
        c = LIPCache(100)
        feed(c, [(1, 10), (2, 10)])
        # Key 2 was inserted at the tail — it is the next victim.
        assert c.queue.tail.key == 2

    def test_hit_promotes(self):
        c = LIPCache(100)
        feed(c, [(1, 10), (2, 10), (2, 10)])
        assert c.queue.head.key == 2

    def test_tail_insert_marks_non_mru(self):
        c = LIPCache(100)
        feed(c, [(1, 10)])
        assert c.index[1].inserted_mru is False


class TestBIP:
    def test_epsilon_zero_is_lip(self):
        a = BIPCache(200, epsilon=0.0, rng=random.Random(1))
        b = LIPCache(200)
        pairs = [(k % 7, 10) for k in range(100)]
        feed(a, pairs)
        feed(b, pairs)
        assert a.stats.miss_ratio == b.stats.miss_ratio

    def test_epsilon_one_is_lru(self):
        from repro.cache.lru import LRUCache

        a = BIPCache(200, epsilon=1.0, rng=random.Random(1))
        b = LRUCache(200)
        pairs = [(k % 7, 10) for k in range(100)]
        feed(a, pairs)
        feed(b, pairs)
        assert a.stats.miss_ratio == b.stats.miss_ratio

    def test_invalid_epsilon_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            BIPCache(100, epsilon=1.5)


class TestDIP:
    def test_psel_moves_on_leader_misses(self):
        c = DIPCache(100)
        start = c.psel
        # Find keys hashing into each leader group and miss them.
        lru_leader = next(k for k in range(10_000) if hash(k) % 32 == 0)
        c.request(Request(0, lru_leader, 10))
        assert c.psel == min(start + 1, c._PSEL_MAX)
        bip_leader = next(k for k in range(10_000) if hash(k) % 32 == 1)
        c.request(Request(1, bip_leader, 10))
        assert c.psel == start  # back down


class TestPIPP:
    def test_mid_queue_insertion(self):
        c = PIPPCache(1000, insert_frac=0.5, rng=random.Random(0))
        feed(c, [(k, 10) for k in range(20)])
        keys = c.resident_keys()
        # The most recent insert must not be at the MRU end (head).
        assert keys[0] != 19

    def test_promotion_is_single_step(self):
        c = PIPPCache(1000, insert_frac=0.0, p_prom=1.0, rng=random.Random(0))
        feed(c, [(1, 10), (2, 10), (3, 10)])  # tail-ish inserts: [1,2,3] queue
        before = c.resident_keys()
        i3 = before.index(3)
        c.request(Request(3, 3, 10))  # hit on 3: moves up exactly one slot
        after = c.resident_keys()
        assert after.index(3) == max(i3 - 1, 0)


class TestSHiP:
    def test_dead_signature_gets_lru_insert(self):
        c = SHiPCache(10_000, table_size=64)
        sig_counter_zero = None
        # Drive one signature to zero: insert, evict without reuse, repeat.
        small = SHiPCache(40, table_size=64)
        for i in range(200):
            small.request(Request(i, i, 20))  # pure churn: every line dies
        assert any(v == 0 for v in small._shct), "churn must train dead signatures"

    def test_reuse_trains_counter_up(self):
        c = SHiPCache(1_000, table_size=64)
        c.request(Request(0, 5, 10))
        sig = c._signature(5)
        before = c._shct[sig]
        c.request(Request(1, 5, 10))
        assert c._shct[sig] == min(before + 1, c.max_counter)


class TestDAAIP:
    def test_dead_prediction_inserts_lru(self):
        c = DAAIPCache(400, table_size=16, dead_threshold=1)
        # Churn so signatures go dead.
        for i in range(200):
            c.request(Request(i, i, 100))
        # Most of the queue tail should now be dead-predicted inserts.
        marks = [n.inserted_mru for n in c.queue]
        assert not all(marks), "expected some LRU-position insertions"

    def test_first_hit_is_cautious(self):
        c = DAAIPCache(1_000, table_size=16, dead_threshold=99)  # never dead
        feed(c, [(1, 10), (2, 10), (3, 10)])
        c.request(Request(3, 1, 10))  # hit: full promotion (inserted MRU)
        assert c.queue.head.key == 1


class TestDGIPPR:
    def test_population_evolves(self):
        c = DGIPPRCache(2_000, population=4, window=64, rng=random.Random(3))
        for i in range(2_000):
            c.request(Request(i, i % 37, 10))
        # After > population*window requests, at least one GA generation ran:
        # fitness counters were reset, and chromosomes remain valid.
        for chrom in c._pop:
            assert len(chrom.genes) == 4
            assert all(0.0 <= g <= 1.0 for g in chrom.genes)

    def test_lru_seed_chromosome(self):
        c = DGIPPRCache(1_000)
        assert c._pop[0].genes == [1.0] * 4


class TestASCIP:
    def test_large_objects_denied(self):
        c = ASCIPCache(10_000, init_threshold=100, rng=random.Random(0))
        c.request(Request(0, 1, 10))     # small → MRU
        c.request(Request(1, 2, 5_000))  # large → LRU (modulo 1/32 escape)
        assert c.index[1].inserted_mru is True
        assert c.index[2].inserted_mru is False

    def test_learns_to_deny_big_oneshots(self):
        c = ASCIPCache(20_000, init_threshold=64 * 1024)
        # Dead objects are big (8k) one-shots; a slowly rotating hot set of
        # small (100 B) objects provides reused evictions for the other EWMA.
        t = 0
        denied_big = admitted_big = 0
        for round_ in range(600):
            key_big = 10_000 + t
            c.request(Request(t, key_big, 8_000))
            if round_ >= 300 and c.contains(key_big):
                admitted_big += c.index[key_big].inserted_mru
                denied_big += not c.index[key_big].inserted_mru
            t += 1
            c.request(Request(t, (round_ // 30) % 7, 100))  # rotating hot set
            t += 1
        # In the trained half, big one-shots are predominantly denied.
        assert denied_big > admitted_big

    def test_hits_always_promote(self):
        c = ASCIPCache(1_000)
        feed(c, [(1, 10), (2, 10)])
        c.request(Request(2, 1, 10))
        assert c.queue.head.key == 1
