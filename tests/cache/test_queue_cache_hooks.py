"""QueueCache hook contract: the kernel must call hooks exactly when the
documentation says, with consistent state at each call.

Every case runs through both drivers — one ``request()`` per element and
``replay_columns`` — and every callback checks the state it is promised:
bytes in use equal the queue's bytes, the queue and the index hold the same
objects, and the clock counts the requests recorded so far."""

from __future__ import annotations

import pytest

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.sim.request import Request

DRIVERS = ("request", "replay_columns")


class Recorder(QueueCache):
    """Instrumented policy that logs every hook invocation."""

    name = "recorder"

    def __init__(self, capacity, insert_pos=MRU_POS):
        super().__init__(capacity)
        self.log = []
        self._pos = insert_pos
        self.recorded = 0

    def _check(self):
        assert self.used == self.queue.bytes
        assert len(self.queue) == len(self.index)
        assert self.clock == self.recorded

    def _on_access(self, key, size):
        self._check()
        self.recorded += 1

    def _insert_position(self, key, size):
        self._check()
        self.log.append(("pos", key))
        return self._pos

    def _on_insert(self, node):
        self._check()
        self.log.append(("insert", node.key, node.inserted_mru))

    def _on_hit(self, node):
        self._check()
        self.log.append(("hit", node.key))
        return MRU_POS

    def _on_evict(self, node):
        self._check()
        self.log.append(("evict", node.key, bool(node.hit_token)))

    # Checked, not logged: the state promise covers every extension point.
    def _before_admit(self, key, size):
        self._check()
        return True

    def _choose_victim(self):
        self._check()
        return self.queue.tail

    def _after_request(self, hit):
        self._check()


def send(policy, driver, key, size):
    """One recorded request through ``driver``."""
    if driver == "request":
        policy.request(Request(policy.clock, key, size))
    else:
        policy.replay_columns([key], [size])


class TestHookProtocol:
    def test_miss_calls_pos_then_insert(self):
        for driver in DRIVERS:
            p = Recorder(100)
            send(p, driver, 1, 10)
            assert p.log == [("pos", 1), ("insert", 1, True)]

    def test_lru_pos_marks_node(self):
        for driver in DRIVERS:
            p = Recorder(100, insert_pos=LRU_POS)
            send(p, driver, 1, 10)
            assert p.log[-1] == ("insert", 1, False)

    def test_hit_calls_only_on_hit(self):
        for driver in DRIVERS:
            p = Recorder(100)
            send(p, driver, 1, 10)
            p.log.clear()
            send(p, driver, 1, 10)
            assert p.log == [("hit", 1)]

    def test_eviction_fires_before_insert_hook(self):
        for driver in DRIVERS:
            p = Recorder(25)
            send(p, driver, 1, 10)
            send(p, driver, 2, 10)
            p.log.clear()
            send(p, driver, 3, 10)  # evicts 1 first, then inserts 3
            assert p.log == [("evict", 1, False), ("pos", 3), ("insert", 3, True)]

    def test_evict_sees_hit_token(self):
        for driver in DRIVERS:
            p = Recorder(25)
            for key in (1, 1, 2, 3):  # the hit sets 1's token; 3 evicts 1
                send(p, driver, key, 10)
            evicts = [e for e in p.log if e[0] == "evict"]
            assert evicts == [("evict", 1, True)]

    def test_remove_does_not_fire_evict_hook(self):
        for driver in DRIVERS:
            p = Recorder(100)
            send(p, driver, 1, 10)
            p.log.clear()
            p.remove(1)
            assert p.log == []

    def test_bypass_fires_no_hooks(self):
        for driver in DRIVERS:
            p = Recorder(100)
            send(p, driver, 9, 500)
            assert p.log == []


@pytest.mark.parametrize("driver", DRIVERS)
def test_every_callback_sees_current_state(driver):
    """A churny mix — hits, growth on a hit, evictions — through one chunk
    (or one ``request()`` each): the state checks run in every callback."""
    p = Recorder(60)
    pairs = [(k % 3 if k % 2 else k % 11, 5 + (k * 3) % 11) for k in range(200)]
    if driver == "request":
        for key, size in pairs:
            send(p, driver, key, size)
    else:
        p.replay_columns([k for k, _ in pairs], [s for _, s in pairs])
    assert p.clock == len(pairs)
    assert {e[0] for e in p.log} == {"pos", "insert", "hit", "evict"}
    p.check_invariants()
