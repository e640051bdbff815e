"""Outputs are checked, not assumed.

Every check returns a list of violation strings (empty = fine).  A
violation sets the workload's ``failed_share`` to 1.0 and makes the
command exit non-zero.  :class:`ReferenceLRU` shares no code with
``repro``: it is the oracle the LRU replay paths must match exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List

__all__ = [
    "ReferenceLRU",
    "check_lru_paths",
    "check_policy",
    "check_service",
    "check_cluster",
    "check_net",
    "check_load",
]


class ReferenceLRU:
    """Size-aware LRU on an ``OrderedDict``: insert at MRU, promote on hit,
    evict from the LRU end, never admit an object larger than the cache."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.used = 0
        self.hits = self.misses = self.bytes_hit = self.bytes_missed = 0
        self._sizes: "OrderedDict[int, int]" = OrderedDict()

    def _shrink_to(self, limit: int) -> None:
        while self.used > limit and self._sizes:
            _, size = self._sizes.popitem(last=False)
            self.used -= size

    def request(self, key: int, size: int) -> bool:
        old = self._sizes.get(key)
        if old is not None:
            self.hits += 1
            self.bytes_hit += size
            self._sizes[key] = size
            self._sizes.move_to_end(key)
            self.used += size - old
            self._shrink_to(self.capacity)
            return True
        self.misses += 1
        self.bytes_missed += size
        if size <= self.capacity:
            self._shrink_to(self.capacity - size)
            self._sizes[key] = size
            self.used += size
        return False


def check_lru_paths(requests: Iterable, capacity: int) -> List[str]:
    """``simulate(LRU)`` and ``simulate_batch("LRU")`` against the reference:
    hits and hit bytes must match exactly."""
    from repro import api

    requests = list(requests)
    ref = ReferenceLRU(capacity)
    for req in requests:
        ref.request(req.key, req.size)
    want = (ref.hits, ref.bytes_hit)
    trace = api.Trace(requests, name="ladder-check")
    out = []
    for path, res in (
        ("simulate(LRU)", api.simulate(api.make_policy("LRU", capacity), trace)),
        ("simulate_batch(LRU)", api.simulate_batch("LRU", trace, capacity)),
    ):
        st = res.policy_obj.stats
        if (st.hits, st.bytes_hit) != want:
            out.append(
                f"{path}: hits/hit-bytes {(st.hits, st.bytes_hit)} != reference LRU {want} "
                f"on {len(requests)} requests"
            )
    return out


def check_policy(policy, requests: int, where: str) -> List[str]:
    """One replayed policy: every request counted once, bytes within capacity."""
    out = []
    st = policy.stats
    if st.hits + st.misses != requests:
        out.append(f"{where}: hits {st.hits} + misses {st.misses} != requests {requests}")
    if policy.used > policy.capacity:
        out.append(f"{where}: resident bytes {policy.used} > capacity {policy.capacity}")
    return out


def check_service(service, sent: int, where: str) -> List[str]:
    """A ``CacheService`` after ``sent`` gets: requests = hits + misses + shed
    (a terminal error is a miss that failed), bytes within capacity, no
    exception escaped a worker."""
    snap = service.metrics
    out = []
    hits, misses, shed = snap.hits.value, snap.misses.value, snap.shed.value
    if snap.requests.value != sent or hits + misses + shed != sent:
        out.append(
            f"{where}: sent {sent}, service saw {snap.requests.value} = "
            f"{hits} hits + {misses} misses + {shed} shed"
        )
    if snap.errors.value > misses:
        out.append(f"{where}: {snap.errors.value} errors > {misses} misses")
    cache = service.cache_stats()
    if cache["used_bytes"] > cache["capacity_bytes"]:
        out.append(f"{where}: resident bytes {cache['used_bytes']} > capacity {cache['capacity_bytes']}")
    if service.unhandled_exceptions:
        out.append(f"{where}: {service.unhandled_exceptions} unhandled exceptions")
    return out


def check_cluster(router, sent: int) -> List[str]:
    """A started ``ClusterRouter`` after ``sent`` gets and a one-kill,
    one-restart fault plan: the router's books balance, the plan fired,
    every live node is within its capacity, nothing escaped a worker."""
    stats, m = router.stats(), router.metrics
    out = []
    if stats["requests"] != sent or m.hits.value + m.misses.value + stats["shed"] != sent:
        out.append(f"cluster: sent {sent}, router saw {stats['requests']} = {m.hits.value} hits "
                   f"+ {m.misses.value} misses + {stats['shed']} shed")
    if stats["unhandled_exceptions"]:
        out.append(f"cluster: {stats['unhandled_exceptions']} unhandled exceptions")
    for node_id, node in stats["nodes"].items():
        cache = node.get("cache")
        if cache and cache["used_bytes"] > cache["capacity_bytes"]:
            out.append(f"cluster: node {node_id} holds {cache['used_bytes']} bytes "
                       f"> capacity {cache['capacity_bytes']}")
    if (stats["node_downs"], stats["node_ups"]) != (1, 1):
        out.append(f"cluster: the fault plan did not run: {stats['node_downs']} kills, "
                   f"{stats['node_ups']} restarts")
    return out


def check_net(engine, sent: int) -> List[str]:
    """A ``NetEngine`` after ``sent`` requests: every request has a hit flag
    and was served from a cache or from origin, none errored, every node is
    within its capacity."""
    res = engine.result
    out = []
    if not (len(res.hit_flags) == res.requests == sent):
        out.append(f"net: {sent} sent, {res.requests} counted, {len(res.hit_flags)} hit flags")
    if res.errors or res.cache_hits + res.origin_fetches != sent:
        out.append(f"net: {res.errors} errors; {res.cache_hits} cache hits + "
                   f"{res.origin_fetches} origin fetches != {sent}")
    for node, policy in engine.policies.items():
        if policy.used > policy.capacity:
            out.append(f"net: node {node} holds {policy.used} bytes > capacity {policy.capacity}")
    return out


def check_load(load, where: str) -> List[str]:
    """A driven pass: every request has an outcome and none raised."""
    out = []
    missing = sum(1 for v in load.latency_ns if v < 0)
    if missing:
        out.append(f"{where}: {missing} of {load.n} requests have no outcome")
    if load.exceptions:
        out.append(f"{where}: {load.exceptions} gets raised")
    return out
