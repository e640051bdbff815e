"""A naive transcription of SCIP: the oracle that shares no code with it.

:class:`ReferenceSCIP` follows Algorithm 1, Algorithm 2 and the per-object
table of ``repro.core.scip``'s docstring step by step, in the order that
docstring states for floating-point operations and RNG draws, over plain
lists and dicts and its own ``random.Random(seed)``.  Nothing here imports
from ``repro``: it is what :class:`repro.core.scip.SCIPCache` (and SCI, with
``always_mru=True``) is checked against, decision by decision and field by
field (:func:`scip_state` reads the same fields off a production policy
that :meth:`ReferenceSCIP.state` reports).

It is slow on purpose: the cache is a list of keys, LRU end first, and every
re-placement is a list removal.
"""

from __future__ import annotations

import math
import random

NORMAL, DENIED, DEMOTED, SUSPECT = 0, 1, 2, 4
LAMBDA_MIN, LAMBDA_MAX = 0.001, 1.0
FLOOR = 0.01


class ReferenceSCIP:
    """SCIP as the docstring tells it.  Keyword arguments are
    ``SCIPCache``'s, plus ``mode`` (the bandit's) and ``always_mru`` (SCI)."""

    def __init__(
        self,
        capacity,
        history_fraction=32.0,
        update_interval=1000,
        initial_lambda=0.1,
        initial_w_mru=0.9,
        escape=1 / 8,
        deny_gap_factor=2.5,
        promote_threshold=0.0,
        per_object=True,
        use_hit_token=True,
        unlearn_limit=10,
        seed=0,
        mode="threshold",
        always_mru=False,
    ):
        self.capacity = capacity
        self.update_interval = update_interval
        self.escape = escape
        self.deny_gap_factor = deny_gap_factor
        self.promote_threshold = promote_threshold
        self.per_object = per_object
        self.use_hit_token = use_hit_token
        self.unlearn_limit = unlearn_limit
        self.mode = mode
        self.always_mru = always_mru
        self.rng = random.Random(seed)
        self.clock = 0
        self.used = 0
        # The cache: keys LRU end first, and each key's node.
        self.order = []
        self.nodes = {}
        # The history lists: key -> (size, hits, flag, eviction time), oldest first.
        self.history_capacity = int(capacity * history_fraction)
        self.h_m, self.h_l = {}, {}
        self.h_m_bytes = self.h_l_bytes = 0
        # The two experts.
        self.w_mru, self.w_lru = initial_w_mru, 1.0 - initial_w_mru
        self.penalties_mru = self.penalties_lru = 0
        # Algorithm 2.
        self.lam = self.lam_prev = self.lam_prev2 = initial_lambda
        self.unlearn_count = self.updates = self.restarts = 0
        self.win_reqs = self.win_hits = 0
        self.prev_hit_rate = 0.0
        # The per-object layer.
        self.tenure = 1000.0
        self.conf = {}
        self.hits = self.misses = self.bytes_hit = self.bytes_missed = 0
        self.evictions = self.bypasses = 0
        self.ghost_m = self.ghost_l = self.denials = self.demotions = 0

    # -- entry points ----------------------------------------------------------------
    def request(self, key, size):
        self.clock += 1
        hit = key in self.nodes
        if hit:
            self.hits += 1
            self.bytes_hit += size
            self._promote(key, size)
        else:
            self.misses += 1
            self.bytes_missed += size
            if size > self.capacity:
                self.bypasses += 1
            else:
                self._admit(key, size)
        self.win_reqs += 1
        if hit:
            self.win_hits += 1
        if self.win_reqs >= self.update_interval:
            self._update_lambda()
        return hit

    def admit(self, key, size):
        """An admission no request counts, at the current clock."""
        if size > self.capacity or key in self.nodes:
            return False
        self._admit(key, size)
        return True

    def remove(self, key):
        """``C.REMOVE``: the object leaves without a history record."""
        node = self.nodes.pop(key, None)
        if node is not None:
            self.order.remove(key)
            self.used -= node["size"]

    def resize(self, capacity):
        """A new capacity; a shrink evicts at once."""
        self.capacity = capacity
        self._evict(0)

    # -- Algorithm 1 -------------------------------------------------------------------
    def _promote(self, key, size):
        node = self.nodes[key]
        node["hits"] += 1
        self.used += size - node["size"]
        node["size"] = size
        self.order.remove(key)
        if self.always_mru:
            mru = True
        elif node["flags"] & SUSPECT:
            node["flags"] = DEMOTED
            self.demotions += 1
            mru = False
        else:
            if node["flags"] & DEMOTED:
                self.conf[key] = max(self.conf.get(key, 0) - 2, -4)
            node["flags"] &= ~DENIED
            if self.mode == "threshold":
                mru = self.w_mru > self.promote_threshold
            elif self.w_mru >= self.promote_threshold:
                mru = True
            else:
                mru = self.rng.random() < self.w_mru / self.promote_threshold
        node["mru"] = mru
        if mru:
            node["stamp"] = self.clock
            self.order.append(key)
        else:
            self.order.insert(0, key)
        self._evict(0)

    def _admit(self, key, size):
        position, flags = None, NORMAL
        if key in self.h_m:
            ghost_size, hits, flag, when = self.h_m.pop(key)
            self.h_m_bytes -= ghost_size
            self.ghost_m += 1
            long_gap = self.clock - when > self.deny_gap_factor * self.tenure
            if not self.per_object:
                self._penalise("mru")
            elif not self.use_hit_token:
                if long_gap:
                    self._penalise("mru")
                    position, flags = self._deny()
                else:
                    position = "MRU"
            elif not long_gap:
                position = "MRU"
            elif hits == 0:
                self._penalise("mru")
                position, flags = self._deny()
            elif hits == 1:
                self._penalise("mru")
                position = "MRU"
                if self.conf.get(key, 0) >= 0:
                    flags = self._suspect()
            else:
                position = "MRU"
        elif key in self.h_l:
            ghost_size, hits, flag, when = self.h_l.pop(key)
            self.h_l_bytes -= ghost_size
            long_gap = self.clock - when > self.deny_gap_factor * self.tenure
            if not self.per_object:
                self._penalise("lru")
                self.ghost_l += 1
            elif flag == DENIED and hits == 0 and long_gap:
                self._penalise("mru")
                position, flags = self._deny()
            elif flag == DEMOTED and long_gap:
                self.conf[key] = min(self.conf.get(key, 0) + 1, 3)
                self._penalise("mru")
                position = "MRU"
                flags = self._suspect()
            else:
                if flag == NORMAL:
                    self._penalise("lru")
                    self.ghost_l += 1
                elif flag == DEMOTED:
                    self.conf[key] = max(self.conf.get(key, 0) - 2, -4)
                position = "MRU"
        if position is None:
            position = self._select()
        self._evict(size)
        self.nodes[key] = {
            "size": size, "mru": position == "MRU", "hits": 0, "flags": flags, "stamp": self.clock,
        }
        if position == "MRU":
            self.order.append(key)
        else:
            self.order.insert(0, key)
        self.used += size

    def _deny(self):
        if self.rng.random() < self.escape:
            return "MRU", NORMAL
        self.denials += 1
        return "LRU", DENIED

    def _suspect(self):
        if self.rng.random() < self.escape:
            return NORMAL
        return SUSPECT

    def _penalise(self, expert):
        if expert == "mru":
            self.w_mru = self.w_mru * math.exp(-self.lam)
            self.penalties_mru += 1
        else:
            self.w_lru = self.w_lru * math.exp(-self.lam)
            self.penalties_lru += 1
        total = self.w_mru + self.w_lru
        self.w_mru = self.w_mru / total
        self.w_lru = 1.0 - self.w_mru
        if self.w_mru < FLOOR:
            self.w_mru, self.w_lru = FLOOR, 1.0 - FLOOR
        elif self.w_lru < FLOOR:
            self.w_mru, self.w_lru = 1.0 - FLOOR, FLOOR

    def _select(self):
        if self.mode == "threshold":
            return "MRU" if self.w_mru > 0.5 else "LRU"
        return "MRU" if self.w_mru > self.rng.random() else "LRU"

    def _evict(self, need):
        while self.used + need > self.capacity and self.order:
            key = self.order.pop(0)
            node = self.nodes.pop(key)
            self.used -= node["size"]
            self.evictions += 1
            if node["flags"] & DENIED:
                flag = DENIED
            elif node["flags"] & DEMOTED:
                flag = DEMOTED
            else:
                flag = NORMAL
            if node["mru"]:
                self.tenure += 0.02 * ((self.clock - node["stamp"]) - self.tenure)
                self.h_m_bytes = self._remember(self.h_m, self.h_m_bytes, key, node, flag)
            else:
                self.h_l_bytes = self._remember(self.h_l, self.h_l_bytes, key, node, flag)

    def _remember(self, history, used, key, node, flag):
        size = node["size"]
        if key in history:
            used -= history.pop(key)[0]
        while history and used + size > self.history_capacity:
            used -= history.pop(next(iter(history)))[0]
        if size <= self.history_capacity:
            history[key] = (size, node["hits"], flag, self.clock)
            used += size
        return used

    # -- Algorithm 2 -------------------------------------------------------------------
    def _update_lambda(self):
        rate = self.win_hits / self.win_reqs
        delta = rate - self.prev_hit_rate
        d_lambda = self.lam_prev - self.lam_prev2
        new = self.lam_prev
        if d_lambda != 0.0:
            ratio = delta / d_lambda
            if ratio > 0:
                new = min(self.lam_prev + self.lam_prev * ratio, LAMBDA_MAX)
            else:
                new = max(self.lam_prev + self.lam_prev * ratio, LAMBDA_MIN)
            self.unlearn_count = 0
        else:
            if rate == 0.0 or delta <= 0.0:
                self.unlearn_count += 1
            if self.unlearn_count >= self.unlearn_limit:
                self.unlearn_count = 0
                new = self.rng.uniform(LAMBDA_MIN, LAMBDA_MAX)
                self.restarts += 1
        self.lam_prev2, self.lam_prev, self.lam = self.lam_prev, new, new
        self.updates += 1
        self.prev_hit_rate = rate
        self.win_reqs = self.win_hits = 0
        if len(self.conf) > 4 * (len(self.h_m) + len(self.h_l)) + 4096:
            self.conf = {
                k: v for k, v in self.conf.items()
                if k in self.h_m or k in self.h_l or k in self.nodes
            }

    # -- comparison --------------------------------------------------------------------
    def state(self):
        """The fields :func:`scip_state` reads off a production policy."""
        return {
            "counters": (self.hits, self.misses, self.bytes_hit, self.bytes_missed,
                         self.evictions, self.bypasses),
            "clock": self.clock,
            "used": self.used,
            "nodes": [
                (k, n["size"], n["mru"], n["hits"], n["flags"], n["stamp"])
                for k, n in ((k, self.nodes[k]) for k in reversed(self.order))
            ],
            "queue": (len(self.order), sum(n["size"] for n in self.nodes.values())),
            "h_m": (list(self.h_m.items()), self.h_m_bytes),
            "h_l": (list(self.h_l.items()), self.h_l_bytes),
            "weights": (self.w_mru, self.w_lru, self.penalties_mru, self.penalties_lru),
            "lambda": (self.lam, self.lam_prev, self.lam_prev2, self.unlearn_count,
                       self.updates, self.restarts),
            "window": (self.win_reqs, self.win_hits, self.prev_hit_rate),
            "diagnostics": (self.ghost_m, self.ghost_l, self.denials, self.demotions),
            "tenure_ewma": self.tenure,
            "pzro_conf": self.conf,
            "rng": self.rng.getstate(),
        }


def scip_state(policy):
    """Everything a production SCIP instance carries from one request to the
    next, in :meth:`ReferenceSCIP.state`'s shape."""
    lr, bandit, st = policy.lr, policy.bandit, policy.stats
    return {
        "counters": (st.hits, st.misses, st.bytes_hit, st.bytes_missed, st.evictions, st.bypasses),
        "clock": policy.clock,
        "used": policy.used,
        "nodes": [
            (n.key, n.size, n.inserted_mru, n.hit_token, n.data, n.stamp) for n in policy.queue
        ],
        "queue": (len(policy.queue), policy.queue.bytes),
        "h_m": (list(policy.h_m._entries.items()), policy.h_m.bytes),
        "h_l": (list(policy.h_l._entries.items()), policy.h_l.bytes),
        "weights": (bandit.w_mru, bandit.w_lru, bandit.penalties_mru, bandit.penalties_lru),
        "lambda": (lr.value, lr._prev, lr._prev2, lr.unlearn_count, lr.updates, lr.restarts),
        "window": (
            policy.clock - policy._win_start, st.hits - policy._win_hits_from, policy._prev_hit_rate
        ),
        "diagnostics": (
            policy.ghost_hits_m, policy.ghost_hits_l, policy.zro_denials, policy.pzro_demotions
        ),
        "tenure_ewma": policy._tenure_ewma,
        "pzro_conf": policy._pzro_conf,
        "rng": policy._rng.getstate(),
    }


def assert_same_state(policy, reference):
    """Field by field, so a mismatch names the part that differs."""
    want, got = reference.state(), scip_state(policy)
    for part in want:
        assert got[part] == want[part], f"{part} differs"
