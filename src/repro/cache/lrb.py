"""LRB — Learning Relaxed Belady (Song et al., NSDI'20), from scratch.

LRB learns to imitate a *relaxed* Belady oracle: instead of evicting the
object with the farthest next access, it suffices to evict *any* object
whose next access lies beyond the **Belady boundary** (a fixed horizon).
That relaxation turns eviction into a far easier prediction problem:

* a **memory window** bounds how far back training information reaches;
* every access generates a potential training sample — the features of the
  object at some earlier time, labelled with the (log) time until this
  access; objects unseen for a full window get the "beyond boundary" label;
* a GBM regressor (ours: :class:`repro.ml.gbm.GBMRegressor`) is retrained
  periodically on the accumulated samples;
* eviction samples resident candidates, predicts each one's time to next
  access, and evicts the farthest-predicted candidate.

The learning machinery lives in :class:`RelaxedBeladyLearner` so that the
SCIP-enhanced variant (:class:`repro.core.enhance.SCIPLRB`, Figure 12) can
reuse the identical victim selector under SCIP's insertion/promotion — the
paper's point that SCIP "can be adapted to the learning domain of the
original method".

Until the first model is trained, eviction falls back to the LRU end — the
paper notes LRB uses "the most basic policy like LRU" for insertion and
promotion, which is exactly the gap SCIP-LRB fills.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

import numpy as np

from repro.cache.base import QueueCache
from repro.cache.queue import Node
from repro.ml.features import N_FEATURES, FeatureTracker
from repro.ml.gbm import GBMRegressor

__all__ = ["RelaxedBeladyLearner", "LRBCache"]


class RelaxedBeladyLearner:
    """The learned time-to-next-access predictor behind LRB.

    Host policies call :meth:`on_access` for every request (hit or miss),
    :meth:`track_insert` / :meth:`track_evict` to maintain the candidate
    pool, and :meth:`choose_victim_key` when they need an eviction victim.
    """

    def __init__(
        self,
        memory_window: int = 8_000,
        sample: int = 32,
        retrain_interval: int = 8_000,
        max_samples: int = 8_192,
        n_trees: int = 16,
        seed: int = 0,
    ):
        if memory_window < 1:
            raise ValueError(f"memory_window must be >= 1, got {memory_window}")
        self.memory_window = memory_window
        self.sample = sample
        self.retrain_interval = retrain_interval
        self.max_samples = max_samples
        self.n_trees = n_trees
        self.rng = random.Random(seed)
        self.tracker = FeatureTracker(edc_base_halflife=memory_window / 16)
        self.model: Optional[GBMRegressor] = None
        self._pending: Dict[int, tuple] = {}  # key -> (features, time)
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._since_train = 0
        self.trainings = 0
        self._keys: List[int] = []
        self._key_pos: Dict[int, int] = {}

    # -- samples ----------------------------------------------------------------
    def _boundary_label(self) -> float:
        return float(np.log2(2.0 * self.memory_window))

    def _add_sample(self, x: np.ndarray, label: float) -> None:
        if len(self._X) >= self.max_samples:
            i = self.rng.randrange(self.max_samples)
            self._X[i] = x
            self._y[i] = label
        else:
            self._X.append(x)
            self._y.append(label)

    def on_access(self, key: int, size: int, clock: int) -> None:
        """Per-request bookkeeping: harvest the pending label, refresh the
        feature state, stage a new pending sample, maybe retrain."""
        pend = self._pending.pop(key, None)
        if pend is not None:
            x, t = pend
            gap = clock - t
            label = (
                self._boundary_label()
                if gap > self.memory_window
                else float(np.log2(max(gap, 1)))
            )
            self._add_sample(x, label)
        self.tracker.touch(key, size, clock)
        x = self.tracker.features(key, clock)
        if x is not None:
            self._pending[key] = (x, clock)
        self._maybe_train(clock)

    def _maybe_train(self, clock: int) -> None:
        self._since_train += 1
        if self._since_train < self.retrain_interval:
            return
        self._since_train = 0
        horizon = clock - self.memory_window
        expired = [k for k, (_, t) in self._pending.items() if t < horizon]
        for k in expired:
            x, _ = self._pending.pop(k)
            self._add_sample(x, self._boundary_label())
        if len(self._X) >= 256:
            X = np.vstack(self._X)
            y = np.asarray(self._y)
            self.model = GBMRegressor(
                n_estimators=self.n_trees, max_depth=3, learning_rate=0.3
            ).fit(X, y)
            self.trainings += 1

    # -- candidate pool -----------------------------------------------------------
    def track_insert(self, key: int) -> None:
        self._key_pos[key] = len(self._keys)
        self._keys.append(key)

    def track_evict(self, key: int) -> None:
        pos = self._key_pos.pop(key, None)
        if pos is None:
            return
        last = self._keys.pop()
        if last != key:
            self._keys[pos] = last
            self._key_pos[last] = pos

    # -- eviction ---------------------------------------------------------------------
    def choose_victim_key(self, clock: int) -> Optional[int]:
        """Farthest-predicted key among sampled candidates, or ``None`` when
        untrained / pool too small (host falls back to its base victim)."""
        if self.model is None or len(self._keys) <= self.sample:
            return None
        n = len(self._keys)
        cand = [self._keys[self.rng.randrange(n)] for _ in range(self.sample)]
        X = np.empty((len(cand), N_FEATURES))
        for i, k in enumerate(cand):
            x = self.tracker.features(k, clock)
            X[i] = x if x is not None else 32.0
        return cand[int(np.argmax(self.model.predict(X)))]

    def metadata_bytes(self) -> int:
        return (
            self.tracker.metadata_bytes()
            + (N_FEATURES * 8 + 8) * len(self._X)
            + 64 * len(self._pending)
            + 4096 * (self.n_trees if self.model else 0)
        )


class LRBCache(QueueCache):
    """LRB with plain LRU insertion/promotion (the original's choice).

    Its four extension points are the ones SCIP's kernel reads too, so
    :class:`repro.core.enhance.SCIPLRB` takes them as they are.
    """

    name = "LRB"

    def __init__(self, capacity: int, **learner_kwargs):
        super().__init__(capacity)
        self.learner = RelaxedBeladyLearner(**learner_kwargs)

    def _on_access(self, key: int, size: int) -> None:
        self.learner.on_access(key, size, self.clock + 1)

    def _on_insert(self, node: Node) -> None:
        self.learner.track_insert(node.key)

    def _on_evict(self, node: Node) -> None:
        self.learner.track_evict(node.key)

    def _choose_victim(self) -> Node:
        key = self.learner.choose_victim_key(self.clock)
        if key is None:
            tail = self.queue.tail
            assert tail is not None
            return tail
        return self.index[key]

    def metadata_bytes(self) -> int:
        return 110 * len(self) + self.learner.metadata_bytes()
