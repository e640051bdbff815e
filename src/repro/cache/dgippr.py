"""DGIPPR — Dynamic Genetic Insertion and Promotion for PseudoLRU
Replacement (Jiménez, MICRO'13).

The original evolves *insertion/promotion vectors* — for each access type
(miss insert, 1st hit, 2nd hit, …) a target recency position — with a
steady-state genetic algorithm whose fitness is the hit rate a chromosome
achieves on sampled leader sets.  We reproduce that faithfully at object-
cache granularity:

* a chromosome is a vector of ``GENE_COUNT`` recency fractions in [0, 1]:
  index 0 is the insertion depth for misses, index ``k`` the promotion depth
  applied on an object's ``k``-th hit (capped);
* a small population is evaluated round-robin, each chromosome controlling
  the cache for an *evaluation window*; fitness is the window hit ratio;
* after every generation, the two fittest chromosomes crossover + mutate to
  replace the weakest (steady-state GA).

Positional placement walks a bounded number of steps up from the LRU end
to an anchor node; the queue kernel links the object before it.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cache.base import LRU_POS, MRU_POS, QueueCache
from repro.cache.queue import Node

__all__ = ["DGIPPRCache"]

GENE_COUNT = 4  # miss-insert depth + promotion depths for hits 1..3+
_MAX_WALK = 32


class _Chromosome:
    __slots__ = ("genes", "hits", "reqs")

    def __init__(self, genes: List[float]):
        self.genes = genes
        self.hits = 0
        self.reqs = 0

    @property
    def fitness(self) -> float:
        return self.hits / self.reqs if self.reqs else 0.0


class DGIPPRCache(QueueCache):
    """Genetic insertion/promotion over an LRU-queue cache."""

    name = "DGIPPR"

    def __init__(
        self,
        capacity: int,
        population: int = 8,
        window: int = 2048,
        mutation_rate: float = 0.1,
        rng: Optional[random.Random] = None,
    ):
        super().__init__(capacity)
        self.rng = rng or random.Random(0)
        self.window = window
        self.mutation_rate = mutation_rate
        self._pop: List[_Chromosome] = [
            _Chromosome([self.rng.random() for _ in range(GENE_COUNT)])
            for _ in range(population)
        ]
        # Seed the population with the known-good LRU chromosome (all-MRU).
        self._pop[0] = _Chromosome([1.0] * GENE_COUNT)
        self._active = 0
        self._in_window = 0

    # -- GA machinery -----------------------------------------------------------
    def _evolve(self) -> None:
        """Steady-state step: crossover the two fittest, replace the weakest."""
        ranked = sorted(range(len(self._pop)), key=lambda i: self._pop[i].fitness)
        weakest, parents = ranked[0], ranked[-2:]
        a, b = self._pop[parents[0]].genes, self._pop[parents[1]].genes
        cut = self.rng.randrange(1, GENE_COUNT)
        child = a[:cut] + b[cut:]
        for i in range(GENE_COUNT):
            if self.rng.random() < self.mutation_rate:
                child[i] = min(1.0, max(0.0, child[i] + self.rng.gauss(0, 0.2)))
        self._pop[weakest] = _Chromosome(child)
        for c in self._pop:
            c.hits = 0
            c.reqs = 0

    def _after_request(self, hit: bool) -> None:
        c = self._pop[self._active]
        c.reqs += 1
        if hit:
            c.hits += 1
        self._in_window += 1
        if self._in_window >= self.window:
            self._in_window = 0
            self._active = (self._active + 1) % len(self._pop)
            if self._active == 0:
                self._evolve()

    # -- placement ---------------------------------------------------------------
    def _depth(self, frac: float, node: Optional[Node] = None):
        """Where ``frac`` of the queue from the LRU end lies (1.0 == MRU),
        counting the queue without ``node`` (a hit being re-placed).

        Walks at most ``_MAX_WALK`` steps so cost stays bounded; beyond that
        the distinction between depths is immaterial for eviction order.
        """
        n = len(self.queue) - (node is not None)
        if frac >= 0.999 or not n:
            return MRU_POS
        steps = min(int(n * frac), _MAX_WALK)
        if steps == 0:
            return LRU_POS  # depth 0 == the exact LRU position
        anchor = self.queue.tail
        if anchor is node:
            anchor = node.prev
        for _ in range(steps - 1):
            prev = anchor.prev
            if prev is node:
                prev = prev.prev
            if prev.key is None:
                break
            anchor = prev
        return anchor

    def _insert_position(self, key: int, size: int):
        return self._depth(self._pop[self._active].genes[0])

    def _on_hit(self, node: Node):
        hits = (node.data or 0) + 1  # node.data: this residency's hit count
        node.data = hits
        where = self._depth(self._pop[self._active].genes[min(hits, GENE_COUNT - 1)], node)
        node.inserted_mru = where == MRU_POS
        return where

    def metadata_bytes(self) -> int:
        return 110 * len(self) + 8 * GENE_COUNT * len(self._pop)
