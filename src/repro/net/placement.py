"""On-path placement strategies: who keeps a copy on the way back down.

When a request misses at the edge and is served from an upstream cache
(or the origin), the response traverses the same path back.  The
*placement strategy* decides which of the downstream caches admit a copy
— the question Gallo et al. and the icarus ``onpath`` strategies study,
and the one knob the tiered bench varies while holding topology,
capacities and policies fixed.

The engine hands a strategy the **downstream path** — the cache nodes
between the serving point and the requesting edge, ordered top (nearest
the server) to bottom (the edge itself) — and gets back the subset that
should admit.  What "admit" *means* at a node is that node's own
insertion policy (SCIP's bandit, LRU's MRU push, …): placement decides
*where copies land*, the per-node policy decides *how* and *what gets
evicted for them*, which is exactly the paper-vs-network separation of
concerns.

Built-ins:

``LCE`` (leave-copy-everywhere)
    Every downstream cache admits.  The classic default — and the
    write-on-miss behaviour of :class:`repro.tdc.cluster.TDCCluster`,
    which the cross-validation test pins.
``LCD`` (leave-copy-down)
    Only the cache *immediately below* the serving point admits.  An
    object must be requested once per tier to migrate one tier closer to
    the users — repeated demand pulls hot objects edge-ward, one-hit
    wonders never pollute the edge.
``PROB`` (ProbCache-style probabilistic)
    Each downstream cache admits with probability ``p · d / L`` where
    ``d`` is its 1-based depth below the serving point and ``L`` the
    downstream path length — copies concentrate toward the edge, like
    ProbCache's ``TimesIn`` weighting, without LCD's one-tier-per-request
    latency.  Decisions are a splitmix64 hash of (key, node, request
    clock, seed): deterministic replay, independent across requests.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Sequence

from repro.hashing import mix64, splitmix64

__all__ = [
    "PlacementStrategy",
    "LCE",
    "LCD",
    "ProbPlacement",
    "available_placements",
    "make_placement",
    "register_placement",
]


class PlacementStrategy:
    """Base class: subclasses override :meth:`copy_nodes`.

    Parameters handed to :meth:`copy_nodes`:

    ``downstream``
        Cache-node names between the serving point and the requesting
        edge, ordered top → bottom; ``downstream[-1]`` is the edge.
        Dead (fault-killed) nodes are already filtered out.
    ``key`` / ``size``
        The object being placed.
    ``clock``
        The engine's request counter — lets probabilistic strategies
        make independent, reproducible per-request decisions.
    """

    name: str = "abstract"

    def copy_nodes(
        self, downstream: Sequence[str], key: int, size: int, clock: int
    ) -> List[str]:
        raise NotImplementedError

    def as_dict(self) -> dict:
        """Manifest representation; subclasses append scalar knobs."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}()"


class LCE(PlacementStrategy):
    """Leave-copy-everywhere: every downstream cache admits."""

    name = "LCE"

    def copy_nodes(
        self, downstream: Sequence[str], key: int, size: int, clock: int
    ) -> List[str]:
        return list(downstream)


class LCD(PlacementStrategy):
    """Leave-copy-down: only the cache just below the serving point."""

    name = "LCD"

    def copy_nodes(
        self, downstream: Sequence[str], key: int, size: int, clock: int
    ) -> List[str]:
        return [downstream[0]] if downstream else []


class ProbPlacement(PlacementStrategy):
    """Edge-weighted probabilistic placement (ProbCache-flavoured).

    Node at depth ``d`` of ``L`` downstream caches admits with
    probability ``p * d / L`` — the edge itself sees probability ``p``,
    caches near the serving point proportionally less.  ``p=1`` makes the
    edge behave like LCE while still thinning the middle tiers.
    """

    name = "PROB"

    def __init__(self, p: float = 0.7, seed: int = 0):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"placement probability must be in (0, 1], got {p}")
        self.p = float(p)
        self.seed = int(seed)
        self._salt = mix64(self.seed ^ 0x70726F62636163)  # "probcac"

    def copy_nodes(
        self, downstream: Sequence[str], key: int, size: int, clock: int
    ) -> List[str]:
        total = len(downstream)
        if not total:
            return []
        out: List[str] = []
        base = mix64(key ^ self._salt) ^ splitmix64(clock)
        for depth, node in enumerate(downstream, start=1):
            threshold = int(self.p * depth / total * (1 << 64))
            h = mix64(base ^ zlib.crc32(node.encode()))
            if h < threshold:
                out.append(node)
        return out

    def as_dict(self) -> dict:
        return {"name": self.name, "p": self.p, "seed": self.seed}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProbPlacement(p={self.p}, seed={self.seed})"


#: name -> factory, mirroring the cache-policy registry idiom.
_PLACEMENTS: Dict[str, Callable[..., PlacementStrategy]] = {
    "LCE": LCE,
    "LCD": LCD,
    "PROB": ProbPlacement,
}


def available_placements() -> tuple:
    """Sorted names of every registered placement strategy."""
    return tuple(sorted(_PLACEMENTS))


def make_placement(name: str, **kwargs) -> PlacementStrategy:
    """Instantiate a placement strategy by registry name."""
    try:
        factory = _PLACEMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown placement {name!r}; available: {list(available_placements())}"
        ) from None
    return factory(**kwargs)


def register_placement(
    name: str, factory: Callable[..., PlacementStrategy], replace: bool = False
) -> None:
    """Register an additional strategy (plugins, tests)."""
    if not replace and name in _PLACEMENTS:
        raise ValueError(f"placement {name!r} already registered")
    _PLACEMENTS[name] = factory
