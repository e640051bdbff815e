"""NetEngine's LRU edges against Che's approximation — a closed form that
shares nothing with the simulator.

Under the independent reference model (IRM) with popularity ``p`` and unit
sizes, an LRU cache of ``C`` objects behaves as if each object stayed for
a fixed *characteristic time* ``T``: the root of
``sum_i (1 - exp(-p_i T)) = C``.  Its miss ratio is then
``sum_i p_i exp(-p_i T)``.

On a line every request reaches the edge, so the edge sees the trace
itself.  On an 8-2-1 tree ``ZipfReceivers`` hashes each request's index
to a receiver, so every edge sees an independent thinning of the same
IRM: the same popularity at a lower rate, hence the same Che miss ratio.
Each tier's counters are read after a warm-up, so the cold start does not
count.

Only the edge tier is asserted.  Above it, Che applied to the edge's miss
stream as if that stream were IRM is off by 0.05–0.07 under LCE (measured
on a line for the three settings below: 0.91 vs 0.86, 0.81 vs 0.74, 0.88
vs 0.81).  The miss stream is not IRM: LCE leaves a copy at the edge, so a
key that just missed there is unlikely to miss again soon.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.net.engine import NetEngine, NetResult
from repro.net.receivers import ZipfReceivers
from repro.net.topology import ORIGIN, Topology, tree_topology
from repro.sim.request import Request
from repro.traces.synthetic import zipf_probs

WARMUP = 20_000
MEASURED = 100_000


def che_miss_ratio(probs: np.ndarray, capacity: int) -> float:
    """Che's LRU miss ratio for an IRM with popularity ``probs``."""
    t = brentq(lambda t: np.sum(-np.expm1(-probs * t)) - capacity, 0.0, 1e12)
    return float(np.sum(probs * np.exp(-probs * t)))


def line(capacity: int) -> Topology:
    topo = Topology(seed=1)
    for name, scale, tier in (("e", 1, "edge"), ("m", 2, "mid1"), ("r", 4, "root")):
        topo.add_node(name, scale * capacity, policy="LRU", tier=tier)
    topo.add_link("e", "m").add_link("m", "r").add_link("r", ORIGIN)
    return topo


SHAPES = {
    "line": lambda c: NetEngine(line(c), "LCE"),
    "tree": lambda c: NetEngine(
        tree_topology((4, 2), (c, 2 * c, 4 * c), ("LRU",) * 3, seed=1), "LCE",
        receivers=ZipfReceivers(64, seed=3),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("n_objects, alpha, capacity", [(10_000, 0.8, 200), (10_000, 1.0, 500), (20_000, 0.7, 1_000)])
def test_lru_edge_miss_ratio_matches_che(shape, n_objects, alpha, capacity):
    probs = zipf_probs(n_objects, alpha)
    keys = np.random.default_rng(7).choice(n_objects, size=WARMUP + MEASURED, p=probs).tolist()
    requests = [Request(i, key, 1) for i, key in enumerate(keys)]

    eng = SHAPES[shape](capacity)
    eng.run(requests[:WARMUP])
    warm = {tier: dict(st) for tier, st in eng.result.tiers.items()}
    eng.run(requests[WARMUP:])
    measured = NetResult(tiers={
        tier: {k: v - warm[tier][k] for k, v in st.items()} for tier, st in eng.result.tiers.items()
    })
    assert measured.tiers["edge"]["lookups"] == MEASURED  # one edge lookup per request

    edge = measured.tier_miss_ratios()["edge"]
    assert edge == pytest.approx(che_miss_ratio(probs, capacity), abs=0.005)
