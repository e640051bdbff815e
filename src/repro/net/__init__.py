"""repro.net: multi-tier cache networks with on-path placement.

The paper evaluates SCIP on single caches; this package puts policies in
*networks* — edge PoPs in front of regional tiers in front of origin —
where placement strategy and per-tier policy choice interact (see
``docs/net_design.md``).

* :mod:`repro.net.topology` — the cache graph (nodes, links, builders)
* :mod:`repro.net.placement` — LCE / LCD / probabilistic on-path placement
* :mod:`repro.net.receivers` — Zipf-rated receivers + per-receiver WSS
* :mod:`repro.net.engine` — the trace-replay engine
* :mod:`repro.net.bench` — ``repro bench net`` and ``BENCH_net.json``
"""

from repro.net.engine import NetEngine, NetResult
from repro.net.placement import (
    LCD,
    LCE,
    PlacementStrategy,
    ProbPlacement,
    available_placements,
    make_placement,
    register_placement,
)
from repro.net.receivers import (
    ZipfReceivers,
    receiver_wss,
    receiver_wss_from_bin,
    receiver_wss_from_trace,
)
from repro.net.topology import (
    ORIGIN,
    Link,
    NetNode,
    Topology,
    fat_tree_topology,
    tree_topology,
)

__all__ = [
    "ORIGIN",
    "Link",
    "NetNode",
    "Topology",
    "tree_topology",
    "fat_tree_topology",
    "PlacementStrategy",
    "LCE",
    "LCD",
    "ProbPlacement",
    "available_placements",
    "make_placement",
    "register_placement",
    "ZipfReceivers",
    "receiver_wss",
    "receiver_wss_from_bin",
    "receiver_wss_from_trace",
    "NetEngine",
    "NetResult",
]
