"""SCI — Smart Cache Insertion (Algorithm 3), the paper's ablation of SCIP.

SCI keeps SCIP's learned *insertion* policy for missing objects but drops
the learned *promotion* policy: a hit is removed and re-inserted **always at
the MRU position** (Algorithm 3, L3-5) — i.e. classic LRU promotion.  The
Figure 7 experiment measures exactly what unifying promotion buys: SCIP's
miss ratio is lower than SCI's by 4.62 / 1.62 / 5.30 points on the three
workloads, attributable to P-ZRO capture.
"""

from __future__ import annotations

from repro.core.scip import SCIPCache

__all__ = ["SCICache"]


class SCICache(SCIPCache):
    """SCIP minus the promotion policy (hits always promote to MRU).

    The traversal stamp restarts on a hit exactly as in SCIP — the tenure
    estimator measures the queue, not the policy — and a hit leaves the
    node's flags as they are, so the Figure 7 comparison isolates the
    promotion policy alone.
    """

    name = "SCI"
    always_mru = True
