"""Zipf-rated receivers: millions of users, folded into request rates.

A cache network is driven from its leaves.  Rather than simulate users
individually, icarus-style evaluations attach *receivers* to edge nodes
and give them Zipf-distributed request **rates** (the *beta* skew): a few
metro PoPs carry most of the traffic, a long tail of small ones carries
the rest.  :class:`ZipfReceivers` implements that as a deterministic,
stateless assignment — request ``i`` of the trace belongs to receiver
``assign(i)``, drawn from the rate distribution by hashing the request
index (splitmix64, seeded), so the same trace + seed always produces the
same per-edge substreams, with no per-request RNG state to carry.

The module also answers the capacity-planning question the assignment
creates: *what working set does each edge actually see?*  A receiver's
WSS is not ``trace WSS / n`` — hot objects are requested at many edges
and the skew concentrates traffic — so :func:`receiver_wss` runs one
SHARDS-style spatially-sampled distinct-(key→size) estimator per
receiver (bounded memory, streaming) and scales the sampled byte sums
back up.  ``repro trace info --receivers N`` and ``bench net`` surface
these numbers so per-tier capacity choices are defensible rather than
folklore.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.hashing import splitmix64, splitmix64_array
from repro.traces.binfmt import _ShardsSampler
from repro.traces.synthetic import zipf_probs

__all__ = ["ZipfReceivers", "receiver_wss", "receiver_wss_from_bin"]

_U64 = np.uint64


class ZipfReceivers:
    """``n`` receivers with Zipf(``beta``) request rates.

    ``beta=0`` makes all receivers equal; icarus evaluations typically
    use 0.6–0.9.  ``assign`` is O(log n) (binary search over the rate
    CDF) and purely a function of ``(index, seed)``; it is Python-int
    arithmetic and a ``bisect`` for one request, :meth:`assign_array` the
    same computation in numpy for a block, and the two agree bit for bit.
    """

    def __init__(self, n: int, beta: float = 0.8, seed: int = 0):
        if n < 1:
            raise ValueError(f"need at least one receiver, got {n}")
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        self.n = int(n)
        self.beta = float(beta)
        self.seed = int(seed)
        if beta == 0.0:
            self.rates = np.full(self.n, 1.0 / self.n)
        else:
            self.rates = zipf_probs(self.n, beta)
        # Only the n - 1 interior CDF cuts are searched: receiver n - 1 owns
        # everything above the last one, so no draw can land on id n.
        self._cuts = np.cumsum(self.rates)[:-1]
        self._cut_list = self._cuts.tolist()
        self._salt = splitmix64(self.seed ^ 0x7265637672735F5A)

    def _receiver_at(self, u):
        """The receiver whose CDF interval holds ``u`` in [0, 1] — a float,
        or an array of them.  ``u == 1.0`` is reachable (every hash at or
        above ``2**64 - 1024`` rounds to it) and belongs to ``n - 1``."""
        if isinstance(u, np.ndarray):
            return np.searchsorted(self._cuts, u, side="right")
        return bisect_right(self._cut_list, u)

    def assign(self, index: int) -> int:
        """Receiver id for request ``index`` (deterministic)."""
        h = splitmix64(index ^ self._salt)
        return self._receiver_at(h / 2.0**64)

    def assign_array(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`assign` over an int64/uint64 index array."""
        h = splitmix64_array(
            indices.astype(np.int64).view(np.uint64) ^ _U64(self._salt)
        )
        u = h.astype(np.float64) / 2.0**64
        return self._receiver_at(u).astype(np.int64)

    def as_dict(self) -> dict:
        return {"n": self.n, "beta": self.beta, "seed": self.seed}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ZipfReceivers(n={self.n}, beta={self.beta}, seed={self.seed})"


def receiver_wss(
    chunks: Iterable[Tuple[np.ndarray, np.ndarray]],
    receivers: ZipfReceivers,
    start_index: int = 0,
) -> List[dict]:
    """Per-receiver SHARDS-estimated request counts and working sets.

    ``chunks`` yields ``(keys, sizes)`` array pairs in trace order (any
    chunking); ``start_index`` is the global index of the first request.
    Returns one row per receiver::

        {"receiver": i, "rate": r_i, "requests": n_i,
         "unique_estimate": ..., "wss_estimate": ...}

    Memory is bounded per receiver by the SHARDS sampler cap regardless
    of trace length, so this streams paper-scale ``.bin`` files.
    """
    samplers = [_ShardsSampler() for _ in range(receivers.n)]
    counts = [0] * receivers.n
    offset = start_index
    for keys, sizes in chunks:
        n = len(keys)
        idx = np.arange(offset, offset + n, dtype=np.int64)
        offset += n
        who = receivers.assign_array(idx)
        for r in np.unique(who).tolist():
            mask = who == r
            counts[r] += int(mask.sum())
            samplers[r].update(np.asarray(keys)[mask], np.asarray(sizes)[mask])
    return [
        {
            "receiver": i,
            "rate": float(receivers.rates[i]),
            "requests": counts[i],
            "unique_estimate": samplers[i].unique_estimate(),
            "wss_estimate": samplers[i].wss_estimate(),
        }
        for i in range(receivers.n)
    ]


def receiver_wss_from_bin(
    path,
    n_receivers: int,
    beta: float = 0.8,
    seed: int = 0,
    chunk_size: int = 1 << 20,
    receivers: Optional[ZipfReceivers] = None,
) -> List[dict]:
    """:func:`receiver_wss` over a ``.bin`` trace file, streaming."""
    from repro.traces.binfmt import BinTraceReader

    rx = receivers if receivers is not None else ZipfReceivers(
        n_receivers, beta=beta, seed=seed
    )
    with BinTraceReader(path) as reader:
        return receiver_wss(
            ((keys, sizes) for _, keys, sizes in reader.iter_chunks(chunk_size)),
            rx,
        )


def receiver_wss_from_trace(
    trace,
    receivers: ZipfReceivers,
    chunk_size: int = 1 << 16,
) -> List[dict]:
    """:func:`receiver_wss` over an in-memory request sequence."""
    requests = getattr(trace, "requests", trace)

    def chunks():
        for lo in range(0, len(requests), chunk_size):
            block = requests[lo : lo + chunk_size]
            yield (
                np.fromiter((r.key for r in block), dtype=np.int64, count=len(block)),
                np.fromiter((r.size for r in block), dtype=np.int64, count=len(block)),
            )

    return receiver_wss(chunks(), receivers)


def _edge_population(rows: List[dict], receivers: ZipfReceivers, n_edges: int) -> Dict[int, dict]:
    """Aggregate receiver rows onto edges (receiver ``r`` -> edge
    ``r % n_edges``, the engine's attachment rule).  Union WSS cannot be
    recovered from per-receiver samples exactly, so the edge estimate is
    the max-single-receiver lower bound and the summed upper bound."""
    out: Dict[int, dict] = {}
    for row in rows:
        e = row["receiver"] % n_edges
        agg = out.setdefault(
            e, {"edge_index": e, "requests": 0, "rate": 0.0, "wss_upper": 0, "wss_lower": 0}
        )
        agg["requests"] += row["requests"]
        agg["rate"] += row["rate"]
        agg["wss_upper"] += row["wss_estimate"]
        agg["wss_lower"] = max(agg["wss_lower"], row["wss_estimate"])
    return out
