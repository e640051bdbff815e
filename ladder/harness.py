"""Shared measuring code: percentiles, the host reference, the result record, manifests."""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ladder.checks import ReferenceLRU

__all__ = [
    "percentile",
    "rss_mb",
    "manifest",
    "host_reference",
    "Measured",
    "end_to_end",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact ``q``-th percentile (0-100), linear between the two nearest
    order statistics — ``numpy.percentile``'s default, written out so the
    ledger does not depend on a histogram's bucket edges."""
    a = np.sort(np.asarray(samples, dtype=np.float64))
    if a.size == 0:
        raise ValueError("percentile of no samples")
    pos = (a.size - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, a.size - 1)
    return float(a[lo] + (a[hi] - a[lo]) * (pos - lo))


def rss_mb() -> float:
    """Peak resident set of this process, MB (Linux reports ``ru_maxrss`` in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def manifest(seed: int, seconds: float, smoke: bool, sizes: dict, warn: bool = False) -> dict:
    """Where, when and on what a result was measured.  ``warn`` prints the
    load warning too (the command does, once, before its first workload:
    after that the load is the ladder's own)."""
    from repro.obs.manifest import git_revision

    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    doc = {
        **git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "sizes": sizes,
        "loadavg_1m_at_start": load1,
    }
    if warn and load1 > nproc / 2:
        doc["warning"] = f"1-min load average {load1:.2f} > nproc/2 = {nproc / 2:g}: timings are suspect"
        print(f"ladder: WARNING {doc['warning']}", file=sys.stderr)
    return doc


_rng = random.Random(0)
_REFERENCE_KEYS = [int(_rng.paretovariate(0.8)) % 200_000 for _ in range(60_000)]


#: :func:`host_reference` on the reference host — the 2-core sandbox this
#: ledger was first measured on, undisturbed — takes this many seconds.
REFERENCE_S = 0.0165


def host_reference() -> float:
    """Seconds this host needs, right now, for a fixed piece of work that
    shares no code with ``repro``: 60 000 requests through the reference
    LRU.  Timed between units, it tells a slow host from slow code."""
    request = ReferenceLRU(20_000).request
    t = perf_counter()
    for key in _REFERENCE_KEYS:
        request(key, 1)
    return perf_counter() - t


@dataclass
class Measured:
    """What one workload's untraced run hands back to the harness."""

    #: ``(requests, wall_s, cpu_s)`` per repeated unit or per window.
    units: List[tuple] = field(default_factory=list)
    #: every :func:`host_reference` slice of the run, two before the first
    #: unit and two after each.
    reference: List[float] = field(default_factory=list)
    #: ``(p50_us, p99_us)`` per window, where requests have a latency.
    latency: List[tuple] = field(default_factory=list)
    latency_samples: int = 0
    miss_ratio: float = 0.0
    byte_miss_ratio: float = 0.0
    sim_latency_ms: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    #: correctness violations; any entry makes ``failed_share`` 1.0.
    violations: List[str] = field(default_factory=list)
    #: untimed work between input generation and the first timed request
    #: (service build, cache fill), seconds.
    prepare_s: float = 0.0
    #: counts worth printing beside the metrics.
    detail: Dict[str, float] = field(default_factory=dict)
    #: ``False`` where the clock, not the host, sets the pace (an open loop's
    #: rate and the sleeps of a simulated origin): only CPU time is then
    #: expressed in reference-host seconds.
    host_bound: bool = True

    def start(self) -> None:
        """Take two host-reference slices: call right before the first unit
        (:meth:`add` takes the ones after each)."""
        self.reference += [host_reference(), host_reference()]

    def add(self, requests: int, wall_s: float, cpu_s: float, latency_ns: Sequence[int] = ()) -> None:
        """Record one finished unit or window (and, for a driven window,
        the exact percentiles of its own latency samples)."""
        self.units.append((requests, wall_s, cpu_s))
        self.start()
        self.attempted += requests
        lat = [v for v in latency_ns if v >= 0]
        if lat:
            self.latency.append((percentile(lat, 50) / 1e3, percentile(lat, 99) / 1e3))
            self.latency_samples = len(lat)


def quartile(values: Sequence[float], upper: bool) -> float:
    """The first (``upper=False``) or third quartile, by :func:`percentile`."""
    return percentile(list(values), 75 if upper else 25)


def end_to_end(m: Measured, setup_s: float) -> Dict[str, float]:
    """The workload's end-to-end metrics from its units or windows.

    On a shared host, interference only ever slows a unit down, for
    anything from milliseconds to minutes.  Two defences, both needed:

    * the run is read from its **faster quarter**: the third quartile of
      per-unit throughput, the first quartile of per-unit CPU and of the
      per-window percentiles.  A burst that hits fewer than three quarters
      of the units leaves the number alone, and a code change that slows
      every unit still moves it;
    * times are in **reference-host seconds**: host seconds times
      ``REFERENCE_S / (first quartile of the host-reference slices)``, so a
      host that is uniformly slow for the whole run reads like the
      reference host.  ``detail`` keeps the factor and the raw host numbers.
    """
    if not m.units:
        raise ValueError("workload measured nothing")
    speed = REFERENCE_S / quartile(m.reference, upper=False)
    pace = speed if m.host_bound else 1.0
    host_rps = quartile([n / wall for n, wall, _ in m.units], upper=True)
    m.detail.update(host_speed=speed, host_throughput_rps=host_rps)
    out = {
        "setup_s": setup_s * pace,
        "throughput_rps": host_rps / pace,
        "cpu_us_per_req": quartile([cpu / n * 1e6 for n, _, cpu in m.units], upper=False) * speed,
        "miss_ratio": m.miss_ratio,
        "byte_miss_ratio": m.byte_miss_ratio,
        "peak_rss_mb": rss_mb(),
        "failed_share": 1.0 if m.violations else m.failed / max(m.attempted, 1),
    }
    if m.latency:
        out["latency_p50_us"] = quartile([p50 for p50, _ in m.latency], upper=False) * pace
        out["latency_p99_us"] = quartile([p99 for _, p99 in m.latency], upper=False) * pace
    if m.sim_latency_ms is not None:
        out["sim_latency_ms"] = m.sim_latency_ms
    return out
