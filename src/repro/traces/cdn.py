"""CDN-T / CDN-W / CDN-A workload profiles — Table 1, scaled.

Each profile is a :class:`~repro.traces.synthetic.WorkloadSpec` whose knobs
are matched to the published statistics of the corresponding trace:

=============================  ========  ========  ========
Statistic (paper)                 CDN-T     CDN-W     CDN-A
=============================  ========  ========  ========
Requests (M)                      78.75     100.0     99.55
Unique objects (M)                24.71      2.34     54.43
Requests / object                  3.19      42.7      1.83
Mean object size (KB)             44.56     35.07     31.21
Max object size (MB)              19.97    674.38      7.99
=============================  ========  ========  ========

We scale request counts down (default 200 k requests ≈ 400–500× smaller)
while preserving the request:object ratio, the size distribution bounds and
means, and the qualitative reuse structure:

* **CDN-T** (Tencent TDC, mixed content): moderate reuse, a substantial
  one-shot population — the workload where Figure 8 shows SCIP's largest
  margin (−4.69 pts vs ASC-IP, −35.32 vs LIP).
* **CDN-W** (Wikipedia, from the LRB paper): heavy reuse (42.7 req/object),
  the *highest P-ZRO share of hits* (21.7 % on average — Figure 1(d)); we
  realise that with a large burst component of longer bursts.
* **CDN-A** (Tencent photo store): churn-dominated, 1.83 req/object — the
  highest miss ratios in Figure 1(b); realised with a dominant one-shot
  population and light reuse.

Cache sizes in experiments are expressed as fractions of each trace's
working-set size, exactly as Figure 1 does (0.5 %, 1 %, 5 %, 10 % of X).
"""

from __future__ import annotations

from itertools import count
from typing import Dict

from repro.sim.request import Trace
from repro.traces.synthetic import WorkloadSpec, generate_trace, spec_to_bin

__all__ = [
    "WORKLOADS",
    "cdn_t_spec",
    "cdn_w_spec",
    "cdn_a_spec",
    "make_workload",
    "workload_to_bin",
    "workload_names",
]


def cdn_t_spec(n_requests: int = 200_000, seed: int = 7) -> WorkloadSpec:
    """CDN-T: mixed CDN content, ~3.2 requests/object."""
    return WorkloadSpec(
        n_requests=n_requests,
        # req:obj ratio 3.19 → uniques ≈ n/3.19; apportioned core/one/burst.
        n_core=int(n_requests * 0.065),
        zipf_alpha=0.85,
        one_shot_frac=0.22,
        burst_frac=0.18,
        burst_mean_len=2.5,
        burst_window=1_500,
        mean_size=44_560,
        size_sigma=0.6,
        min_size=2,
        max_size=19_970_000,
        zro_size_bias=1.55,
        sweep_frac=0.20,
        sweep_period=12_000,
        sweep_pair_frac=0.7,
        core_gap_scale=n_requests * 0.18,
        drift_period=max(n_requests // 4, 1),
        drift_shift=int(n_requests * 0.065) // 12,
        storm_period=max(n_requests // 5, 1),
        storm_duty=0.3,
        storm_churn_weight=0.6,
        storm_core_weight=0.2,
        burst_revive_gap=25_000.0,
        seed=seed,
        name="CDN-T",
    )


def cdn_w_spec(n_requests: int = 200_000, seed: int = 11) -> WorkloadSpec:
    """CDN-W: Wikipedia-like, heavy reuse, highest P-ZRO share of hits."""
    return WorkloadSpec(
        n_requests=n_requests,
        # 42.7 req/object → small unique set, strong Zipf head.
        n_core=max(int(n_requests * 0.012), 64),
        zipf_alpha=1.0,
        one_shot_frac=0.06,
        burst_frac=0.38,        # largest burst share → most P-ZRO hits
        burst_mean_len=3.2,     # short bursts: 1 of ~2.2 hits ends a burst
        burst_window=2_500,
        mean_size=35_070,
        size_sigma=0.55,        # heaviest size tail (max 674 MB in paper)
        min_size=10,
        max_size=674_380_000,
        zro_size_bias=1.7,
        sweep_frac=0.14,
        sweep_period=20_000,
        sweep_pair_frac=0.55,
        core_gap_scale=n_requests * 0.10,
        drift_period=max(n_requests // 5, 1),
        drift_shift=max(int(n_requests * 0.012) // 10, 1),
        storm_period=max(n_requests // 5, 1),
        storm_duty=0.25,
        burst_revive_gap=25_000.0,
        seed=seed,
        name="CDN-W",
    )


def cdn_a_spec(n_requests: int = 200_000, seed: int = 13) -> WorkloadSpec:
    """CDN-A: photo-store churn, 1.83 requests/object, highest miss ratios."""
    return WorkloadSpec(
        n_requests=n_requests,
        n_core=int(n_requests * 0.09),
        zipf_alpha=0.75,        # flat popularity: little concentration
        one_shot_frac=0.48,     # churn-dominated
        burst_frac=0.07,
        burst_mean_len=2.0,
        burst_window=1_200,
        mean_size=31_210,
        size_sigma=0.55,
        min_size=2,
        max_size=7_990_000,
        zro_size_bias=1.5,
        sweep_frac=0.18,
        sweep_period=10_000,
        sweep_pair_frac=0.65,
        core_gap_scale=n_requests * 0.25,
        drift_period=max(n_requests // 3, 1),
        drift_shift=int(n_requests * 0.09) // 8,
        storm_period=max(n_requests // 4, 1),
        storm_duty=0.35,
        storm_churn_weight=0.6,
        storm_core_weight=0.2,
        burst_revive_gap=25_000.0,
        seed=seed,
        name="CDN-A",
    )


#: Name → spec factory, the registry experiments iterate over.
WORKLOADS: Dict[str, object] = {
    "CDN-T": cdn_t_spec,
    "CDN-W": cdn_w_spec,
    "CDN-A": cdn_a_spec,
}


def workload_names() -> list:
    return list(WORKLOADS)


def _spec(name: str, n_requests: int, seed: int | None) -> WorkloadSpec:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}") from None
    spec = factory(n_requests=n_requests) if seed is None else factory(n_requests=n_requests, seed=seed)  # type: ignore[operator]
    if n_requests < 1 or spec.n_core < 1:
        # the generator needs a request and one object in the scaled core population
        floor = next(n for n in count(1) if factory(n_requests=n).n_core >= 1)  # type: ignore[operator]
        raise ValueError(f"workload {name!r} needs n_requests >= {floor}, got {n_requests}")
    return spec


def make_workload(name: str, n_requests: int = 200_000, seed: int | None = None) -> Trace:
    """Generate one of the three named workloads at the requested scale."""
    return generate_trace(_spec(name, n_requests, seed))


def workload_to_bin(
    name: str, n_requests: int, path, seed: int | None = None
) -> dict:
    """Generate a named workload straight into a binary trace file.

    Same trace as :func:`make_workload` (bit-exact keys/sizes/order) but
    written via :func:`~repro.traces.synthetic.spec_to_bin`, skipping the
    Python ``Request`` list.  Returns the written header dict.
    """
    return spec_to_bin(_spec(name, n_requests, seed), path)
