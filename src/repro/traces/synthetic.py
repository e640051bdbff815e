"""Synthetic CDN workload generator.

Real CDN traces (the paper's CDN-T / CDN-W / CDN-A) are proprietary; this
module generates traces whose *mechanistic structure* matches what the
paper's figures measure.  Three object populations are mixed:

* **core** — a stable Zipf-popular set, re-accessed throughout the trace
  with long inter-access gaps.  Supplies the reusable bytes a cache exists
  to serve, and the A-ZROs: a core object whose gap exceeds the cache
  lifetime gets evicted unused (a ZRO episode) and then comes back.
* **one-shot** — objects accessed exactly once (CDN one-hit wonders).
  Every such miss is a ZRO: inserting it anywhere but the LRU position is
  pure pollution.
* **burst** — ephemeral objects receiving a short run of accesses inside a
  tight window, then never again.  The *last* hit of a burst is exactly a
  P-ZRO: a hit object that has just become zero-reuse.

Object size is drawn lognormally and (configurably) *negatively correlated
with reuse*: one-shot and burst objects skew larger, reproducing the
size→ZRO signal that ASC-IP exploits and Figure 1 documents.

Generation is numpy-vectorised end to end (per the HPC guides): per-object
access counts, birth times and inter-access gaps are drawn as arrays; the
final interleaving is a single argsort.  Python objects are materialised
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.request import Request, Trace

__all__ = ["WorkloadSpec", "generate_trace", "generate_arrays", "spec_to_bin", "zipf_probs"]


def zipf_probs(n: int, alpha: float) -> np.ndarray:
    """Normalised Zipf(α) probabilities over ranks 1..n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum()


@dataclass
class WorkloadSpec:
    """Knobs of the synthetic workload.

    The defaults describe a generic CDN; :mod:`repro.traces.cdn` ships the
    three per-workload profiles matched to Table 1.
    """

    n_requests: int = 200_000
    #: Objects in the stable Zipf core.
    n_core: int = 8_000
    #: Zipf skew of the core popularity.
    zipf_alpha: float = 0.9
    #: Core access model.  ``"periodic"`` (default): each core object has a
    #: characteristic revisit period drawn log-uniformly from
    #: [``core_period_lo``, ``core_period_hi``]·n_requests and is accessed
    #: on a jittered periodic train.  This matches two properties of real
    #: CDN traces that a memoryless Zipf stream lacks: the reuse-distance
    #: distribution has dense mass around typical cache lifetimes (real
    #: miss-ratio curves are steep near the deployed size), and an object's
    #: revisit behaviour is temporally consistent — the regularity every
    #: history-based policy (ours and the paper's) relies on.  ``"zipf"``
    #: keeps the i.i.d. Zipf draws with drift.
    core_model: str = "periodic"
    core_period_lo: float = 0.005
    core_period_hi: float = 1.0
    #: Jitter applied to each periodic visit, as a fraction of the period.
    core_jitter: float = 0.15
    #: Fraction of requests that are one-shot objects (each a unique key).
    one_shot_frac: float = 0.25
    #: Fraction of requests belonging to burst objects.
    burst_frac: float = 0.25
    #: Burst length distribution: geometric with this mean (≥ 2).
    burst_mean_len: float = 3.0
    #: Burst temporal tightness: gaps between burst accesses are uniform in
    #: [1, burst_window] request slots.
    burst_window: int = 2_000
    #: Resurgence: this fraction of burst objects gets a *second* episode a
    #: long gap after the first (content that goes viral again).  The first
    #: episode's final hit is a P-ZRO event that later degrades to an
    #: A-P-ZRO (Figure 1(f)), and recurrence is what lets history-based
    #: policies learn an object's P-ZRO signature.
    burst_revive_frac: float = 0.3
    #: Mean gap (request slots) between a burst's death and its revival.
    burst_revive_gap: float = 25_000.0
    #: Sweep traffic: a fixed population of objects visited cyclically with
    #: a period far beyond any cache tenure — crawler sweeps, monitoring
    #: probes, periodic revalidation.  Every sweep visit is a ZRO episode
    #: under LRU (a miss followed by a full unused tenure), but the objects
    #: are *normal-sized*, so size heuristics (ASC-IP) cannot see them while
    #: history-based recurrence detection (SCIP's ``H_m``) can.  A
    #: ``sweep_pair_frac`` share of visits arrives as a tight pair
    #: (request + revalidation): the pair's second access is a hit that
    #: instantly goes zero-reuse — a *recurring P-ZRO* population.
    sweep_frac: float = 0.15
    #: Sweep cycle length in request slots.
    sweep_period: int = 50_000
    #: Fraction of sweep visits that are (miss, hit) pairs.
    sweep_pair_frac: float = 0.5
    #: Gap between consecutive accesses of a pair, uniform in [1, this].
    sweep_pair_gap: int = 200
    #: A paired visit carries 1 + Geometric extra accesses with this mean
    #: (≥ 1).  Values above 1 make "is this hit the last?" intrinsically
    #: uncertain — the paper's argument for why P-ZRO identification is
    #: harder than ZRO identification (§2.3).
    sweep_pair_extra_mean: float = 1.45
    #: Mean object size in bytes (lognormal).
    mean_size: int = 44 * 1024
    #: Lognormal sigma of sizes.
    size_sigma: float = 1.2
    #: Min/max size clamps in bytes.
    min_size: int = 2
    max_size: int = 20 * 1024 * 1024
    #: Multiplier applied to the median size of one-shot objects (> 1 makes
    #: true ZROs larger — the signal ASC-IP exploits, Figure 1's "ZROs skew
    #: large").  Burst and sweep objects stay at bias 1.0: large objects
    #: that *do* get reused are exactly the misjudgment surface the paper
    #: holds against size-only heuristics (§2.3).
    zro_size_bias: float = 2.0
    #: Core inter-access gap scale, in request slots (exponential).  Larger
    #: values push more core accesses past cache lifetimes → more A-ZROs.
    core_gap_scale: float = 30_000.0
    #: Popularity drift: every ``drift_period`` requests the core ranking
    #: rotates by ``drift_shift`` positions (0 disables).
    drift_period: int = 50_000
    drift_shift: int = 500
    #: Short-term temporal locality: *echoing* core objects see rapid
    #: re-accesses — each access spawns an echo of the same object a short
    #: exponential gap later (mean ``echo_gap`` slots) with probability
    #: ``echo_frac``.  Whether an object echoes is a stable per-object
    #: property (``echo_obj_frac`` of core objects do): real content is
    #: consistently hot-bursty or consistently cold, which is precisely the
    #: per-object regularity that history-based policies learn.
    echo_obj_frac: float = 0.5
    echo_frac: float = 0.6
    echo_gap: float = 300.0
    #: Phase structure ("churn storms"): CDN traffic alternates between
    #: stable periods dominated by the popular core and storm periods
    #: (flash crowds, crawler sweeps, catalog refreshes) dominated by
    #: one-shot and ephemeral objects.  A storm occupies ``storm_duty`` of
    #: every ``storm_period`` requests; ``storm_churn_weight`` of all
    #: one-shot/burst mass lands inside storms, ``storm_core_weight`` of
    #: core mass does.  Phases are what an adaptive global policy (the
    #: paper's MAB) can exploit and a fixed policy cannot.
    storm_period: int = 40_000
    storm_duty: float = 0.3
    storm_churn_weight: float = 0.85
    storm_core_weight: float = 0.10
    #: Scramble final object keys through a bijective multiplicative hash.
    #: The generator assigns keys as consecutive integers per population —
    #: a layout that leaks population identity to any key-locality-based
    #: predictor (SHiP-style group signatures would read "one-shot" off the
    #: key itself).  Real CDN keys are URL hashes with no such locality;
    #: scrambling restores that property while keeping per-object identity.
    scramble_keys: bool = True
    seed: int = 0
    name: str = "synthetic"
    #: Extra: key namespace offset so mixed traces never collide.
    key_offset: int = field(default=0, repr=False)


def _phase_times(
    rng: np.random.Generator, n: int, spec: WorkloadSpec, in_weight: float
) -> np.ndarray:
    """Draw ``n`` timestamps from the piecewise-uniform storm/calm density.

    Mass ``in_weight`` falls inside storm windows (the first ``storm_duty``
    of every ``storm_period``), the rest outside.  With no phase structure
    (``storm_period <= 0``) this degenerates to uniform.
    """
    R = spec.n_requests
    if n == 0:
        return np.empty(0)
    if spec.storm_period <= 0 or not 0.0 < spec.storm_duty < 1.0:
        return rng.uniform(0, R, n)
    P = spec.storm_period
    duty = spec.storm_duty
    in_storm = rng.random(n) < in_weight
    # Position within a cycle: storm windows are [0, duty·P); calm the rest.
    cycle = rng.integers(0, max(int(np.ceil(R / P)), 1), n) * P
    offset = np.where(
        in_storm,
        rng.uniform(0, duty * P, n),
        rng.uniform(duty * P, P, n),
    )
    return np.minimum(cycle + offset, R - 1)


def _periodic_core(
    rng: np.random.Generator, spec: WorkloadSpec, budget: int
):
    """Per-object periodic revisit trains (see ``WorkloadSpec.core_model``).

    Draws objects with log-uniform periods until the visit budget is met,
    lays each object's visits on a jittered arithmetic train, then trims a
    random excess to hit the budget exactly.  Returns (keys, times); keys
    are indices < ``spec.n_core`` (capped population, reused cyclically).
    """
    R = spec.n_requests
    lo = max(spec.core_period_lo * R, 10.0)
    hi = max(spec.core_period_hi * R, lo * 1.01)
    # Expected visits per object with period T is ~R/T; for log-uniform T
    # the mean of R/T is R·(1/lo − 1/hi)/ln(hi/lo).
    mean_visits = R * (1.0 / lo - 1.0 / hi) / np.log(hi / lo)
    n_obj = min(max(int(budget / max(mean_visits, 1e-9)), 1), spec.n_core)
    periods = np.exp(rng.uniform(np.log(lo), np.log(hi), n_obj))
    phase0 = rng.uniform(0, periods)
    counts = np.maximum(((R - phase0) / periods).astype(np.int64) + 1, 1)
    total = int(counts.sum())
    obj_idx = np.repeat(np.arange(n_obj), counts)
    # Segmented arange: visit number k within each object's train.
    seg_starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    k = np.arange(total) - np.repeat(seg_starts, counts)
    times = (
        np.repeat(phase0, counts)
        + k * np.repeat(periods, counts)
        + rng.uniform(-spec.core_jitter, spec.core_jitter, total)
        * np.repeat(periods, counts)
    )
    valid = (times >= 0) & (times < R)
    obj_idx, times = obj_idx[valid], times[valid]
    if len(times) > budget:
        sel = rng.choice(len(times), budget, replace=False)
        obj_idx, times = obj_idx[sel], times[sel]
    return obj_idx.astype(np.int64), times


def _draw_sizes(
    rng: np.random.Generator, n: int, spec: WorkloadSpec, bias: float
) -> np.ndarray:
    """Lognormal sizes with the given median multiplier, clamped."""
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # Choose mu so the *mean* of the unclamped lognormal ≈ mean_size·bias.
    mu = np.log(spec.mean_size * bias) - spec.size_sigma**2 / 2.0
    sizes = rng.lognormal(mu, spec.size_sigma, n)
    return np.clip(sizes, spec.min_size, spec.max_size).astype(np.int64)


def _segment_offsets(gaps: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Running sum of ``gaps`` that restarts at every segment (``lens`` holds
    the segment lengths; no segments give no offsets)."""
    cum = np.cumsum(gaps)
    starts = np.cumsum(lens) - lens
    base = np.where(starts > 0, cum[np.maximum(starts - 1, 0)], 0.0)
    return cum - np.repeat(base, lens)


def generate_arrays(spec: WorkloadSpec):
    """Generate the workload as parallel ``(keys, sizes)`` int64 arrays.

    This is the whole generator short of materialising ``Request`` objects
    — the timestamp of request ``i`` is ``i``.  :func:`generate_trace`
    wraps it for the rich engine; :func:`spec_to_bin` streams the arrays
    into the binary format without ever building the Python list.
    """
    if spec.one_shot_frac + spec.burst_frac > 0.95:
        raise ValueError("one_shot_frac + burst_frac must leave room for the core")
    rng = np.random.default_rng(spec.seed)
    R = spec.n_requests

    n_one = int(R * spec.one_shot_frac)
    n_burst_req = int(R * spec.burst_frac)
    n_sweep_req = int(R * spec.sweep_frac)
    n_core_req = R - n_one - n_burst_req - n_sweep_req
    if n_core_req <= 0:
        raise ValueError("component fractions must leave room for the core")

    # --- core accesses ---------------------------------------------------------------
    if spec.core_model == "periodic":
        core_keys, core_times = _periodic_core(rng, spec, n_core_req)
    elif spec.core_model == "zipf":
        probs = zipf_probs(spec.n_core, spec.zipf_alpha)
        core_ranks = rng.choice(spec.n_core, size=n_core_req, p=probs)
        core_times = np.sort(
            _phase_times(rng, n_core_req, spec, spec.storm_core_weight)
        )
        if spec.drift_period > 0 and spec.drift_shift > 0:
            epoch = (core_times // spec.drift_period).astype(np.int64)
            core_keys = (core_ranks + epoch * spec.drift_shift) % spec.n_core
        else:
            core_keys = core_ranks
        # Stretch a slice of accesses into long-gap revisits (A-ZRO fuel).
        n_shift = n_core_req // 5
        if n_shift:
            idx = rng.choice(n_core_req, n_shift, replace=False)
            core_times[idx] = np.minimum(
                core_times[idx] + rng.exponential(spec.core_gap_scale, n_shift),
                R - 1,
            )
    else:
        raise ValueError(f"unknown core_model {spec.core_model!r}")
    # Short-term locality echoes: accesses of *echoing* objects repeat
    # shortly after.  Each echo replaces an original draw (keeping
    # n_core_req fixed) so the request budget and Zipf marginals stay
    # intact.  Echoing is a per-object property — see ``echo_obj_frac``.
    echoing_obj = rng.random(spec.n_core) < spec.echo_obj_frac
    n_core_actual = len(core_keys)  # the periodic model may return < budget
    eligible = np.flatnonzero(echoing_obj[core_keys])
    n_echo = min(int(len(eligible) * spec.echo_frac), n_core_actual)
    if n_echo:
        src = rng.choice(eligible, n_echo, replace=False)
        dst = rng.choice(n_core_actual, n_echo, replace=False)
        core_keys = core_keys.copy()
        core_keys[dst] = core_keys[src]
        core_times[dst] = np.minimum(
            core_times[src] + rng.exponential(spec.echo_gap, n_echo) + 1.0, R - 1
        )

    # --- one-shot objects ------------------------------------------------------------
    one_keys = spec.n_core + np.arange(n_one)
    one_times = _phase_times(rng, n_one, spec, spec.storm_churn_weight)

    # --- burst objects -----------------------------------------------------------------
    mean_extra = max(spec.burst_mean_len - 1.0, 1e-6)
    # Reserve part of the burst budget for resurgence episodes.
    revive_share = spec.burst_revive_frac / (1.0 + spec.burst_revive_frac)
    base_budget = int(n_burst_req * (1.0 - revive_share))
    lens: list = []
    total = 0
    # Draw burst lengths until the request budget is met (geometric ≥ 2).
    while total < base_budget:
        chunk = 2 + rng.geometric(1.0 / (1.0 + mean_extra), size=1024) - 1
        for L in chunk:
            if total >= base_budget:
                break
            L = int(min(L, base_budget - total)) or 1
            lens.append(L)
            total += L
    lens_arr = np.array(lens, dtype=np.int64)
    n_burst_obj = len(lens_arr)
    burst_births = np.minimum(
        _phase_times(rng, n_burst_obj, spec, spec.storm_churn_weight),
        max(R - spec.burst_window, 1),
    )
    burst_key_base = spec.n_core + n_one
    burst_keys = burst_key_base + np.repeat(np.arange(n_burst_obj), lens_arr)
    # Within-object cumulative gaps (reset per object).
    offset = _segment_offsets(rng.uniform(1, spec.burst_window, total), lens_arr)
    burst_times = np.repeat(burst_births, lens_arr) + offset
    burst_times = np.clip(burst_times, 0, R - 1)

    # Resurgence: a slice of burst objects returns for a second episode a
    # long gap after the first one ends.  Same key, fresh geometric length.
    if spec.burst_revive_frac > 0 and n_burst_obj:
        n_rev = int(n_burst_obj * spec.burst_revive_frac)
        rev_idx = rng.choice(n_burst_obj, n_rev, replace=False)
        rev_lens = 2 + rng.geometric(1.0 / (1.0 + mean_extra), size=n_rev) - 1
        first_end = burst_births + offset[np.cumsum(lens_arr) - 1]
        rev_births = first_end[rev_idx] + rng.exponential(
            spec.burst_revive_gap, n_rev
        )
        rev_total = int(rev_lens.sum())
        rev_offset = _segment_offsets(rng.uniform(1, spec.burst_window, rev_total), rev_lens)
        rev_times = np.repeat(rev_births, rev_lens) + rev_offset
        keep = rev_times < R - 1
        burst_keys = np.concatenate(
            [burst_keys, (burst_key_base + rev_idx).repeat(rev_lens)[keep]]
        )
        burst_times = np.concatenate([burst_times, rev_times[keep]])
        rev_sizes = np.repeat(np.arange(n_rev), rev_lens)[keep]  # index into rev_idx
        burst_size_index = np.concatenate(
            [np.repeat(np.arange(n_burst_obj), lens_arr), rev_idx[rev_sizes]]
        )
    else:
        burst_size_index = np.repeat(np.arange(n_burst_obj), lens_arr)

    # --- sweep objects -------------------------------------------------------------
    # Population size chosen so visits over all cycles meet the budget.
    n_cycles = max(int(np.ceil(R / spec.sweep_period)), 1)
    per_visit = 1.0 + spec.sweep_pair_frac
    n_sweep_obj = max(int(n_sweep_req / (n_cycles * per_visit)), 0)
    if n_sweep_obj and n_sweep_req:
        obj_ids = np.arange(n_sweep_obj)
        # Each object visited once per cycle, spread across the cycle with a
        # per-object phase plus small per-cycle jitter.
        phase = rng.uniform(0, spec.sweep_period, n_sweep_obj)
        cyc = np.repeat(np.arange(n_cycles), n_sweep_obj)
        base_t = cyc * spec.sweep_period + np.tile(phase, n_cycles)
        jitter = rng.uniform(-0.01 * spec.sweep_period, 0.01 * spec.sweep_period, len(base_t))
        visit_t = base_t + jitter
        visit_keys = np.tile(obj_ids, n_cycles)
        # Pairs: follow-up accesses shortly after the visit.  Paired-ness is
        # a stable per-object property (a URL either triggers revalidation
        # on every visit or never does), but the *number* of follow-ups per
        # visit is random, so the last hit is not identifiable in advance.
        paired_obj = rng.random(n_sweep_obj) < spec.sweep_pair_frac
        is_pair = paired_obj[visit_keys]
        pair_src = np.flatnonzero(is_pair)
        # Follow-up count is mostly a per-object trait (a page triggers the
        # same revalidation chain every visit) with light per-visit noise —
        # enough regularity for history-based policies to learn, enough
        # noise that the last hit is never a certainty.
        p_extra = 1.0 / max(spec.sweep_pair_extra_mean, 1.0)
        extra_per_obj = np.minimum(rng.geometric(p_extra, n_sweep_obj), 3)
        n_extra = extra_per_obj[visit_keys[pair_src]]
        jitter = rng.random(len(pair_src))
        n_extra = np.where(jitter < 0.1, n_extra + 1, n_extra)
        n_extra = np.maximum(np.where(jitter > 0.9, n_extra - 1, n_extra), 1)
        rep_src = np.repeat(pair_src, n_extra)
        offs_p = _segment_offsets(rng.uniform(1, spec.sweep_pair_gap, len(rep_src)), n_extra)
        pair_t = visit_t[rep_src] + offs_p
        pair_keys = visit_keys[rep_src]
        sweep_times = np.concatenate([visit_t, pair_t])
        sweep_key_idx = np.concatenate([visit_keys, pair_keys])
        keep = (sweep_times >= 0) & (sweep_times < R)
        sweep_times = sweep_times[keep]
        sweep_key_idx = sweep_key_idx[keep]
        sweep_key_base = spec.n_core + n_one + 10_000_000
        sweep_keys = sweep_key_base + sweep_key_idx
        sweep_sizes_per_obj = _draw_sizes(rng, n_sweep_obj, spec, bias=1.0)
        sweep_sizes = sweep_sizes_per_obj[sweep_key_idx]
    else:
        sweep_times = np.empty(0)
        sweep_keys = np.empty(0, dtype=np.int64)
        sweep_sizes = np.empty(0, dtype=np.int64)

    # --- sizes ---------------------------------------------------------------------------
    core_sizes_per_obj = _draw_sizes(rng, spec.n_core, spec, bias=1.0)
    one_sizes = _draw_sizes(rng, n_one, spec, bias=spec.zro_size_bias)
    burst_sizes_per_obj = _draw_sizes(rng, n_burst_obj, spec, bias=1.0)

    # --- interleave -------------------------------------------------------------------------
    all_keys = np.concatenate([core_keys, one_keys, burst_keys, sweep_keys])
    all_times = np.concatenate([core_times, one_times, burst_times, sweep_times])
    all_sizes = np.concatenate(
        [
            core_sizes_per_obj[core_keys],
            one_sizes,
            burst_sizes_per_obj[burst_size_index],
            sweep_sizes,
        ]
    )
    all_keys = all_keys + spec.key_offset
    if spec.scramble_keys:
        # Fibonacci-hash scramble: bijective on 64-bit ints, so object
        # identity is preserved while key locality is destroyed.
        all_keys = (all_keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(1)
        all_keys = all_keys.astype(np.int64)
    order = np.argsort(all_times, kind="stable")
    return all_keys[order], all_sizes[order]


def generate_trace(spec: WorkloadSpec) -> Trace:
    """Generate a trace according to ``spec``.  Deterministic per seed."""
    ks, ss = generate_arrays(spec)
    requests = [Request(t, int(k), int(s)) for t, (k, s) in enumerate(zip(ks, ss))]
    return Trace(requests, name=spec.name)


def spec_to_bin(spec: WorkloadSpec, path, chunk_size: int = 1 << 20) -> dict:
    """Generate a workload straight into a binary trace file.

    The numpy arrays are produced in full (this generator's interleaving
    needs a global argsort) but the Python ``Request`` list — the dominant
    memory cost at scale — is never built.  Returns the written header
    dict.  For O(chunk)-memory generation at 100 M-request scale use
    :mod:`repro.traces.streaming` instead.
    """
    from repro.traces.binfmt import BinTraceWriter

    ks, ss = generate_arrays(spec)
    with BinTraceWriter(path) as w:
        for lo in range(0, len(ks), chunk_size):
            w.write_chunk(None, ks[lo : lo + chunk_size], ss[lo : lo + chunk_size])
        return w.header_dict()
