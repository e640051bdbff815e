"""Chunk-deterministic streaming workload generators for paper-scale traces.

:mod:`repro.traces.synthetic` builds a rich multi-population workload by
materialising every per-object array and interleaving with one argsort —
faithful, but O(trace) memory: at the paper's 100 M-request scale the
intermediate arrays alone are tens of GB.  This module is the scale path:
a simpler generative model (stable Zipf hot set + one-shot churn + slow
popularity drift, the three ingredients the paper's Table 1 statistics
pin) that is generated **chunk by chunk** with O(chunk) memory and written
straight into a :class:`~repro.traces.binfmt.BinTraceWriter`.

Determinism contract
--------------------
Chunk ``i`` is drawn from ``np.random.default_rng([seed, i])`` — each
chunk's randomness depends only on ``(seed, chunk_index)``, never on how
many chunks were drawn before it.  Consequently:

* regenerating any chunk in isolation (parallel workers, resumed writes)
  reproduces it bit-exactly;
* ``chunk_requests`` is **part of the contract**: the same spec with a
  different chunk size is a *different trace*.

Object sizes are a pure hash of the key (splitmix64 → Box–Muller →
lognormal), so every occurrence of a key carries the same size without the
generator remembering anything — which is also what keeps the batch
engine's vectorised path (consistent per-key sizes) on these traces.

The three ``CDN-*-stream`` profiles reproduce Table 1's requests-per-object
ratio, mean/max object size, and popularity skew at any request count:
e.g. CDN-T's ``0.25`` one-shot share plus a ``0.063·n`` hot set gives
``n/3.19`` unique objects, the published ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.hashing import splitmix64_array
from repro.sim.request import Trace, requests_from_arrays
from repro.traces.binfmt import BinTraceWriter, PathLike
from repro.traces.synthetic import zipf_probs

__all__ = [
    "StreamSpec",
    "stream_chunks",
    "stream_to_bin",
    "stream_trace",
    "cdn_t_stream_spec",
    "cdn_w_stream_spec",
    "cdn_a_stream_spec",
    "STREAM_WORKLOADS",
    "make_stream_spec",
]

#: One-shot keys live far above any hot-set id so populations never collide.
_ONE_SHOT_BASE = 1 << 40
_U64 = np.uint64


@dataclass(frozen=True)
class StreamSpec:
    """Knobs of the streaming workload (see module docstring).

    Frozen: a spec is a value — workers regenerate chunks from it.
    """

    n_requests: int = 1_000_000
    #: Fraction of requests that are one-shot objects (unique key each).
    one_shot_frac: float = 0.25
    #: Hot-set size as a fraction of ``n_requests``.
    hot_frac: float = 0.063
    #: Zipf skew of hot-set popularity.
    zipf_alpha: float = 0.85
    #: Lognormal size model (same meaning as :class:`WorkloadSpec`).
    mean_size: int = 44_560
    size_sigma: float = 0.6
    min_size: int = 2
    max_size: int = 19_970_000
    #: Median-size multiplier for one-shot objects (ZROs skew large).
    one_shot_size_bias: float = 1.5
    #: Popularity drift: the hot ranking rotates this many times over the
    #: trace (1 disables).
    drift_epochs: int = 8
    #: Rotation amount per epoch, as a fraction of the hot-set size.
    drift_shift_frac: float = 0.05
    #: Requests per generation chunk — part of the determinism contract.
    chunk_requests: int = 1 << 20
    seed: int = 0
    name: str = "stream"

    @property
    def n_hot(self) -> int:
        return max(round(self.n_requests * self.hot_frac), 1)


def _hash_sizes(
    keys_u64: np.ndarray, spec: StreamSpec, bias: np.ndarray
) -> np.ndarray:
    """Deterministic per-key lognormal sizes: splitmix64 → Box–Muller."""
    h1 = splitmix64_array(keys_u64)
    h2 = splitmix64_array(h1 ^ _U64(0xD6E8FEB86659FD93))
    # 53-bit mantissa uniforms; u1 in (0, 1] so log() is finite.
    u1 = ((h1 >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (h2 >> _U64(11)).astype(np.float64) * 2.0**-53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    mu = np.log(spec.mean_size * bias) - spec.size_sigma**2 / 2.0
    sizes = np.exp(mu + spec.size_sigma * z)
    return np.clip(sizes, spec.min_size, spec.max_size).astype(np.uint64)


def stream_chunks(
    spec: StreamSpec,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(times, keys, sizes)`` chunks; O(chunk + hot-set) memory."""
    if spec.n_requests < 0:
        raise ValueError(f"n_requests must be >= 0, got {spec.n_requests}")
    if not 0.0 <= spec.one_shot_frac <= 1.0:
        raise ValueError(f"one_shot_frac must be in [0, 1], got {spec.one_shot_frac}")
    if spec.chunk_requests < 1:
        raise ValueError(f"chunk_requests must be >= 1, got {spec.chunk_requests}")
    n_hot = spec.n_hot
    cdf = np.cumsum(zipf_probs(n_hot, spec.zipf_alpha))
    epoch_len = max(spec.n_requests // max(spec.drift_epochs, 1), 1)
    shift = (
        max(int(n_hot * spec.drift_shift_frac), 1) if spec.drift_epochs > 1 else 0
    )
    for ci, lo in enumerate(range(0, spec.n_requests, spec.chunk_requests)):
        m = min(spec.chunk_requests, spec.n_requests - lo)
        rng = np.random.default_rng([spec.seed, ci])
        idx = lo + np.arange(m, dtype=np.int64)
        one_mask = rng.random(m) < spec.one_shot_frac
        ranks = np.searchsorted(cdf, rng.random(m), side="right")
        np.minimum(ranks, n_hot - 1, out=ranks)
        if shift:
            epoch = idx // epoch_len
            hot_keys = (ranks + epoch * shift) % n_hot
        else:
            hot_keys = ranks
        keys = np.where(one_mask, _ONE_SHOT_BASE + idx, hot_keys)
        bias = np.where(one_mask, spec.one_shot_size_bias, 1.0)
        sizes = _hash_sizes(keys.view(_U64), spec, bias)
        # Scramble: splitmix64 is a bijection on u64, so per-object identity
        # (and the size hash already computed) survives while key locality —
        # which would leak population membership — is destroyed.
        keys = np.ascontiguousarray(splitmix64_array(keys.view(_U64))).view(np.int64)
        yield idx, keys, sizes


def stream_to_bin(spec: StreamSpec, path: PathLike) -> dict:
    """Generate the trace straight into a binary file; returns the header."""
    with BinTraceWriter(path) as w:
        for times, keys, sizes in stream_chunks(spec):
            w.write_chunk(times, keys, sizes)
        return w.header_dict()


def stream_trace(spec: StreamSpec) -> Trace:
    """Materialise a (small) streaming workload as a :class:`Trace`."""
    reqs = []
    for times, keys, sizes in stream_chunks(spec):
        reqs.extend(requests_from_arrays(keys, sizes.astype(np.int64), times))
    return Trace(reqs, name=spec.name)


def cdn_t_stream_spec(n_requests: int, seed: int = 7) -> StreamSpec:
    """CDN-T profile: n/3.19 uniques, 44.56 KB mean, 19.97 MB max."""
    return StreamSpec(
        n_requests=n_requests,
        one_shot_frac=0.25,
        hot_frac=0.063,
        zipf_alpha=0.85,
        mean_size=44_560,
        size_sigma=0.6,
        max_size=19_970_000,
        seed=seed,
        name="CDN-T-stream",
    )


def cdn_w_stream_spec(n_requests: int, seed: int = 11) -> StreamSpec:
    """CDN-W profile: n/42.7 uniques, 35.07 KB mean, 674.38 MB max."""
    return StreamSpec(
        n_requests=n_requests,
        one_shot_frac=0.02,
        hot_frac=0.0034,
        zipf_alpha=1.0,
        mean_size=35_070,
        size_sigma=0.55,
        min_size=10,
        max_size=674_380_000,
        seed=seed,
        name="CDN-W-stream",
    )


def cdn_a_stream_spec(n_requests: int, seed: int = 13) -> StreamSpec:
    """CDN-A profile: n/1.83 uniques, 31.21 KB mean, 7.99 MB max."""
    return StreamSpec(
        n_requests=n_requests,
        one_shot_frac=0.48,
        hot_frac=0.066,
        zipf_alpha=0.75,
        mean_size=31_210,
        size_sigma=0.55,
        max_size=7_990_000,
        seed=seed,
        name="CDN-A-stream",
    )


#: Name → spec factory, mirroring :data:`repro.traces.cdn.WORKLOADS`.
STREAM_WORKLOADS: Dict[str, object] = {
    "CDN-T": cdn_t_stream_spec,
    "CDN-W": cdn_w_stream_spec,
    "CDN-A": cdn_a_stream_spec,
}


def make_stream_spec(
    name: str, n_requests: int, seed: int | None = None, **overrides
) -> StreamSpec:
    """Look up a streaming profile by workload name."""
    try:
        factory = STREAM_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {list(STREAM_WORKLOADS)}"
        ) from None
    spec = factory(n_requests) if seed is None else factory(n_requests, seed)  # type: ignore[operator]
    return replace(spec, **overrides) if overrides else spec
