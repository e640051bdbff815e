"""SHARDS-style spatial hash sampling for shadow caches.

Shadow caches must be cheap — running K full-size candidate policies
beside the live cache would K+1-tuple the metadata footprint and the
per-request work.  SHARDS (Waldspurger et al., FAST'15) shows that a cache
model fed only the requests whose **key hash** falls below a threshold
``R`` (the sample rate), with its capacity scaled to ``R · C``, reproduces
the full-trace miss ratio at capacity ``C`` to within a small error: the
key-hash filter keeps *every* request of a sampled object, so per-object
reuse structure is intact, and reuse *distances* scale by ``R`` uniformly
— exactly compensated by the scaled capacity.

(Request-level thinning would instead stretch reuse distances without
compensation; see :func:`repro.traces.transform.sample_objects` for the
same argument on the trace side.)

:class:`SpatialSampler` is the hash filter: deterministic per (rate,
seed), O(1) per key, integer-only on the hot path.  The hash is a
splitmix64 finalizer — consecutive integer keys (the synthetic
generators' raw namespaces) decorrelate fully, so the sampled population
is unbiased even on unscrambled traces.
"""

from __future__ import annotations

import hashlib

from repro.hashing import mix64

__all__ = ["SpatialSampler"]


class SpatialSampler:
    """Keep a key iff ``mix(key ^ seed) / 2^64 < rate``.

    Parameters
    ----------
    rate:
        Sample rate ``R`` in ``(0, 1]``.  ``1.0`` keeps everything (the
        shadow then replays the full stream at full scale).
    seed:
        Decorrelates the sampled population between runs (and between
        racks, so two racks never study the same biased subset).
    """

    __slots__ = ("rate", "seed", "_threshold", "_salt")

    def __init__(self, rate: float, seed: int = 0):
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"sample rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self._threshold = int(self.rate * (1 << 64))
        self._salt = mix64(self.seed ^ 0xA5A5A5A5A5A5A5A5)

    def sampled(self, key) -> bool:
        """Whether ``key`` belongs to the sampled population."""
        if isinstance(key, int):
            h = mix64(key ^ self._salt)
        else:
            # Non-int keys (rare: string URLs in imported traces) go through
            # a stable digest — builtin hash() is salted per process and
            # would break run-to-run determinism.
            digest = hashlib.blake2b(
                repr(key).encode(), digest_size=8, key=self._salt.to_bytes(8, "big")
            ).digest()
            h = int.from_bytes(digest, "big")
        return h < self._threshold

    def scaled_capacity(self, capacity: int) -> int:
        """Shadow capacity matched to the sample rate (``R · C``, >= 1)."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        return max(int(capacity * self.rate), 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpatialSampler(rate={self.rate}, seed={self.seed})"
