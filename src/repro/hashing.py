"""The repo's one 64-bit spatial hash, in its two spellings.

splitmix64 is two steps: add the golden gamma, then run the *finalizer*
(two xor-shift-multiply rounds and a last xor-shift).  Code that hashes a
value it has already salted wants the bare finalizer (:func:`mix64`);
code that hashes raw consecutive integers wants the gamma step too
(:func:`splitmix64`), and the numpy form (:func:`splitmix64_array`) is
that second function over a ``uint64`` array.  The two are **not**
interchangeable — ``splitmix64(x) == mix64(x + GAMMA)`` — which is why
they live side by side under different names.

Everything that samples, routes or scrambles by key goes through here:
SHARDS sampling and the batch core's key table (array form), topology
routing, probabilistic placement and the orchestrator's spatial sampler
(finalizer), receiver assignment (both, bit-equal).
"""

from __future__ import annotations

import numpy as np

__all__ = ["GAMMA", "mix64", "splitmix64", "splitmix64_array"]

#: The golden-ratio increment of splitmix64's state step.
GAMMA = 0x9E3779B97F4A7C15

_M64 = (1 << 64) - 1
_U64 = np.uint64


def mix64(x: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit avalanche mix (``x`` is
    reduced mod 2**64 first, so negative and oversized ints are fine)."""
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


def splitmix64(x: int) -> int:
    """Full splitmix64 step of ``x``: gamma increment, then the finalizer.
    Equal to ``splitmix64_array`` element for element."""
    return mix64(x + GAMMA)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a uint64 array (wrapping)."""
    x = (x + _U64(GAMMA)) & _U64(_M64)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))
