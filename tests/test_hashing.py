"""repro.hashing: the finalizer, the full step, and their numpy twin."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.hashing import GAMMA, mix64, splitmix64, splitmix64_array

M64 = (1 << 64) - 1


@pytest.mark.parametrize(
    "x, expected",
    [
        (1, 0x5692161D100B05E5),
        (0xDEADBEEFCAFEF00D, 0x19104AE2406D51C3),
        (M64, 0xB4D055FCF2CBBD7B),
    ],
)
def test_mix64_literal_vectors(x, expected):
    assert mix64(x) == expected


def test_mix64_reduces_mod_2_64():
    assert mix64(0) == 0
    assert mix64(-1) == mix64(M64)
    assert mix64((1 << 64) + 1) == mix64(1)


def test_splitmix64_is_the_published_generator():
    # Vigna's splitmix64 seeded with 0: first two outputs.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(GAMMA) == 0x6E789E6AA1B965F4


def test_the_two_functions_differ_by_the_gamma_step():
    assert splitmix64(12345) == mix64(12345 + GAMMA)
    assert splitmix64(12345) != mix64(12345)


def test_scalar_equals_array_form():
    rng = random.Random(19)
    xs = [0, 1, 2**63, M64] + [rng.getrandbits(64) for _ in range(1_000)]
    out = splitmix64_array(np.array(xs, dtype=np.uint64))
    assert out.dtype == np.uint64
    assert [splitmix64(x) for x in xs] == out.tolist()
