"""``shuffled_range`` against ``random.Random.shuffle`` itself.

:func:`repro.generators.shuffle.shuffled_range` replays CPython's
Fisher–Yates in numpy: it must return the order ``shuffle`` leaves and
leave the generator in the state ``shuffle`` leaves, ``gauss_next``
included.  The stdlib shuffle is the oracle on every Python version the
suite runs on, so a change to CPython's ``_randbelow`` fails here before
it can move a pinned ``pairing_regular`` byte.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.shuffle import shuffled_range

#: 0–3, and each power of two from 4 to 2^20 with its neighbours: every
#: bit-length block starts full, one short and one over, and the
#: largest sizes draw several batches of words.
SIZES = sorted(
    {0, 1, 2, 3}
    | {m for k in range(2, 21) for m in (2**k - 1, 2**k, 2**k + 1)}
)


def _twins(seed: int, advanced: bool) -> tuple[random.Random, random.Random]:
    pair = random.Random(seed), random.Random(seed)
    if advanced:
        for rng in pair:
            rng.random()
            rng.gauss(0.0, 1.0)
    return pair


def assert_replays(oracle: random.Random, replay: random.Random, n: int):
    expected = list(range(n))
    oracle.shuffle(expected)
    order = shuffled_range(replay, n)
    assert order.dtype == np.int64
    assert order.tolist() == expected
    assert replay.getstate() == oracle.getstate()


@pytest.mark.parametrize("n", SIZES)
def test_matches_stdlib_shuffle(n):
    for seed in range(4):
        for advanced in (False, True):
            oracle, replay = _twins(seed, advanced)
            _, internal, gauss_next = oracle.getstate()
            # A fresh generator sits at the end of its word block; an
            # advanced one mid-block, with a cached gauss value.
            assert (internal[-1] == 624) != advanced
            assert (gauss_next is None) != advanced
            assert_replays(oracle, replay, n)


def test_every_offset_in_the_word_block():
    # Start at each of the 624 positions of MT19937's word block, so the
    # replay ends on both sides of a block boundary.
    for skip in range(626):
        oracle, replay = random.Random(11), random.Random(11)
        for rng in (oracle, replay):
            rng.getrandbits(32 * skip)
        assert_replays(oracle, replay, 40)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 5000),
    seed=st.integers(0, 2**64),
    skip=st.integers(0, 1300),
    gauss=st.booleans(),
)
def test_property_matches_stdlib_shuffle(n, seed, skip, gauss):
    oracle, replay = random.Random(seed), random.Random(seed)
    for rng in (oracle, replay):
        rng.getrandbits(32 * skip)
        if gauss:
            rng.gauss(0.0, 1.0)
    assert_replays(oracle, replay, n)


def test_rejects_other_generators():
    class Subclass(random.Random):
        pass

    for rng in (Subclass(0), random.SystemRandom()):
        with pytest.raises(TypeError):
            shuffled_range(rng, 10)


@pytest.mark.parametrize("n", [-1, 2**31])
def test_rejects_sizes_outside_int32(n):
    with pytest.raises(ValueError):
        shuffled_range(random.Random(0), n)
