"""The shuffle replay against ``random.Random.shuffle`` itself.

:mod:`repro.generators.shuffle` replays CPython's Fisher–Yates in
numpy: :func:`shuffled_range` one shuffle, :class:`ShuffleStream`
successive shuffles on one word stream, and :func:`shuffled_segments`
the numbering's one shuffle per node in a batch.  Each must return the
orders the stdlib shuffles leave and leave the generator in the state
they leave, ``gauss_next`` included.  The stdlib shuffle is the oracle
on every Python version the suite runs on, so a change to CPython's
``_randbelow`` fails here before it can move a pinned ``regular`` or
``pairing_regular`` byte.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import shuffle
from repro.generators.bounded import grid, path
from repro.generators.regular import (
    complete,
    complete_bipartite,
    cycle,
    hypercube,
    torus,
)
from repro.generators.shuffle import (
    ShuffleStream,
    shuffled_range,
    shuffled_segments,
)

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


# ---------------------------------------------------------------------------
# Successive shuffles on one stream
# ---------------------------------------------------------------------------

#: Empty and one-entry shuffles draw nothing; 63–65 straddle the word by
#: word / vector split of a bit-length block; the last two draw vector
#: blocks, one of them a size past a power of two.
STREAM_SIZES = [0, 1, 2, 63, 64, 65, 2048, 4097]


@pytest.mark.parametrize("advanced", [False, True])
def test_stream_matches_successive_shuffles(advanced):
    for seed in range(4):
        oracle, replay = _twins(seed, advanced)
        with ShuffleStream(replay) as stream:
            for m in STREAM_SIZES:
                expected = list(range(m))
                oracle.shuffle(expected)
                order = stream.order(m)
                assert order.dtype == np.int64
                assert order.tolist() == expected, (seed, m)
        assert replay.getstate() == oracle.getstate()


def test_stream_replays_shrinking_rounds():
    # The regular sampler's pattern: a round over every stub, rounds
    # over the few stubs left, and a restart that begins again.
    rounds = [1536, 64, 18, 6, 2, 1536, 40, 4]
    for seed in range(4):
        oracle, replay = random.Random(seed), random.Random(seed)
        with ShuffleStream(replay) as stream:
            for m in rounds:
                stubs = np.arange(m, dtype=np.int64) * 7 % 13
                expected = stubs.tolist()
                oracle.shuffle(expected)
                assert stubs[stream.order(m)].tolist() == expected
        assert replay.getstate() == oracle.getstate()


def test_stream_without_draws_leaves_the_generator():
    rng = random.Random(5)
    before = rng.getstate()
    with ShuffleStream(rng) as stream:
        assert stream.order(0).tolist() == []
        assert stream.order(1).tolist() == [0]
    assert rng.getstate() == before


# ---------------------------------------------------------------------------
# The numbering's shuffles in one batch
# ---------------------------------------------------------------------------


def stdlib_segments(rng: random.Random, sizes) -> list[int]:
    """The numbering loop: one shuffle per segment, in order."""
    out: list[int] = []
    base = 0
    for size in sizes:
        index = list(range(size))
        rng.shuffle(index)
        out.extend(base + i for i in index)
        base += size
    return out


def assert_segments(sizes, seed: int, advanced: bool = False) -> None:
    oracle, replay = _twins(seed, advanced)
    expected = stdlib_segments(oracle, list(sizes))
    got = shuffled_segments(replay, np.asarray(sizes, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == expected, (list(sizes), seed)
    assert replay.getstate() == oracle.getstate()


#: The table limit as shipped, and raised past every size below so that
#: the batch itself replays the dense profiles too.
TABLE_LIMITS = [shuffle._TABLE_MAX_SIZE, 40]


@pytest.mark.parametrize("limit", TABLE_LIMITS)
def test_segments_random_profiles(limit, monkeypatch):
    monkeypatch.setattr(shuffle, "_TABLE_MAX_SIZE", limit)
    rng = random.Random(2024)
    for trial in range(40):
        top = rng.choice([1, 2, 3, 5, 8, 12, 13, 20, 40])
        sizes = [rng.randrange(top + 1) for _ in range(rng.randrange(401))]
        for seed in range(4):
            assert_segments(sizes, seed, advanced=bool(trial % 2))


@pytest.mark.parametrize(
    "build,args",
    [
        (cycle, (65,)),
        (complete, (12,)),
        (complete, (13,)),
        (complete, (14,)),
        (complete, (41,)),
        (complete_bipartite, (3, 17)),
        (path, (1,)),
        (path, (100,)),
        (grid, (9, 11)),
        (torus, (5, 7)),
        (hypercube, (7,)),
    ],
)
def test_segments_structured_profiles(build, args):
    compiled = build(*args).compiled()
    degrees = np.diff(np.frombuffer(compiled.offsets, dtype=np.int64))
    for seed in range(4):
        assert_segments(degrees.tolist(), seed)


@pytest.mark.parametrize("limit", TABLE_LIMITS)
@pytest.mark.parametrize("d", [2, 3, 8])
def test_segments_dense_profiles_both_sides(d, limit, monkeypatch):
    monkeypatch.setattr(shuffle, "_TABLE_MAX_SIZE", limit)
    edge = shuffle._TABLE_MAX_SIZE
    for sizes in (
        [edge] * 64,
        [edge + 1] * 64,
        [d, edge + 1, 0, edge, 1] * 20,
        [edge - d] * 100,
    ):
        for seed in range(2):
            assert_segments(sizes, seed, advanced=bool(seed))


def test_segments_across_windows(monkeypatch):
    # One table entry per window at most: every window holds about one
    # segment, so each hand-off between windows is exercised.
    monkeypatch.setattr(shuffle, "_TABLE_ENTRIES", 1)
    rng = random.Random(7)
    for _ in range(20):
        sizes = [rng.randrange(13) for _ in range(rng.randrange(1, 60))]
        assert_segments(sizes, rng.randrange(100), advanced=True)


def test_segments_window_too_short_doubles(monkeypatch):
    # With no words expected every window starts at 64 words, which a
    # shuffle of 40 entries (about 59 words on average) often outruns.
    def nothing_expected(top):
        return np.zeros(top + 1), np.zeros(top + 1)

    windows = []
    tables = shuffle._jump_tables

    def spy(w, top, sizes):
        windows.append(len(w))
        return tables(w, top, sizes)

    monkeypatch.setattr(shuffle, "_TABLE_MAX_SIZE", 40)
    monkeypatch.setattr(shuffle, "_TABLE_ENTRIES", 1)
    monkeypatch.setattr(shuffle, "_expected_words", nothing_expected)
    monkeypatch.setattr(shuffle, "_jump_tables", spy)
    for seed in range(10):
        assert_segments([40, 40, 7, 0, 40], seed)
    assert 128 in windows


def test_segments_reject_other_generators():
    with pytest.raises(TypeError):
        shuffled_segments(random.SystemRandom(), np.array([3, 4]))
