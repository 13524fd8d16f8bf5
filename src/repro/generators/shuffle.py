"""Replay ``random.Random.shuffle`` of ``range(n)`` in numpy arrays.

``x = list(range(n)); rng.shuffle(x)`` costs one Python-level
``_randbelow`` call and one swap per entry, then a list → array copy.
:func:`shuffled_range` returns the same order as an array and leaves
``rng`` in the same state, so a generator whose output bytes are pinned
can drop the Python loop without moving a single byte.

The draws.  CPython's Fisher–Yates visits ``i = n-1, …, 1`` and draws
``j = _randbelow(i + 1)``: with ``k = (i + 1).bit_length()`` it takes one
MT19937 word per try, keeps its top ``k`` bits ``r``, and retries while
``r > i``.  The state from ``getstate()`` loads into
:class:`numpy.random.MT19937`, which yields the same words.  Steps with
equal ``k`` form a block; inside one, a word is accepted iff the number
of words accepted before it in the block is below ``b_hi - r``
(``b_hi`` the block's first bound).  That condition only looks back, so
iterating "guess the accept flags, recompute the prefix counts" from
any guess fixes at least one more word per pass, and a pass that
changes nothing up to some word has settled everything up to it.  From
a guess at the expected count, a chunk settles in a few numpy passes.
Blocks of at most :data:`_WORD_BY_WORD` steps go word by word.

The swaps.  Step ``i`` writes position ``i`` for the last time, so the
final ``x[i]`` is whatever sat at ``j_i`` just before step ``i``: the
value the latest earlier step targeting ``j_i`` carried there, or
``j_i`` itself.  What a step carries is what sat at its own position,
found the same way.  One sort of a combined (target, step) key groups
the writes per target in time order; pointer doubling along the
"latest earlier writer" links resolves the carried values.
"""

from __future__ import annotations

import math
import random

import numpy as np

__all__ = ["shuffled_range"]

#: Blocks with at most this many steps are replayed word by word; below
#: it the numpy passes cost more than the Python loop they replace.
_WORD_BY_WORD = 64
#: Words drawn from MT19937 per batch at most (8 MiB as int64).
_BATCH = 1 << 20
#: Words resolved per vector chunk at most.
_CHUNK = 1 << 18
#: MT19937 state words: outputs come in generation blocks of this size.
_MT_N = 624


class _Words:
    """The MT19937 words that follow a CPython state, as int64, in order.

    Words are drawn in batches ahead of use.  The buffer keeps the
    generation block (624 words) of the last consumed word, so that
    :meth:`state` can untemper it into the generator state CPython
    would hold after exactly the consumed words.
    """

    def __init__(self, internal: tuple[int, ...]) -> None:
        self._key = internal[:-1]
        self._start = internal[-1]
        # Any seed: the state is overwritten at once.
        self._bitgen = np.random.MT19937(0)
        self._bitgen.state = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(self._key, dtype=np.uint32),
                "pos": self._start,
            },
        }
        self._buf = np.empty(0, dtype=np.int64)
        self._base = 0  # index of _buf[0] in the word stream
        self._used = 0

    def _block_start(self, index: int) -> int:
        """Stream index of the first word of ``index``'s block."""
        return (index + self._start) // _MT_N * _MT_N - self._start

    def peek(self, size: int, ahead: int) -> np.ndarray:
        """The next ``size`` unconsumed words; a refill draws at least
        ``ahead`` words."""
        short = self._used + size - (self._base + len(self._buf))
        if short > 0:
            keep = max(self._base, self._block_start(max(self._used - 1, 0)))
            fresh = self._bitgen.random_raw(max(short, min(ahead, _BATCH)))
            self._buf = np.concatenate(
                (self._buf[keep - self._base:], fresh.view(np.int64))
            )
            self._base = keep
        first = self._used - self._base
        return self._buf[first:first + size]

    def consume(self, count: int) -> None:
        self._used += count

    def state(self) -> tuple[int, ...]:
        """CPython's internal state after the consumed words."""
        last = self._used - 1
        pos = (last + self._start) % _MT_N + 1
        first = self._block_start(last)
        if first < 0:
            return self._key + (pos,)
        self.peek(first + _MT_N - self._used, 0)
        block = self._buf[first - self._base:first - self._base + _MT_N]
        return tuple(_untemper(block).tolist()) + (pos,)


def _untemper(y: np.ndarray) -> np.ndarray:
    """Invert MT19937's output tempering: the state words behind ``y``."""
    y = y ^ (y >> 18)
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(4):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t
    for _ in range(2):
        t = y ^ (t >> 11)
    return t


def _settle(c: np.ndarray, guess: np.ndarray, need: int) -> tuple[np.ndarray, int]:
    """Which words a block accepts, given a guess.

    Word ``t`` is accepted iff fewer than ``c[t]`` words before it were,
    and the block ends at its ``need``-th acceptance.  Returns the
    positions of the accepted words and the number of words consumed.
    """
    settled = []
    base = 0
    start = 0
    flags = guess
    while start < len(c) and base < need:
        before = np.cumsum(flags)
        before -= flags
        before += base
        fresh = before < c[start:]
        changed = fresh != flags
        t = int(changed.argmax())
        if not changed[t]:
            t = len(fresh) - 1
        # Up to the first change the flags reproduce themselves, so they
        # are the sequential ones; so is the changed flag, whose count
        # comes from them.
        settled.append(fresh[:t + 1])
        base += int(np.count_nonzero(settled[-1]))
        start += t + 1
        flags = fresh[t + 1:]
    accepted = np.flatnonzero(np.concatenate(settled))[:need]
    if len(accepted) == need:
        return accepted, int(accepted[-1]) + 1
    return accepted, start


def _draw_block(
    words: _Words, k: int, b_hi: int, b_lo: int, out: np.ndarray
) -> None:
    """Replay ``_randbelow(b)`` for ``b = b_hi … b_lo`` into
    ``out[b - 1]``; every ``b`` has bit length ``k``.

    A refill draws ``2 * b`` words, up to a batch: more than the whole
    rest of the shuffle takes on average (about ``1.44 * b``).
    """
    shift = 32 - k
    if b_hi - b_lo < _WORD_BY_WORD:
        b = b_hi
        while b >= b_lo:
            used = 0
            for w in words.peek(2 * (b - b_lo + 1) + 8, 2 * b).tolist():
                used += 1
                r = w >> shift
                if r < b:
                    out[b - 1] = r
                    b -= 1
                    if b < b_lo:
                        break
            words.consume(used)
        return
    modulus = 1 << k
    b = b_hi
    while b >= b_lo:
        # About the words the rest of the block takes, but at most half
        # the modulus: the further a chunk runs, the further the guess
        # below strays from the true count, and the more passes it takes.
        expected = modulus * math.log(b / (b_lo - 1))
        size = min(int(expected * 1.05) + 64, modulus >> 1, _CHUNK)
        w = words.peek(size, 2 * b)
        c = b - (w >> shift)
        # The expected count of acceptances before each word.
        index = np.arange(len(c), dtype=np.float64)
        guess = b * -np.expm1(index * (-1.0 / modulus)) < c
        accepted, used = _settle(c, guess, b - b_lo + 1)
        count = len(accepted)
        out[b - count:b][::-1] = w[accepted] >> shift
        words.consume(used)
        b -= count


def shuffled_range(rng: random.Random, n: int) -> np.ndarray:
    """The order ``x = list(range(n)); rng.shuffle(x)`` leaves in ``x``.

    Returns it as an int64 array and advances ``rng`` exactly as that
    call does (equal ``getstate()`` afterwards, ``gauss_next`` kept).
    Only an exact :class:`random.Random` is accepted: a subclass may
    draw differently.
    """
    if type(rng) is not random.Random:
        raise TypeError(
            f"shuffled_range replays random.Random only, not {type(rng).__name__}"
        )
    if not 0 <= n < 1 << 31:
        raise ValueError(f"shuffled_range needs 0 <= n < 2**31, got {n}")
    if n < 2:
        return np.arange(n, dtype=np.int64)
    version, internal, gauss_next = rng.getstate()
    words = _Words(internal)
    # target[i] is the j drawn at step i, under bound i + 1.
    target = np.zeros(n, dtype=np.int32)
    for k in range(n.bit_length(), 1, -1):
        _draw_block(words, k, min(n, (1 << k) - 1), max(2, 1 << (k - 1)), target)
    rng.setstate((version, words.state(), gauss_next))
    return _compose(target, n)


def _compose(target: np.ndarray, n: int) -> np.ndarray:
    """The order Fisher–Yates leaves, given step ``i``'s draw
    ``target[i]`` for ``i = n-1 … 1``."""
    key = target[1:].astype(np.int64)
    key <<= 31
    key |= np.arange(1, n, dtype=np.int64)
    key.sort()
    # The writes grouped by target position, each group in step order:
    # the next entry of a group is the write just before, in time
    # (steps run downwards).
    pos = (key >> 31).astype(np.int32)
    key &= (1 << 31) - 1
    step = key.astype(np.int32)
    del key
    same = pos[1:] == pos[:-1]
    prior = np.empty(n - 1, dtype=np.int32)
    prior[:-1] = np.where(same, step[1:], -1)
    prior[-1] = -1
    # carried[p] starts as the latest step before step p that wrote
    # position p, else p.  That step wrote there what sat at its own
    # position just before it, so the chain of links ends, at a position
    # nothing wrote before its step, on the value p holds before step p.
    first = np.flatnonzero(np.concatenate(([True], ~same)))
    del same
    where = pos[first]
    writer = step[first]
    writer = np.where(writer == where, prior[first], writer)
    del first
    carried = np.arange(n, dtype=np.int32)
    hit = writer >= 0
    carried[where[hit]] = writer[hit]
    del where, writer, hit
    live = np.flatnonzero(carried != np.arange(n, dtype=np.int32))
    while live.size:
        jump = carried[carried[live]]
        carried[live] = jump
        live = live[carried[jump] != jump]
    # Step i leaves at position i what sat at target[i]: the value the
    # prior write there carried, else target[i] itself.
    order = np.empty(n, dtype=np.int32)
    order[step] = np.where(prior >= 0, carried[prior], pos)
    order[0] = carried[0]
    return order.astype(np.int64)
