"""Replay ``random.Random.shuffle`` in numpy arrays.

``x = list(range(n)); rng.shuffle(x)`` costs one Python-level
``_randbelow`` call and one swap per entry, then a list → array copy.
The replays here return the same orders as arrays and leave ``rng`` in
the same state, so a generator whose output bytes are pinned can drop
the Python loop without moving a single byte:

* :class:`ShuffleStream` reads ``rng``'s state once, replays successive
  shuffles with :meth:`~ShuffleStream.order` on one stream of MT19937
  words, and writes the state back once (the ``regular`` sampler's
  rounds and restarts);
* :func:`shuffled_range` is its one-shot use (``pairing_regular``'s
  stub shuffle);
* :func:`shuffled_segments` replays many small shuffles in one batch
  (the numbering's one shuffle per node, :mod:`repro.generators.direct`).
  It keeps the stdlib loop for shuffles of more than
  :data:`_TABLE_MAX_SIZE` entries, whose tables would cost more than
  the loop.

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

The batch.  Each small shuffle's bounds run ``s, s-1, …, 2``, so the
draws of a whole sequence of shuffles are known once their sizes are;
only where each one starts in the word stream depends on the ones
before.  Tables of "one past the next word bound ``b`` accepts", one
per bound, compose into jump tables from a shuffle's first word to the
next one's; a pass over the shuffles reads their starts, and the draws
and swaps then run bound by bound over all shuffles at once
(:func:`_segments`).
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

__all__ = ["ShuffleStream", "shuffled_range", "shuffled_segments"]

#: Blocks with at most this many steps are replayed word by word; below
#: it the numpy passes cost more than the Python loop they replace.
_WORD_BY_WORD = 64
#: Words drawn from MT19937 per batch at most (8 MiB as int64).
_BATCH = 1 << 20
#: Words resolved per vector chunk at most.
_CHUNK = 1 << 18
#: MT19937 state words: outputs come in generation blocks of this size.
_MT_N = 624
#: Largest shuffle :func:`shuffled_segments` replays on the word stream;
#: its tables cost words times the largest size, so past the crossover
#: measured on dense degree profiles the stdlib loop is cheaper.
_TABLE_MAX_SIZE = 12
#: Table entries (window words times the largest size) per window at most.
_TABLE_ENTRIES = 1 << 22


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
        self._bitgen = None  # built at the first draw
        self._buf = np.empty(0, dtype=np.int64)
        self._base = 0  # index of _buf[0] in the word stream
        self.used = 0

    def _draw(self, count: int) -> np.ndarray:
        if self._bitgen is None:
            self._bitgen = np.random.MT19937(_unseeded())
            self._bitgen.state = {
                "bit_generator": "MT19937",
                "state": {
                    "key": np.array(self._key, dtype=np.uint32),
                    "pos": self._start,
                },
            }
        return self._bitgen.random_raw(count).view(np.int64)

    def _block_start(self, index: int) -> int:
        """Stream index of the first word of ``index``'s block."""
        return (index + self._start) // _MT_N * _MT_N - self._start

    def peek(self, size: int, ahead: int) -> np.ndarray:
        """The next ``size`` unconsumed words; a refill draws at least
        ``ahead`` words."""
        short = self.used + size - (self._base + len(self._buf))
        if short > 0:
            keep = max(self._base, self._block_start(max(self.used - 1, 0)))
            fresh = self._draw(max(short, min(ahead, _BATCH)))
            self._buf = np.concatenate((self._buf[keep - self._base:], fresh))
            self._base = keep
        first = self.used - self._base
        return self._buf[first:first + size]

    def consume(self, count: int) -> None:
        self.used += count

    def state(self) -> tuple[int, ...]:
        """CPython's internal state after the consumed words."""
        last = self.used - 1
        pos = (last + self._start) % _MT_N + 1
        first = self._block_start(last)
        if first < 0:
            return self._key + (pos,)
        self.peek(first + _MT_N - self.used, 0)
        block = self._buf[first - self._base:first - self._base + _MT_N]
        return tuple(_untemper(block).tolist()) + (pos,)


@functools.cache
def _unseeded():
    """A seed sequence that hands MT19937 zeros.

    The state is overwritten right after construction, so hashing a real
    seed (two thirds of the construction's time) would be wasted.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Zeros(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return Zeros()


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


class ShuffleStream:
    """Successive ``rng.shuffle`` calls replayed on one word stream.

    Opening the stream reads ``rng``'s state once and builds one MT19937
    bit generator; each :meth:`order` draws from the words that follow,
    and leaving the ``with`` block writes back the state ``rng`` would
    hold after the same shuffles made by the stdlib (``gauss_next``
    kept).  Draw nothing else from ``rng`` while the stream is open.
    Only an exact :class:`random.Random` is accepted: a subclass may
    draw differently.
    """

    def __init__(self, rng: random.Random) -> None:
        if type(rng) is not random.Random:
            raise TypeError(
                f"the shuffle replay takes random.Random only, not "
                f"{type(rng).__name__}"
            )
        self._rng = rng
        self._version, internal, self._gauss_next = rng.getstate()
        self._words = _Words(internal)

    def __enter__(self) -> ShuffleStream:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Write the generator state after the consumed words back."""
        if self._words.used:
            self._rng.setstate(
                (self._version, self._words.state(), self._gauss_next)
            )

    def order(self, m: int) -> np.ndarray:
        """The order the next ``x = list(range(m)); rng.shuffle(x)``
        leaves in ``x``, as an int64 array.  Shuffling a list ``a`` of
        length ``m`` leaves ``a[order(m)]``."""
        if not 0 <= m < 1 << 31:
            raise ValueError(f"the shuffle replay needs 0 <= m < 2**31, got {m}")
        if m < 2:
            return np.arange(m, dtype=np.int64)
        # target[i] is the j drawn at step i, under bound i + 1.
        target = np.zeros(m, dtype=np.int32)
        for k in range(m.bit_length(), 1, -1):
            _draw_block(
                self._words, k, min(m, (1 << k) - 1), max(2, 1 << (k - 1)),
                target,
            )
        return _compose(target, m)


def shuffled_range(rng: random.Random, n: int) -> np.ndarray:
    """The order ``x = list(range(n)); rng.shuffle(x)`` leaves in ``x``.

    Returns it as an int64 array and advances ``rng`` exactly as that
    call does: the one-shot use of :class:`ShuffleStream`.
    """
    with ShuffleStream(rng) as stream:
        return stream.order(n)


def shuffled_segments(rng: random.Random, sizes: np.ndarray) -> np.ndarray:
    """Successive shuffles of ``range(s)``, one per ``s`` in ``sizes``.

    Returns one int64 permutation of ``range(sum(sizes))``: segment
    ``k`` (the ``sizes[k]`` entries from ``sizes[:k].sum()`` on) holds
    the order ``x = list(range(sizes[k])); rng.shuffle(x)`` leaves,
    offset by the segment's start, and ``rng`` is advanced as by those
    calls in turn.  Up to :data:`_TABLE_MAX_SIZE` the draws come from
    one word stream (:func:`_segments`); past it the table work would
    grow as words times the largest size, so the stdlib shuffles run.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    if len(sizes) and int(sizes.max()) > _TABLE_MAX_SIZE:
        shuffle = rng.shuffle
        local: list[int] = []
        extend = local.extend
        for size in sizes.tolist():
            index = list(range(size))
            shuffle(index)
            extend(index)
        return np.repeat(np.cumsum(sizes) - sizes, sizes) + np.array(
            local, dtype=np.int64
        )
    with ShuffleStream(rng) as stream:
        return _segments(stream._words, sizes)


def _expected_words(top: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the words one shuffle of ``range(s)`` takes,
    for ``s = 0 … top``: a draw under bound ``b`` of bit length ``k``
    takes a geometric number of words with success ``b / 2**k``."""
    mean = np.zeros(top + 1)
    var = np.zeros(top + 1)
    for b in range(2, top + 1):
        p = b / (1 << b.bit_length())
        mean[b] = mean[b - 1] + 1 / p
        var[b] = var[b - 1] + (1 - p) / (p * p)
    return mean, var


def _segments(words: _Words, sizes: np.ndarray) -> np.ndarray:
    """:func:`shuffled_segments` on a word stream.

    The draws are known up front: segment ``k`` draws ``_randbelow(b)``
    for ``b = sizes[k] … 2``, each from the first word after the
    previous draw's whose top ``b.bit_length()`` bits are below ``b``.
    Over a window of words, :func:`_jump_tables` says where each
    segment size, started at any word, stops; one pass over the
    segments reads off where each starts.  Then, bound by bound from the
    largest, every segment still drawing gathers its draw and swaps its
    two entries.  The segments that run past the window wait for the
    next one.
    """
    total = int(sizes.sum())
    out = np.arange(total, dtype=np.int64)
    drawing = np.flatnonzero(sizes >= 2)
    if not len(drawing):
        return out
    first = (np.cumsum(sizes) - sizes)[drawing]
    sizes = sizes[drawing]
    mean, var = _expected_words(int(sizes.max()))
    done = 0
    while done < len(sizes):
        rest = sizes[done:]
        top = int(rest.max())
        present = set(np.flatnonzero(np.bincount(rest)).tolist())
        # Past the expected words by eight standard deviations: one
        # window, bar a cap on the tables' size.
        span = min(
            int(mean[rest].sum() + 8 * math.sqrt(var[rest].sum())) + 64,
            max(_TABLE_ENTRIES // top, int(mean[top]) + 64),
        )
        while True:
            w = words.peek(span, span)
            after, jump = _jump_tables(w, top, present)
            starts = []
            t = 0
            # Every draw takes a word, so at most span segments fit.
            for s in rest[:span].tolist():
                t_next = jump[s].item(t)
                if t_next > span:
                    break
                starts.append(t)
                t = t_next
            if starts:
                break
            span *= 2
        words.consume(t)
        count = len(starts)
        chosen = rest[:count]
        by_size = np.argsort(-chosen, kind="stable")
        at = np.array(starts, dtype=np.int64)[by_size]
        base = first[done:done + count][by_size]
        at_least = np.cumsum(np.bincount(chosen, minlength=top + 1)[::-1])[::-1]
        for b in range(top, 1, -1):
            c = int(at_least[b])
            if not c:
                continue
            # at[:c] are the segments of size >= b, largest first.
            at[:c] = after[b][at[:c]]
            i = base[:c] + (b - 1)
            j = base[:c] + (w[at[:c] - 1] >> (32 - b.bit_length()))
            held = out[i]
            out[i] = out[j]
            out[j] = held
        done += count
    return out


def _jump_tables(
    w: np.ndarray, top: int, sizes: set[int]
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """``(after, jump)`` over the window ``w`` of ``L`` words.

    ``after[b][t]`` is one past the first word at or after ``t`` whose
    top bits bound ``b`` accepts, for ``b = 2 … top``; ``jump[s][t]`` is
    where a shuffle of ``range(s)`` started at word ``t`` stops, for
    each ``s`` in ``sizes``.  Both are ``L + 1`` where the window runs
    out, and ``L + 1`` maps to itself.
    """
    span = len(w)
    past = span + 1
    # accepted[t] = t + 1 if bound b accepts word t, else past: computed
    # as past - mask * (past - t - 1), since a masked copy mispredicts a
    # branch on every other word.
    to_past = np.arange(span, 0, -1, dtype=np.int64)
    accepted = np.empty(span, dtype=np.int64)
    mask = np.empty(span, dtype=bool)
    after: dict[int, np.ndarray] = {}
    jump: dict[int, np.ndarray] = {}
    composed = np.arange(span + 2, dtype=np.int64)
    bits = w
    for b in range(2, top + 1):
        if b & (b - 1) == 0:  # a new bit length
            bits = w >> (32 - b.bit_length())
        np.less(bits, b, out=mask)
        np.multiply(mask, to_past, out=accepted)
        np.subtract(past, accepted, out=accepted)
        table = np.empty(span + 2, dtype=np.int64)
        np.minimum.accumulate(accepted[::-1], out=table[span - 1::-1])
        table[span:] = past
        after[b] = table
        # A shuffle of range(b) draws under b first, then as one of
        # range(b - 1).
        composed = composed[table]
        if b in sizes:
            jump[b] = composed
    return after, jump


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
