"""Deterministic random-stream management.

Every stochastic component in the library (each node's protocol, the
collision model, assignment generators, adversaries, game referees)
draws from its own :class:`random.Random` stream, derived from a single
root seed.  This makes every experiment row exactly reproducible while
keeping the streams statistically independent of one another: reordering
the slot loop or adding a new consumer never perturbs existing streams.

The derivation is a stable hash of ``(root_seed, *scope)`` where *scope*
is any tuple of strings/ints naming the consumer, e.g.
``("node", 17)`` or ``("collision",)``.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from itertools import chain
from typing import Iterable


def derive_seed(root_seed: int, *scope: object) -> int:
    """Derive a stable 64-bit seed for a named consumer.

    Uses BLAKE2b over the textual representation of the root seed and
    scope path.  Python's ``hash()`` is salted per process, so it must
    not be used here.

    >>> derive_seed(0, "node", 1) == derive_seed(0, "node", 1)
    True
    >>> derive_seed(0, "node", 1) != derive_seed(0, "node", 2)
    True
    """
    text = repr((root_seed,) + scope).encode("utf-8")
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(root_seed: int, *scope: object) -> random.Random:
    """Return a fresh :class:`random.Random` seeded for *scope*."""
    return random.Random(derive_seed(root_seed, *scope))


def spawn_rngs(root_seed: int, prefix: str, count: int) -> list[random.Random]:
    """Return *count* independent RNGs named ``(prefix, 0..count-1)``.

    Convenience for giving each of ``n`` nodes its own stream.
    """
    return [derive_rng(root_seed, prefix, index) for index in range(count)]


def sample_distinct(rng: random.Random, population: Iterable[int], count: int) -> list[int]:
    """Sample *count* distinct items from *population* using *rng*.

    Materializes the population once; intended for moderate sizes (the
    channel universes used in experiments).
    """
    items = list(population)
    return rng.sample(items, count)


# -- array shuffles ------------------------------------------------------
#
# ``random.Random.shuffle`` is Fisher-Yates: for i = len-1 .. 1 it swaps
# position i with j = _randbelow(i + 1).  For a bound b < 2^32,
# ``_randbelow`` reads one 32-bit Mersenne Twister word w per try and
# accepts w >> (32 - b.bit_length()) once that is below b.
# ``numpy.random.MT19937`` is the same generator: loaded with the state
# of a ``random.Random`` it yields the same words.  The helpers below
# read those words ahead, decode every j with array kernels, apply the
# swaps, and then advance the ``random.Random`` past exactly the words a
# ``shuffle`` call would have used: same output, same ``getstate()``.

#: Shuffles of at least this many elements (in total, over all rows)
#: run on the array path.  Below it the fixed cost of loading the
#: generator state and of the numpy calls outweighs the saving; the
#: crossover measurement is in ``docs/performance.md`` ("Assignment
#: generation is Tier A").
ARRAY_SHUFFLE_MIN = 1 << 16

#: Words read ahead from the generator per batch.
_BATCH_WORDS = 1 << 18
#: Bounds below this decode one try at a time.
_SCALAR_BOUND = 1 << 13
#: The longest block of words one fixpoint decodes.  Blocks are also at
#: most an eighth of the bound, so the acceptances inside a block move
#: the bound little and the fixpoint settles in a few passes.
_MAX_BLOCK = 1 << 16
#: The most words one pass of the row automaton decodes.
_SEGMENT_WORDS = 1 << 20
#: Table lookups per chunk of the row automaton.
_CHUNK_STEPS = 384
#: Largest (states x symbols) row-automaton table.
_MAX_TABLE = 1 << 20
#: Rows per block when gathering the shuffled rows' elements.
_GATHER_ROWS = 1 << 12


def _array_numpy(rng: random.Random, size: int):
    """numpy if the array path may shuffle *size* elements for *rng*.

    Only exact :class:`random.Random` instances qualify: a subclass may
    override the methods ``shuffle`` calls.  Without numpy, every
    shuffle takes ``rng.shuffle``; so do sizes of 2^30 and more, whose
    draws plus a block's acceptance count could overflow the int32
    work arrays.
    """
    if type(rng) is not random.Random or not ARRAY_SHUFFLE_MIN <= size < 1 << 30:
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class _MTWords:
    """The words *rng* would produce next, read ahead without advancing it."""

    def __init__(self, np, rng: random.Random) -> None:
        self.np = np
        self.rng = rng
        self._version, internal, self._gauss = rng.getstate()
        self._start = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(internal[:-1], dtype=np.uint32),
                "pos": internal[-1],
            },
        }
        self._ahead = self._generator()
        self._words = np.empty(0, dtype=np.uint32)
        self._base = 0

    def _generator(self):
        generator = self.np.random.MT19937(0)
        generator.state = self._start
        return generator

    def take(self, start: int, count: int):
        """Words ``start .. start+count-1`` of the stream, as uint32.

        Reads are forward only: words before *start* are dropped.
        """
        np = self.np
        end = self._base + self._words.size
        if start + count > end:
            batches = [self._words[start - self._base :]]
            while end < start + count:
                batches.append(self._ahead.random_raw(_BATCH_WORDS).astype(np.uint32))
                end += _BATCH_WORDS
            self._words = np.concatenate(batches)
            self._base = start
        return self._words[start - self._base : start - self._base + count]

    def iterate(self, start: int):
        """The stream from word *start* on, as Python ints."""
        while True:
            yield from self.take(start, 4096).tolist()
            start += 4096

    def commit(self, used: int) -> None:
        """Advance ``rng`` past the first *used* words.

        Effects: rng.
        """
        generator = self._generator()
        while used > 0:
            generator.random_raw(min(used, _BATCH_WORDS))
            used -= _BATCH_WORDS
        state = generator.state["state"]
        internal = tuple(state["key"].tolist()) + (int(state["pos"]),)
        self.rng.setstate((self._version, internal, self._gauss))


def _range_targets(np, words: _MTWords, size: int):
    """Each step's swap target when shuffling *size* elements, and the words used.

    Step s has bound ``b = size - s``.  Inside one bit-length class
    (same shift) a word accepted after t earlier acceptances in the
    block is one with ``r + t < b`` while steps remain in the class.
    Iterating ``t = exclusive cumsum(accepted)`` from ``t = 0`` fixes at
    least one more leading word per pass, so the fixpoint exists, is
    unique, and is the sequential answer; with blocks much shorter than
    the bound it takes a handful of passes.
    """
    targets = np.empty(size - 1, dtype=np.int32)
    bound, pos, step = size, 0, 0
    while bound >= _SCALAR_BOUND:
        bits = bound.bit_length()
        left = bound - (1 << (bits - 1)) + 1
        block = words.take(pos, min(_MAX_BLOCK, bound >> 3))
        draws = (block >> (32 - bits)).astype(np.int32)
        accepted = draws < bound
        while True:
            before = np.cumsum(accepted, dtype=np.int32)
            before -= accepted
            again = (draws + before < bound) & (before < left)
            if np.array_equal(again, accepted):
                break
            accepted = again
        hits = np.flatnonzero(accepted)
        targets[step : step + hits.size] = draws[hits]
        pos += int(hits[-1]) + 1 if hits.size == left else block.size
        step += hits.size
        bound -= hits.size
    stream = words.iterate(pos)
    tail = []
    for bound in range(bound, 1, -1):
        shift = 32 - bound.bit_length()
        draw = next(stream) >> shift
        pos += 1
        while draw >= bound:
            draw = next(stream) >> shift
            pos += 1
        tail.append(draw)
    targets[step:] = tail
    return targets, pos


def _apply_range_swaps(np, targets, size: int):
    """The permutation Fisher-Yates leaves on ``range(size)`` given *targets*.

    Step s swaps position ``i_s = size-1-s`` with ``targets[s] <= i_s``,
    and no later step touches ``i_s``.  So the final value at ``i_s`` is
    the value at ``targets[s]`` just before step s.  A position only
    changes when a step targets it, taking the value that step's
    ``i`` held just before it; the value at ``i_s`` itself comes from
    the last earlier step targeting ``i_s``, and so on back to a
    position nothing targeted, which still holds its own index.  One
    sort groups the steps by target; pointer jumping follows the chains.
    """
    steps = size - 1
    key = targets.astype(np.int64)
    key *= steps
    key += np.arange(steps, dtype=np.int64)
    key.sort()
    target = (key // steps).astype(np.int32)
    step = (key % steps).astype(np.int32)
    del key
    same = target[1:] == target[:-1]
    # prev[s]: the previous step with the same target as step s.
    prev = np.full(steps, -1, dtype=np.int32)
    prev[step[1:][same]] = step[:-1][same]
    # last[q]: the last step targeting position q.
    last_step = np.ones(steps, dtype=bool)
    last_step[:-1] = ~same
    del same
    last = np.full(size, -1, dtype=np.int32)
    last[target[last_step]] = step[last_step]
    del target, step, last_step
    index = np.arange(steps, dtype=np.int32)
    # feed[s]: the last step before s targeting i_s (s itself targets
    # i_s only as a self-swap, and then its predecessor is prev[s]).
    feed = last[:0:-1].copy()
    self_swap = feed == index
    feed[self_swap] = prev[self_swap]
    del self_swap
    root = np.where(feed < 0, index, feed)
    del feed, index
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    del jumped
    # held[s]: the value at i_s just before step s.
    held = steps - root
    del root
    perm = np.empty(size, dtype=np.int32)
    perm[:0:-1] = np.where(prev < 0, targets, held[prev])
    perm[0] = 0 if last[0] < 0 else held[last[0]]
    return perm


def shuffled_range(rng: random.Random, size: int) -> list[int]:
    """``list(range(size))`` after ``rng.shuffle``, leaving ``rng`` as it would.

    From :data:`ARRAY_SHUFFLE_MIN` elements on, an exact
    :class:`random.Random` is decoded with numpy; the list, its int
    values and ``rng.getstate()`` afterwards are those of the plain
    shuffle, which every other case still runs.

    Effects: rng.
    """
    np = _array_numpy(rng, size)
    if np is None:
        items = list(range(size))
        rng.shuffle(items)
        return items
    words = _MTWords(np, rng)
    targets, used = _range_targets(np, words, size)
    perm = _apply_range_swaps(np, targets, size)
    del targets
    words.commit(used)
    return perm.tolist()


def _row_shifts(np, width: int):
    """Each row step's bound and its shift below ``width.bit_length()``."""
    bounds = np.arange(width, 1, -1)
    lengths = np.array([int(bound).bit_length() for bound in bounds.tolist()])
    return bounds, width.bit_length() - lengths


@lru_cache(maxsize=4)
def _row_tables(np, width: int):
    """Transition tables of the row automaton, ``group`` words per lookup.

    The state is the step within a row (bound ``width - state``); the
    input is a word's top ``width.bit_length()`` bits.  A word accepted
    in the last state moves to state 0 of the next row.  Returns
    ``(group, next_state, accepted_bits)``, both indexed by
    ``state << (group * bits) | code``, where *code* packs *group*
    symbols, first word highest.  ``next_state`` holds the next state
    already shifted the same way, so a lookup is one add; bit w of
    ``accepted_bits`` is whether word w was accepted.  Cached per
    width: the tables depend on nothing else.
    """
    states = width - 1
    bits = width.bit_length()
    bounds, shifts = _row_shifts(np, width)
    symbols = np.arange(1 << bits)
    accept = (symbols[None, :] >> shifts[:, None]) < bounds[:, None]
    own = np.arange(states)[:, None]
    step = np.where(accept, (own + 1) % states, own)
    group = 3
    while group > 1 and states << (group * bits) > _MAX_TABLE:
        group -= 1
    codes = np.arange(1 << (group * bits))
    state = np.broadcast_to(own, (states, codes.size))
    accepted_bits = np.zeros((states, codes.size), dtype=np.uint8)
    for word in range(group):
        symbol = (codes >> (bits * (group - 1 - word))) & ((1 << bits) - 1)
        accepted_bits |= accept[state, symbol].astype(np.uint8) << word
        state = step[state, symbol]
    next_state = (state << (group * bits)).astype(np.int32).ravel()
    accepted_bits = accepted_bits.ravel()
    next_state.flags.writeable = accepted_bits.flags.writeable = False
    return group, next_state, accepted_bits


def _row_targets(np, words: _MTWords, rows: int, width: int):
    """``targets[u, q]``: the swap target of step q of row u, and the words used.

    Decoding is a finite automaton over the word stream (see
    :func:`_row_tables`).  The stream is cut into chunks; one pass runs
    every chunk from every start state, the chunk end states are
    chained from state 0, and a second pass from the right start states
    marks the accepted words.  The t-th accepted word is step
    ``t mod (width - 1)``.
    """
    states = width - 1
    bits = width.bit_length()
    group, next_state, accepted_bits = _row_tables(np, width)
    span = 1 << (group * bits)
    bounds, shifts = _row_shifts(np, width)
    per_row = float(np.sum((1 << (bits - shifts)) / bounds))
    chunk_words = group * _CHUNK_STEPS
    need = rows * states
    found = []
    pos, state, count = 0, 0, 0
    while count < need:
        estimate = min((need - count) / states * per_row * 1.01 + 4096, _SEGMENT_WORDS)
        chunks = -(-int(estimate) // chunk_words)
        block = words.take(pos, chunks * chunk_words)
        # code[p, m]: the symbols of lookup p of chunk m, packed.
        symbols = (block >> (32 - bits)).astype(np.int32)
        grouped = symbols.reshape(chunks, _CHUNK_STEPS, group).transpose(1, 0, 2)
        code = np.ascontiguousarray(grouped[:, :, 0])
        for word in range(1, group):
            code <<= bits
            code |= grouped[:, :, word]
        del symbols, grouped
        # end[q, m]: where chunk m ends when it starts in state q.
        end = np.arange(0, states * span, span, dtype=np.int32)
        end = np.repeat(end[:, None], chunks, axis=1)
        lookup = np.empty_like(end)
        for column in code:
            np.add(end, column, out=lookup)
            np.take(next_state, lookup, out=end)
        starts = [state]
        for row in (end // span).T.tolist():
            starts.append(row[starts[-1]])
        state = starts.pop()
        current = np.array(starts, dtype=np.int32) * span
        del end, starts
        lookup = np.empty_like(current)
        marks = np.empty((_CHUNK_STEPS, chunks), dtype=np.uint8)
        for column, mark in zip(code, marks):
            np.add(current, column, out=lookup)
            np.take(accepted_bits, lookup, out=mark)
            np.take(next_state, lookup, out=current)
        del code, current, lookup
        flags = (marks.T[:, :, None] & (1 << np.arange(group, dtype=np.uint8))) != 0
        hits = np.flatnonzero(flags)[: need - count]
        del flags, marks
        phase_shift = np.roll(32 - bits + shifts, -(count % states)).astype(np.uint8)
        phase_shift = np.resize(phase_shift, hits.size)
        found.append(block[hits] >> phase_shift)
        count += hits.size
        pos += int(hits[-1]) + 1 if count == need else block.size
    targets = np.concatenate(found).astype(np.int32).reshape(rows, states)
    return targets, pos


def shuffled_rows(rng: random.Random, rows) -> tuple[tuple, ...]:
    """Each of *rows* shuffled in turn by ``rng.shuffle``, as tuples.

    Equal to shuffling ``list(row)`` for every row in order.  From
    :data:`ARRAY_SHUFFLE_MIN` elements in total, rows of one width (2
    to 1023, the automaton's table bound) and an exact
    :class:`random.Random` are decoded with numpy: the tuples
    hold the rows' own element objects, and ``rng.getstate()`` ends
    where the plain shuffles leave it.

    Effects: rng.
    """
    width = len(rows[0]) if rows else 0
    np = _array_numpy(rng, len(rows) * width)
    if (
        np is None
        or not 2 <= width
        or (width - 1) << width.bit_length() > _MAX_TABLE
        or any(len(row) != width for row in rows)
    ):
        shuffled = []
        for row in rows:
            order = list(row)
            rng.shuffle(order)
            shuffled.append(tuple(order))
        return tuple(shuffled)
    # Temporaries are dropped as soon as they are used, and the
    # elements are gathered a block of rows at a time, so the peak
    # stays near the output's own size.
    count = len(rows)
    words = _MTWords(np, rng)
    targets, used = _row_targets(np, words, count, width)
    perm = np.tile(np.arange(width, dtype=np.int32), (count, 1))
    index = np.arange(count)
    for state in range(width - 1):
        column = width - 1 - state
        target = targets[:, state]
        moved = perm[index, target]
        perm[index, target] = perm[:, column]
        perm[:, column] = moved
    del targets, moved, target
    words.commit(used)
    del words
    offsets = (index[:_GATHER_ROWS] * width)[:, None]
    shuffled = []
    for first in range(0, count, _GATHER_ROWS):
        block = rows[first : first + _GATHER_ROWS]
        flat = np.fromiter(
            chain.from_iterable(block), dtype=object, count=len(block) * width
        )
        order = perm[first : first + len(block)] + offsets[: len(block)]
        items = flat[order.ravel()].tolist()
        shuffled.extend(zip(*[iter(items)] * width))
    return tuple(shuffled)
