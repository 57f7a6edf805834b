"""Differential tests: the array shuffles against ``random.Random.shuffle``.

:func:`repro.sim.rng.shuffled_range` and :func:`repro.sim.rng.shuffled_rows`
decode CPython's Mersenne Twister draws with numpy once a shuffle is
large enough.  Every test here compares them with the plain
``rng.shuffle`` loop they replace: the same output and the same
``rng.getstate()`` afterwards, for sizes on both sides of
:data:`repro.sim.rng.ARRAY_SHUFFLE_MIN`, row widths at bit-length
edges, generator positions at the end of a Mersenne Twister block, and
a cached ``gauss`` value.  A ``random.Random`` subclass and a missing
numpy must take the plain path; without numpy installed every test
still runs, against that path.
"""

from __future__ import annotations

import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assignment import shared_core
from repro.sim import rng as rng_module
from repro.sim.channels import ChannelAssignment
from repro.sim.backends.base import numpy_available
from repro.sim.rng import ARRAY_SHUFFLE_MIN, shuffled_range, shuffled_rows

#: Row widths at bit-length edges (the row decoder's shift classes).
EDGE_WIDTHS = (2, 3, 4, 8, 9, 16, 17, 33)


def reference_range(rng: random.Random, size: int) -> list[int]:
    items = list(range(size))
    rng.shuffle(items)
    return items


def reference_rows(rng: random.Random, rows) -> tuple[tuple, ...]:
    shuffled = []
    for row in rows:
        order = list(row)
        rng.shuffle(order)
        shuffled.append(tuple(order))
    return tuple(shuffled)


def twin_streams(seed: int, consumed: int, gauss: bool):
    """Two equal generators, advanced by *consumed* words (and a gauss)."""
    streams = []
    for _ in range(2):
        stream = random.Random(seed)
        for _ in range(consumed):
            stream.getrandbits(32)
        if gauss:
            stream.gauss(0.0, 1.0)
        streams.append(stream)
    return streams


def array_everywhere():
    """Route every size through the array path (a context manager)."""
    return mock.patch.object(rng_module, "ARRAY_SHUFFLE_MIN", 0)


prior = st.tuples(
    st.integers(0, 2**32 - 1),
    st.one_of(st.sampled_from([0, 1, 623, 624, 625, 1247, 1248]), st.integers(0, 2000)),
    st.booleans(),
)


class TestShuffledRange:
    @settings(max_examples=12, deadline=None)
    @given(
        size=st.one_of(
            st.integers(0, 64),
            st.sampled_from(
                [ARRAY_SHUFFLE_MIN - 1, ARRAY_SHUFFLE_MIN, ARRAY_SHUFFLE_MIN + 1]
            ),
            st.integers(ARRAY_SHUFFLE_MIN, 3 * ARRAY_SHUFFLE_MIN),
        ),
        state=prior,
    )
    def test_matches_shuffle_across_the_crossover(self, size, state):
        plain, array = twin_streams(*state)
        assert shuffled_range(array, size) == reference_range(plain, size)
        assert array.getstate() == plain.getstate()

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.one_of(
            st.integers(2, 300),
            st.sampled_from([8191, 8192, 8193, 16383, 16384, 16385]),
        ),
        state=prior,
    )
    def test_array_path_matches_at_every_size(self, size, state):
        plain, array = twin_streams(*state)
        with array_everywhere():
            assert shuffled_range(array, size) == reference_range(plain, size)
        assert array.getstate() == plain.getstate()

    @pytest.mark.parametrize("consumed", [623, 624])
    def test_generator_position_at_block_end(self, consumed):
        plain, array = twin_streams(11, consumed, False)
        assert array.getstate()[1][-1] == consumed
        size = 2 * ARRAY_SHUFFLE_MIN + 5
        assert shuffled_range(array, size) == reference_range(plain, size)
        assert array.getstate() == plain.getstate()


class TestShuffledRows:
    @settings(max_examples=40, deadline=None)
    @given(
        width=st.sampled_from(EDGE_WIDTHS),
        count=st.integers(1, 120),
        state=prior,
    )
    def test_array_path_matches_at_edge_widths(self, width, count, state):
        rows = tuple(
            tuple(range(width * node, width * node + width)) for node in range(count)
        )
        plain, array = twin_streams(*state)
        with array_everywhere():
            assert shuffled_rows(array, rows) == reference_rows(plain, rows)
        assert array.getstate() == plain.getstate()

    @settings(max_examples=8, deadline=None)
    @given(width=st.sampled_from(EDGE_WIDTHS), state=prior, extra=st.integers(-2, 2))
    def test_matches_shuffle_across_the_crossover(self, width, state, extra):
        count = max(1, ARRAY_SHUFFLE_MIN // width + extra)
        rows = tuple(
            tuple(range(width * node, width * node + width)) for node in range(count)
        )
        plain, array = twin_streams(*state)
        assert shuffled_rows(array, rows) == reference_rows(plain, rows)
        assert array.getstate() == plain.getstate()

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 9).flatmap(
            lambda width: st.lists(
                st.lists(
                    st.integers(-(2**40), 2**40),
                    min_size=width,
                    max_size=width,
                    unique=True,
                ).map(tuple),
                min_size=1,
                max_size=40,
            )
        ),
        state=prior,
    )
    def test_non_contiguous_ids_keep_their_objects(self, rows, state):
        rows = tuple(rows)
        plain, array = twin_streams(*state)
        with array_everywhere():
            shuffled = shuffled_rows(array, rows)
        assert shuffled == reference_rows(plain, rows)
        assert array.getstate() == plain.getstate()
        for before, after in zip(rows, shuffled):
            by_id = {id(item) for item in before}
            assert all(id(item) in by_id for item in after)

    @settings(max_examples=15, deadline=None)
    @given(
        width=st.sampled_from(EDGE_WIDTHS),
        count=st.integers(1, 60),
        block=st.integers(1, 9),
        state=prior,
    )
    def test_gather_blocks_of_any_size(self, width, count, block, state):
        rows = tuple(
            tuple(range(width * node, width * node + width)) for node in range(count)
        )
        plain, array = twin_streams(*state)
        with array_everywhere(), mock.patch.object(rng_module, "_GATHER_ROWS", block):
            assert shuffled_rows(array, rows) == reference_rows(plain, rows)
        assert array.getstate() == plain.getstate()

    def test_width_one_and_ragged_rows_take_the_plain_path(self):
        for rows in (((5,), (7,), (9,)), ((1, 2), (3, 4, 5), (6, 7))):
            plain, array = twin_streams(3, 0, False)
            with array_everywhere():
                assert shuffled_rows(array, rows) == reference_rows(plain, rows)
            assert array.getstate() == plain.getstate()


class TestAssignments:
    @pytest.mark.parametrize("n, c, k", [(3000, 8, 8), (5000, 9, 1), (2500, 17, 4)])
    def test_shared_core_and_labels_match_the_plain_path(self, monkeypatch, n, c, k):
        array = random.Random(n)
        fast = shared_core(n, c, k, array).shuffled_labels(array)
        monkeypatch.setattr(rng_module, "ARRAY_SHUFFLE_MIN", 10**12)
        plain = random.Random(n)
        slow = shared_core(n, c, k, plain).shuffled_labels(plain)
        assert fast == slow
        assert array.getstate() == plain.getstate()

    def test_golden_at_scale(self, monkeypatch):
        """``shared_core(10^5, 16, 4)`` plus ``shuffled_labels``: the
        array path against the plain path, output and stream state."""
        array = random.Random(20260806)
        generated = shared_core(10**5, 16, 4, array)
        fast = generated.shuffled_labels(array)
        monkeypatch.setattr(rng_module, "ARRAY_SHUFFLE_MIN", 10**12)
        plain = random.Random(20260806)
        assert shared_core(10**5, 16, 4, plain) == generated
        assert plain.getstate() != array.getstate()
        assert generated.shuffled_labels(plain) == fast
        assert array.getstate() == plain.getstate()


class TestPlainPathFallbacks:
    def _forbid_array_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("array path taken")

        monkeypatch.setattr(rng_module, "_MTWords", refuse)

    def test_subclass_takes_the_plain_path(self, monkeypatch):
        class Counting(random.Random):
            pass

        self._forbid_array_path(monkeypatch)
        size = 2 * ARRAY_SHUFFLE_MIN
        sub, plain = Counting(5), random.Random(5)
        assert shuffled_range(sub, size) == reference_range(plain, size)
        rows = ChannelAssignment(
            tuple((node, node + size) for node in range(size)), overlap=1
        )
        assert rows.shuffled_labels(sub).channels == reference_rows(plain, rows.channels)
        assert sub.getstate() == plain.getstate()

    def test_blocked_numpy_takes_the_plain_path(self, monkeypatch):
        self._forbid_array_path(monkeypatch)
        monkeypatch.setitem(sys.modules, "numpy", None)
        size = 2 * ARRAY_SHUFFLE_MIN
        array, plain = random.Random(8), random.Random(8)
        assert shuffled_range(array, size) == reference_range(plain, size)
        rows = tuple((node, -node - 1, 3 * node + 7) for node in range(size))
        assert shuffled_rows(array, rows) == reference_rows(plain, rows)
        assert array.getstate() == plain.getstate()

    @pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")
    def test_sizes_past_the_int32_work_arrays_take_the_plain_path(self):
        rng = random.Random(0)
        assert rng_module._array_numpy(rng, (1 << 30) - 1) is not None
        assert rng_module._array_numpy(rng, 1 << 30) is None

    @pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")
    def test_array_path_is_taken_at_the_crossover(self, monkeypatch):
        taken = []
        words = rng_module._MTWords

        def record(*args):
            taken.append(True)
            return words(*args)

        monkeypatch.setattr(rng_module, "_MTWords", record)
        shuffled_range(random.Random(0), ARRAY_SHUFFLE_MIN - 1)
        assert taken == []
        shuffled_range(random.Random(0), ARRAY_SHUFFLE_MIN)
        assert taken == [True]
