"""Unit tests for repro.assignment.generators — every overlap pattern."""

from __future__ import annotations

import random

import pytest

from repro.assignment import (
    GENERATORS,
    dynamic_shared_core_schedule,
    hopping_discussion_instance,
    identical,
    pairwise_blocks,
    random_with_core,
    shared_core,
    two_set_worst_case,
)


class TestIdentical:
    def test_all_nodes_same_channels(self):
        a = identical(5, 3)
        assert len({a.channel_set(node) for node in range(5)}) == 1
        assert a.overlap == 3
        a.validate()

    def test_base_offset(self):
        a = identical(2, 3, base=10)
        assert a.channel_set(0) == {10, 11, 12}

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            identical(1, 3)


class TestSharedCore:
    def test_universe_size_formula(self):
        """The Theorem 16 construction: C = k + n(c - k)."""
        n, c, k = 6, 5, 2
        a = shared_core(n, c, k, random.Random(0))
        assert len(a.universe) == k + n * (c - k)

    def test_exact_minimum_overlap(self):
        a = shared_core(8, 6, 3, random.Random(1))
        assert a.min_pairwise_overlap() == 3
        a.validate()

    def test_private_channels_disjoint(self):
        a = shared_core(4, 4, 1, random.Random(2))
        shared = set.intersection(*(set(a.channel_set(u)) for u in range(4)))
        assert len(shared) == 1
        privates = [a.channel_set(u) - shared for u in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (privates[i] & privates[j])

    def test_k_equals_c(self):
        a = shared_core(4, 3, 3, random.Random(3))
        a.validate()
        assert len(a.universe) == 3

    @pytest.mark.parametrize("n, c, k", [(7, 5, 5), (7, 5, 2), (3, 4, 1)])
    def test_matches_per_node_slice_construction(self, n, c, k):
        """Same tuples and same RNG consumption as slicing the shuffled
        universe node by node."""
        rng = random.Random(11)
        universe = list(range(k + n * (c - k)))
        rng.shuffle(universe)
        shared, pool = universe[:k], universe[k:]
        expected = tuple(
            tuple(shared + pool[node * (c - k) : (node + 1) * (c - k)])
            for node in range(n)
        )
        generator_rng = random.Random(11)
        assert shared_core(n, c, k, generator_rng).channels == expected
        assert generator_rng.getstate() == rng.getstate()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            shared_core(4, 3, 0, random.Random(0))
        with pytest.raises(ValueError):
            shared_core(4, 3, 4, random.Random(0))


class TestRandomWithCore:
    def test_at_least_k_overlap(self):
        a = random_with_core(6, 8, 3, random.Random(0))
        assert a.min_pairwise_overlap() >= 3
        a.validate()

    def test_typically_more_than_k(self):
        a = random_with_core(6, 8, 2, random.Random(1), universe_size=12)
        assert a.min_pairwise_overlap() >= 2
        # With a tight universe, extra overlaps are essentially certain.
        overlaps = [
            a.pairwise_overlap(u, v)
            for u in range(6)
            for v in range(u + 1, 6)
        ]
        assert max(overlaps) > 2

    def test_universe_too_small_raises(self):
        with pytest.raises(ValueError):
            random_with_core(4, 8, 2, random.Random(0), universe_size=6)


class TestPairwiseBlocks:
    def test_every_pair_has_its_own_block(self):
        n, k = 5, 2
        c = k * (n - 1)
        a = pairwise_blocks(n, c, k, random.Random(0))
        a.validate()
        assert a.min_pairwise_overlap() == k
        # Any channel is held by at most 2 nodes (a pair block or private).
        from repro.assignment import channel_load

        assert max(channel_load(a).values()) <= 2

    def test_distinct_overlap_sets(self):
        n, k = 4, 1
        a = pairwise_blocks(n, k * (n - 1) + 2, k, random.Random(0))
        from repro.assignment import shared_channels

        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                block = shared_channels(a, u, v)
                assert block not in seen
                seen.add(block)

    def test_capacity_check(self):
        with pytest.raises(ValueError, match="c >= k"):
            pairwise_blocks(10, 4, 2, random.Random(0))


class TestTwoSetWorstCase:
    def test_structure(self):
        n, c, k = 6, 5, 2
        a = two_set_worst_case(n, c, k, random.Random(0))
        # Source vs others: exactly k.
        for v in range(1, n):
            assert a.pairwise_overlap(0, v) == k
        # Others are identical.
        assert len({a.channel_set(v) for v in range(1, n)}) == 1
        a.validate()

    def test_source_holds_prefix(self):
        a = two_set_worst_case(4, 5, 2, random.Random(1))
        assert a.channel_set(0) == set(range(5))


class TestHoppingInstance:
    def test_discussion_parameters(self):
        n = 4
        a = hopping_discussion_instance(n, random.Random(0))
        c = n * n
        assert a.channels_per_node == c
        assert a.overlap == c - 1
        assert a.min_pairwise_overlap() == c - 1
        assert len(a.universe) == (c - 1) + n


class TestDynamicSchedule:
    def test_shape_stable_assignment_changes(self):
        schedule = dynamic_shared_core_schedule(5, 4, 2, seed=0)
        a0, a1 = schedule.at(0), schedule.at(1)
        assert a0.num_nodes == a1.num_nodes == 5
        assert a0.channels != a1.channels

    def test_each_slot_satisfies_invariant(self):
        schedule = dynamic_shared_core_schedule(5, 4, 2, seed=1, validate_each=True)
        for slot in range(5):
            assert schedule.at(slot).min_pairwise_overlap() >= 2

    def test_deterministic_in_seed(self):
        s1 = dynamic_shared_core_schedule(4, 3, 1, seed=9)
        s2 = dynamic_shared_core_schedule(4, 3, 1, seed=9)
        assert s1.at(3).channels == s2.at(3).channels


class TestRegistry:
    def test_registry_contains_all(self):
        assert set(GENERATORS) == {
            "identical",
            "shared_core",
            "random_with_core",
            "pairwise_blocks",
            "two_set_worst_case",
        }
