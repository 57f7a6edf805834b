"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.assignment import identical, shared_core
from repro.sim import Network

# The randomized kernel differential gate (tests/test_differential.py)
# at a larger budget: `pytest --hypothesis-profile=differential`.
settings.register_profile("differential", max_examples=2000)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need one-off randomness."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def small_network() -> Network:
    """8 nodes, 4 channels each, overlap 2 — fast enough for any test."""
    generator = random.Random(42)
    assignment = shared_core(8, 4, 2, generator).shuffled_labels(generator)
    return Network.static(assignment)


@pytest.fixture
def single_channel_network() -> Network:
    """Everyone on one shared channel: the most contended possible world."""
    return Network.static(identical(6, 1))


@pytest.fixture
def medium_network() -> Network:
    """24 nodes, 8 channels, overlap 2 — for integration tests."""
    generator = random.Random(99)
    assignment = shared_core(24, 8, 2, generator).shuffled_labels(generator)
    return Network.static(assignment)
