"""Channel-assignment generators for every overlap pattern the paper uses.

The paper's analysis quantifies over *all* assignments where each node
holds ``c`` channels and every pair overlaps on at least ``k``.  Its
proofs repeatedly single out extreme patterns:

- everyone sharing the *same* ``k`` channels (hard to find an overlap,
  but each overlap channel is crowded — Claim 2 case (a); also the
  Theorem 16 lower-bound construction and the Omega(n/k) aggregation
  bound instance);
- every pair sharing a *distinct* ``k``-set (easy to find an overlap,
  but each channel is sparse — Claim 2 case (b));
- the two-set lower-bound instance of Lemma 12 (source holds ``A``, all
  other nodes hold the same ``B``, ``|A ∩ B| = k``).

Each generator returns a :class:`~repro.sim.channels.ChannelAssignment`
whose per-node tuples are in *generator order*; call
:meth:`~repro.sim.channels.ChannelAssignment.shuffled_labels` for the
local-label model or
:meth:`~repro.sim.channels.ChannelAssignment.with_global_labels` for the
global-label model.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.sim.channels import ChannelAssignment, DynamicSchedule
from repro.sim.rng import shuffled_range
from repro.types import Channel


def _check_params(n: int, c: int, k: int) -> None:
    if n < 2:
        raise ValueError(f"need at least two nodes, got n={n}")
    if not 1 <= k <= c:
        raise ValueError(f"need 1 <= k <= c, got k={k}, c={c}")


def identical(n: int, c: int, *, base: Channel = 0) -> ChannelAssignment:
    """All nodes hold the same ``c`` channels (so ``k = c``).

    This is the "all nodes share the same k channels" extreme, and the
    instance behind the simple Omega(n/k) aggregation lower bound when
    combined with ``k = c``.
    """
    _check_params(n, c, c)
    channels = tuple(range(base, base + c))
    return ChannelAssignment(tuple(channels for _ in range(n)), overlap=c)


def shared_core(n: int, c: int, k: int, rng: random.Random) -> ChannelAssignment:
    """``k`` globally shared channels plus ``c - k`` private channels per node.

    The universe has ``C = k + n(c - k)`` channels; which ``k`` are the
    shared ones, and how the private remainder is partitioned, is chosen
    uniformly at random.  This is exactly the network construction in
    the proof of Theorem 16 (the global-label lower bound), and also the
    "everyone shares the same k channels" hard case from Claim 2.

    The universe is shuffled by :func:`repro.sim.rng.shuffled_range`,
    which at scale decodes ``rng.shuffle``'s draws with numpy: the
    output and ``rng``'s state afterwards are those of ``rng.shuffle``.
    """
    _check_params(n, c, k)
    universe = shuffled_range(rng, k + n * (c - k))
    shared = tuple(universe[:k])
    if c == k:
        return ChannelAssignment((shared,) * n, overlap=k)
    # Consecutive (c - k)-chunks of the private pool, one per node: the
    # same tuples the per-node slice loop built, with no per-node list.
    chunks = zip(*[iter(universe[k:])] * (c - k))
    return ChannelAssignment(
        tuple(shared + chunk for chunk in chunks), overlap=k
    )


def random_with_core(
    n: int,
    c: int,
    k: int,
    rng: random.Random,
    *,
    universe_size: int | None = None,
) -> ChannelAssignment:
    """A ``k``-channel shared core plus *random* (possibly overlapping) fill.

    Unlike :func:`shared_core`, the non-core channels are drawn at
    random from a common universe, so pairs typically overlap on *more*
    than ``k`` channels.  This models the realistic middle ground
    between the two extremes; ``k`` remains a valid guarantee because of
    the core.

    *universe_size* defaults to ``4c`` (a moderately crowded band).
    """
    _check_params(n, c, k)
    size = universe_size if universe_size is not None else max(4 * c, c + 1)
    if size < c:
        raise ValueError(f"universe_size={size} smaller than c={c}")
    universe = list(range(size))
    core = rng.sample(universe, k)
    core_set = set(core)
    rest = [channel for channel in universe if channel not in core_set]
    channels = []
    for _ in range(n):
        fill = rng.sample(rest, c - k)
        channels.append(tuple(core + fill))
    return ChannelAssignment(tuple(channels), overlap=k)


def pairwise_blocks(n: int, c: int, k: int, rng: random.Random) -> ChannelAssignment:
    """Every *pair* of nodes shares its own dedicated block of ``k`` channels.

    This is the "every pair of nodes share a distinct set of channels"
    extreme from the COGCAST analysis (Claim 2 case (b)): overlaps are
    easy to find but every channel is sparsely populated.  Each node
    participates in ``n - 1`` pair blocks, so it needs
    ``c >= k * (n - 1)``; any remaining capacity is filled with private
    channels.
    """
    _check_params(n, c, k)
    if c < k * (n - 1):
        raise ValueError(
            f"pairwise_blocks needs c >= k*(n-1); got c={c}, k={k}, n={n}"
        )
    next_channel = 0

    def fresh(count: int) -> list[Channel]:
        nonlocal next_channel
        block = list(range(next_channel, next_channel + count))
        next_channel += count
        return block

    per_node: list[list[Channel]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            block = fresh(k)
            per_node[u].extend(block)
            per_node[v].extend(block)
    for node in range(n):
        deficit = c - len(per_node[node])
        per_node[node].extend(fresh(deficit))
    channels = tuple(tuple(chans) for chans in per_node)
    return ChannelAssignment(channels, overlap=k)


def two_set_worst_case(n: int, c: int, k: int, rng: random.Random) -> ChannelAssignment:
    """The Lemma 12 lower-bound instance.

    The source (node 0) holds channel set ``A``; every other node holds
    the *same* set ``B``; ``|A ∩ B| = k``.  Which ``k`` of the source's
    channels are shared is chosen uniformly at random — this is the
    random matching the hitting-game referee hides.

    Note: pairwise overlap among the ``n - 1`` non-source nodes is ``c``
    (they are identical), and source-vs-other overlap is exactly ``k``,
    so the assignment satisfies the model with parameter ``k``.
    """
    _check_params(n, c, k)
    # A = [0, c); B = k random channels of A plus fresh channels.
    a_set = list(range(c))
    shared = rng.sample(a_set, k)
    fresh = list(range(c, c + (c - k)))
    b_set = shared + fresh
    rng.shuffle(b_set)
    channels = [tuple(a_set)] + [tuple(b_set) for _ in range(n - 1)]
    return ChannelAssignment(tuple(channels), overlap=k)


def hopping_discussion_instance(n: int, rng: random.Random) -> ChannelAssignment:
    """The Section 6 discussion instance where hopping-together wins.

    ``c = n^2`` and ``k = c - 1``: the universe has ``C = k + n(c - k)``
    channels (here ``C = c - 1 + n``), all pairs overlap on the same
    ``k`` channels, and each node has one private channel.  On this
    instance a global-label sequential scan solves broadcast in ``O(1)``
    expected slots while COGCAST needs ``Theta(n lg n)``.
    """
    c = n * n
    k = c - 1
    return shared_core(n, c, k, rng)


def dynamic_shared_core_schedule(
    n: int,
    c: int,
    k: int,
    seed: int,
    *,
    validate_each: bool = False,
) -> DynamicSchedule:
    """A dynamic schedule that re-randomizes a shared-core assignment per slot.

    Every slot gets a fresh :func:`shared_core` draw (new shared set,
    new private partition, new local-label order), so no channel is
    stable across slots — the harshest dynamic environment satisfying
    the invariant.  COGCAST's guarantee is unaffected (paper Section 4
    discussion); schedule-based algorithms break.
    """

    from repro.sim.rng import derive_rng

    def generate(slot: int) -> ChannelAssignment:
        rng = derive_rng(seed, "dynamic-slot", slot)
        return shared_core(n, c, k, rng).shuffled_labels(rng)

    return DynamicSchedule(generate, validate_each=validate_each)


GENERATORS: dict[str, Callable[..., ChannelAssignment]] = {
    "identical": identical,
    "shared_core": shared_core,
    "random_with_core": random_with_core,
    "pairwise_blocks": pairwise_blocks,
    "two_set_worst_case": two_set_worst_case,
}
"""Registry of static generators, keyed by the names experiments use."""
