"""Planted-partition benchmark graphs with known block structure."""

from __future__ import annotations

import numbers
import random

import numpy as np

from .errors import ConfigInvalidError, _integer
from .graph import Graph, Partition


def planted_partition(
    block_count: int,
    block_size: int,
    p_in: float,
    p_out: float,
    seed: int,
) -> tuple[Graph, Partition]:
    """Sample a graph of block_count blocks of block_size nodes each, with
    independent edge probability p_in inside a block and p_out across blocks.

    block_count, block_size and seed are integers (read through
    operator.index), seed at least 0, and p_in and p_out real numbers in
    [0, 1]; a bad value raises ConfigInvalidError. Returns the graph and
    the planted block partition as ground truth. The sample may be
    disconnected or contain isolated nodes; callers that need
    connectivity should draw another seed.
    """
    block_count = _integer("block_count", block_count)
    block_size = _integer("block_size", block_size)
    seed = _integer("seed", seed)
    if block_count < 1 or block_size < 1:
        raise ConfigInvalidError("block_count and block_size must be >= 1")
    if seed < 0:  # random.Random seeds from abs(seed): -7 would draw seed 7's graph
        raise ConfigInvalidError(f"seed must be >= 0, got {seed}")
    for name, p in (("p_in", p_in), ("p_out", p_out)):
        if not isinstance(p, numbers.Real):
            raise ConfigInvalidError(f"{name} must be a real number, got {p!r}")
        if not 0.0 <= p <= 1.0:
            raise ConfigInvalidError(f"{name} must be in [0, 1], got {p}")
    rng = random.Random(seed)
    n = block_count * block_size
    block = [i // block_size for i in range(n)]
    names = [str(i) for i in range(n)]
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if block[u] == block[v] else p_out
            if rng.random() < p:
                pairs.append((u, v))
    # each pair is drawn once, u < v and both in range: simple by construction
    lo, hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    g = Graph._of_simple_pairs(names, dict(zip(names, range(n))), lo, hi)
    return g, Partition(community_of=block, community_count=block_count)
