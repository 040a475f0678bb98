"""The lockstep CSR walk kernel pinned to run_walk, agent by agent.

Weight snapshots reach values (up to 2**40) that explore() never produces,
so the integer search for floor(r) + 1 in the slot-mass prefix is checked
where float rounding of r would matter first.
"""

from itertools import combinations

import numpy as np
import pytest

from commwalker import run_walk
from commwalker.exploration import (
    _csr_rows,
    _csr_walks,
    _lane_keys,
    _walk_uniforms,
    _WalkStream,
)

from _helpers import edge_weights, pairs_graph

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def walk_cases(draw):
    n = draw(st.integers(2, 12))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # spanning tree
    others = [p for p in combinations(range(n), 2) if p not in pairs]
    keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    pairs.update(p for p, kept in zip(others, keep) if kept)
    g = pairs_graph(n, draw(st.permutations(sorted(pairs))))  # any adjacency order
    top = draw(st.sampled_from([3, 1000, 2**20, 2**40]))
    w = edge_weights(g, {edge: draw(st.integers(0, top)) for edge in g.edges})
    memory_size = draw(st.integers(2, 9))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))  # may repeat
    seed = draw(st.integers(0, 2**31))
    generation = draw(st.integers(0, 1000))
    return g, w, memory_size, starts, seed, generation


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(walk_cases())
def test_csr_walks_match_run_walk(case):
    g, w, memory_size, starts, seed, generation = case
    agents = len(starts)
    uniforms = _walk_uniforms(seed, generation, _lane_keys(agents, memory_size - 1), agents)
    memory, first = _csr_walks(
        _csr_rows(g), w, np.array(starts, dtype=np.int64), memory_size, uniforms
    )
    for k, start in enumerate(starts):
        expected = run_walk(g, w, start, memory_size, _WalkStream(seed, generation, k))
        assert memory[k].tolist() == expected
        assert first[k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
