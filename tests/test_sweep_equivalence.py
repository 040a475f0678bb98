"""sweep() pinned to the flood-fill reference on random weighted graphs.

Weights are drawn from {0, 1, 2}, so equal weights (edge-id tie-breaks)
and exactly tied modularities are common.
"""

from itertools import combinations

import pytest

from commwalker import best_split, edge_removal_order, modularity, sweep

from _helpers import edge_weights, flood_fill_sweep, pairs_graph, scaled_modularity

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def weighted_connected_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # spanning tree
    others = [p for p in combinations(range(n), 2) if p not in pairs]
    keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    pairs.update(p for p, kept in zip(others, keep) if kept)
    edges = draw(st.permutations(sorted(pairs)))
    g = pairs_graph(n, edges)
    w = edge_weights(g, {edge: draw(st.integers(0, 2)) for edge in g.edges})
    return g, w


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(weighted_connected_graphs())
def test_sweep_matches_flood_fill_reference(case):
    g, w = case
    [records] = sweep(g, w)
    oracle = flood_fill_sweep(g, w)
    assert [(r.removed_edge_count, r.community_count) for r in records] == [
        (o.removed_edge_count, o.partition.community_count) for o in oracle
    ]
    exact = [scaled_modularity(g, o.partition) for o in oracle]
    assert [r.q_scaled for r in records] == exact
    order = edge_removal_order(w).tolist()
    assert records[0].cut_edge is None
    assert [r.cut_edge for r in records[1:]] == [order[r.removed_edge_count - 1] for r in records[1:]]
    winner = oracle[exact.index(max(exact))]  # fewest removals among exact ties
    split = best_split(g, [records])
    assert split.winners == (records[exact.index(max(exact))],)
    assert split.removed_edge_count == winner.removed_edge_count
    assert split.partition == winner.partition
    assert split.q == modularity(g, split.partition) == winner.q
