import random

import numpy as np
import pytest

from commwalker import (
    CandidateRecord,
    Partition,
    best_partition,
    best_split,
    edge_removal_order,
    modularity,
    sweep,
)

from _helpers import (
    barbell6,
    brute_force_best_partition,
    edge_weights,
    flood_fill_sweep,
    neighbor_lists,
    pairs_graph,
    random_connected_graph,
    scaled_modularity,
)


def ideal_weights(g, partition):
    """Edge entries of the pair counts with 1 on intra-community pairs, 0 elsewhere."""
    labels = partition.community_of
    counts = {}
    for u in range(g.node_count):
        for v in range(u + 1, g.node_count):
            if labels[u] == labels[v]:
                counts[(u, v)] = 1
    return edge_weights(g, counts)


def test_removal_order_all_ties_is_edge_id_order():
    g = barbell6()
    assert edge_removal_order(edge_weights(g)).tolist() == list(range(g.edge_count))


def test_removal_order_ascending_weights():
    g = pairs_graph(3, [(0, 1), (0, 2), (1, 2)])
    w = edge_weights(g, {(0, 1): 5, (0, 2): 0, (1, 2): 2})
    assert edge_removal_order(w).tolist() == [1, 2, 0]


def test_sweep_single_edge_graph():
    g = pairs_graph(2, [(0, 1)])
    [records] = sweep(g, edge_weights(g))
    assert [r.community_count for r in records] == [1, 2]
    assert records[0].q_scaled == 0
    assert records[1].q_scaled == -2  # Q = -0.5 with 4m² = 4


def test_sweep_barbell_with_ideal_weights():
    g = barbell6()
    truth = Partition(community_of=[0, 0, 0, 1, 1, 1], community_count=2)
    w = ideal_weights(g, truth)
    [records] = sweep(g, w)
    assert flood_fill_sweep(g, w)[1].partition.community_of == truth.community_of
    assert records[1].q_scaled == 70  # Q = 5/14 with 4m² = 196
    assert records[1].removed_edge_count == 1
    assert best_partition(records) == records[1]
    split = best_split(g, [records])
    assert split.partition.community_of == truth.community_of
    assert split.q == pytest.approx(5 / 14, abs=1e-12)


def test_sweep_ends_with_singletons_and_counts_increase():
    rng = random.Random(2)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        w = edge_weights(g, {edge: rng.randrange(5) for edge in g.edges})
        [records] = sweep(g, w)
        assert records[0].community_count == 1
        assert records[-1].community_count == g.node_count
        assert records[-1].removed_edge_count == g.edge_count
        counts = [r.community_count for r in records]
        assert counts == sorted(counts)
        assert len(set(counts)) == len(counts)
        assert len(records) <= g.node_count + 1


def test_sweep_q_matches_modularity_bitwise():
    g = barbell6()
    rng = random.Random(4)
    for _ in range(5):
        w = edge_weights(g, {edge: rng.randrange(10) for edge in g.edges})
        [records] = sweep(g, w)
        oracle = flood_fill_sweep(g, w)
        assert len(records) == len(oracle)
        for record, reference in zip(records, oracle):
            assert record.q_scaled == scaled_modularity(g, reference.partition)
        split = best_split(g, [records])
        assert split.q == modularity(g, split.partition)
        at_best = next(r for r in oracle if r.removed_edge_count == split.removed_edge_count)
        assert split.partition == at_best.partition
        assert split.q == at_best.q


def test_sweep_scores_each_component_on_its_own():
    # Components {0, 2}, the path 1-3-4-6 and the lone node 5, in order of
    # their lowest node. Each is cut in its own removal order and scored
    # with its own m: the path's bridge (3, 4) is its first cut, although
    # the lighter edge (0, 2) comes before it in the whole graph's order.
    g = pairs_graph(7, [(1, 3), (0, 2), (3, 4), (4, 6)])
    w = edge_weights(g, {(1, 3): 2, (0, 2): 0, (3, 4): 1, (4, 6): 2})
    # edge ids: (1, 3) 0, (0, 2) 1, (3, 4) 2, (4, 6) 3
    candidates = sweep(g, w)
    assert candidates == [
        [CandidateRecord(0, 1, 0), CandidateRecord(1, 2, -2, 1)],
        [CandidateRecord(0, 1, 0), CandidateRecord(1, 2, 6, 2), CandidateRecord(2, 3, -2, 0),
         CandidateRecord(3, 4, -10, 3)],
        [CandidateRecord(0, 1, 0)],
    ]
    split = best_split(g, candidates)
    assert split.winners == (candidates[0][0], candidates[1][1], candidates[2][0])
    assert split.removed_edge_count == 1
    assert split.partition.community_of == [0, 1, 0, 1, 2, 3, 2]
    assert split.q == modularity(g, split.partition)


def test_best_split_needs_one_list_per_component():
    g = pairs_graph(4, [(0, 1), (2, 3)])
    candidates = sweep(g, edge_weights(g))
    assert len(candidates) == 2
    for wrong in (candidates[:1], candidates + [candidates[0]]):
        with pytest.raises(ValueError, match="2 components"):
            best_split(g, wrong)


@pytest.mark.parametrize("length", [3, 9])
def test_sweep_needs_one_weight_per_edge(length):
    # unchecked, 3 weights for 7 edges would leave 4 edges cut in every
    # candidate, and 9 would index past the edges
    g = barbell6()
    with pytest.raises(ValueError, match="7 edges"):
        sweep(g, np.arange(length))


def test_sweep_needs_one_dimensional_weights():
    # unchecked, a (3, 1) array passes the length check on a 3-edge path
    # and ends in a bare TypeError
    g = pairs_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="1-D"):
        sweep(g, np.array([[1], [2], [3]]))


def test_best_partition_argmax():
    candidates = [
        CandidateRecord(0, 1, 0),
        CandidateRecord(2, 2, 70),
        CandidateRecord(4, 3, 20),
        CandidateRecord(7, 6, -98),
    ]
    assert best_partition(candidates).q_scaled == 70


def test_best_partition_baseline_wins_when_all_else_negative():
    g = pairs_graph(2, [(0, 1)])
    [records] = sweep(g, edge_weights(g))
    best = best_partition(records)
    assert best.community_count == 1
    assert best.q_scaled == 0
    split = best_split(g, [records])
    assert split.partition.community_count == 1
    assert split.q == 0.0


def test_best_partition_tie_breaks():
    tie = [
        CandidateRecord(3, 4, 49),
        CandidateRecord(2, 2, 49),
        CandidateRecord(5, 5, 49),
    ]
    chosen = best_partition(tie)
    assert chosen.removed_edge_count == 2
    assert chosen.community_count == 2


def test_best_partition_exact_tie_beats_float_rounding():
    # Both candidates score exactly Q = 5/72, but modularity() rounds the
    # one after 4 removals above the one after 2; the exact integers tie,
    # so the candidate with fewer removed edges wins.
    g = pairs_graph(7, [(0, 2), (0, 6), (1, 5), (3, 5), (4, 5), (4, 6)])
    w = edge_weights(g, {(0, 2): 1, (0, 6): 1, (1, 5): 1, (3, 5): 2, (4, 5): 1, (4, 6): 2})
    oracle = {r.removed_edge_count: r for r in flood_fill_sweep(g, w)}
    assert oracle[4].q > oracle[2].q
    assert scaled_modularity(g, oracle[4].partition) == scaled_modularity(g, oracle[2].partition)
    [records] = sweep(g, w)
    assert best_partition(records).removed_edge_count == 2
    split = best_split(g, [records])
    assert split.partition == oracle[2].partition
    assert split.q == oracle[2].q


def test_sweep_recovers_oracle_optimum_when_achievable():
    # With an ideal weight matrix the sweep removes every inter-community
    # edge first, so if each oracle community is internally connected the
    # oracle partition appears as a candidate and wins.
    rng = random.Random(19)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(4, 9))
        oracle_partition, oracle_q = brute_force_best_partition(g)
        if oracle_partition.community_count == 1:
            continue
        achievable = all(
            _is_internally_connected(g, members)
            for members in oracle_partition.members()
        )
        if not achievable:
            continue
        w = ideal_weights(g, oracle_partition)
        [records] = sweep(g, w)
        assert best_partition(records).q_scaled == scaled_modularity(g, oracle_partition)
        best = best_split(g, [records])
        assert best.q == pytest.approx(oracle_q, abs=1e-12)
        checked += 1
    assert checked >= 5


def _is_internally_connected(g, members):
    members = set(members)
    if not members:
        return False
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in neighbor_lists(g)[u]:
            if v in members and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == members
