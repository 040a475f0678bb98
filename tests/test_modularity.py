import random
from itertools import permutations

import numpy as np
import pytest

from commwalker import (
    Partition,
    confusion_matrix,
    matched_total,
    modularity,
    partition_accuracy,
    sweep,
)
from commwalker.errors import (
    InputError,
    NoEdgesError,
    PartitionMismatchError,
    SizeMismatchError,
)
from commwalker.graph import Graph

from _helpers import (
    barbell6,
    brute_force_best_partition,
    cycle_graph,
    edge_weights,
    flood_fill_sweep,
    karate,
    pairs_graph,
    random_connected_graph,
    random_partition,
    triangle,
)


def single_community(n):
    return Partition(community_of=[0] * n, community_count=1)


def test_single_community_is_exactly_zero():
    for g in (triangle(), barbell6(), cycle_graph(5)):
        assert modularity(g, single_community(g.node_count)) == 0.0


def test_barbell_two_triangles():
    g = barbell6()
    p = Partition(community_of=[0, 0, 0, 1, 1, 1], community_count=2)
    assert modularity(g, p) == pytest.approx(5 / 14, abs=1e-12)


def test_four_cycle_diagonal_pairs_is_minus_half():
    g = cycle_graph(4)
    p = Partition(community_of=[0, 1, 0, 1], community_count=2)
    assert modularity(g, p) == pytest.approx(-0.5, abs=1e-12)


def test_label_permutation_invariance():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 9))
        p = random_partition(rng, g.node_count)
        relabel = list(range(p.community_count))
        rng.shuffle(relabel)
        q = Partition.from_labels([relabel[c] for c in p.community_of])
        assert modularity(g, p) == pytest.approx(modularity(g, q), abs=1e-12)


def test_modularity_bounds_on_random_partitions():
    rng = random.Random(5)
    for _ in range(200):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        p = random_partition(rng, g.node_count)
        assert -0.5 - 1e-12 <= modularity(g, p) <= 1.0


def test_modularity_errors():
    g = triangle()
    with pytest.raises(PartitionMismatchError):
        modularity(g, Partition(community_of=[0, 0], community_count=1))
    edgeless = Graph.from_edges(["a", "b"], [])
    with pytest.raises(NoEdgesError):
        modularity(edgeless, Partition(community_of=[0, 1], community_count=2))


def test_brute_force_triangle_stays_whole():
    p, q = brute_force_best_partition(triangle())
    assert p.community_count == 1
    assert q == 0.0


def test_brute_force_barbell_finds_triangles():
    p, q = brute_force_best_partition(barbell6())
    assert q == pytest.approx(5 / 14, abs=1e-12)
    assert p.community_of == [0, 0, 0, 1, 1, 1]


def test_brute_force_two_disjoint_edges():
    g = pairs_graph(4, [(0, 1), (2, 3)])
    p, q = brute_force_best_partition(g)
    assert p.community_of == [0, 0, 1, 1]
    manual = [
        Partition(community_of=[0] * 4, community_count=1),
        Partition(community_of=[0, 1, 2, 3], community_count=4),
        Partition(community_of=[0, 1, 1, 0], community_count=2),
    ]
    for cand in manual:
        assert modularity(g, cand) <= q


def test_brute_force_matches_modularity_bitwise():
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 7))
        p, q = brute_force_best_partition(g)
        assert modularity(g, p) == q


def test_brute_force_dominates_random_partitions():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        _, best_q = brute_force_best_partition(g)
        for _ in range(50):
            assert modularity(g, random_partition(rng, g.node_count)) <= best_q


def test_brute_force_too_large():
    g = pairs_graph(13, [(i, i + 1) for i in range(12)])
    with pytest.raises(ValueError):
        brute_force_best_partition(g)


def test_brute_force_tie_prefers_fewer_communities():
    # 2-node single edge: Q = 0 for {ab}, Q = -0.5 for singletons
    g = pairs_graph(2, [(0, 1)])
    p, q = brute_force_best_partition(g)
    assert q == 0.0
    assert p.community_count == 1


def test_accuracy_identity_and_relabeling():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 30)
        p = random_partition(rng, n)
        assert partition_accuracy(p, p) == 1.0
        relabel = list(range(p.community_count))
        rng.shuffle(relabel)
        q = Partition.from_labels([relabel[c] for c in p.community_of])
        assert partition_accuracy(p, q) == 1.0
        assert partition_accuracy(q, p) == 1.0


def test_accuracy_karate_one_misplaced():
    _, truth = karate()
    flipped = list(truth.community_of)
    flipped[2] = 1 - flipped[2]
    predicted = Partition.from_labels(flipped)
    assert partition_accuracy(predicted, truth) == pytest.approx(33 / 34)


def test_accuracy_singletons_vs_two_blocks():
    truth = Partition.from_labels([0] * 5 + [1] * 5)
    predicted = Partition.from_labels(list(range(10)))
    assert partition_accuracy(predicted, truth) == pytest.approx(0.2)


def test_accuracy_size_mismatch():
    with pytest.raises(SizeMismatchError):
        partition_accuracy(
            Partition.from_labels([0, 1]), Partition.from_labels([0, 1, 1])
        )


def test_accuracy_of_no_nodes_is_an_input_error():
    empty = Partition([], 0)
    with pytest.raises(InputError, match="no nodes"):
        partition_accuracy(empty, empty)


def brute_force_matched_total(counts):
    # every way to give each row of the shorter side its own column; with
    # non-negative entries a partial matching never totals more
    counts = counts if counts.shape[0] <= counts.shape[1] else counts.T
    k, wide = counts.shape
    return max(sum(counts[r, c] for r, c in enumerate(cols)) for cols in permutations(range(wide), k))


def test_matched_total_is_the_best_one_to_one_matching():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def matrices(draw):
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        if draw(st.booleans()):  # all entries equal, zero included
            return np.full((rows, cols), draw(st.integers(0, 3)), dtype=np.int64)
        top = draw(st.sampled_from([1, 3, 40]))
        cells = draw(st.lists(st.integers(0, top), min_size=rows * cols, max_size=rows * cols))
        return np.array(cells, dtype=np.int64).reshape(rows, cols)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(matrices())
    def check(counts):
        assert matched_total(counts) == brute_force_matched_total(counts)
        assert matched_total(counts.T) == matched_total(counts)

    check()


def test_matched_total_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(29)
    for _ in range(300):
        rows, cols = rng.integers(1, 41, size=2)
        counts = rng.integers(0, rng.choice([2, 10, 1000]), size=(rows, cols))
        picked = optimize.linear_sum_assignment(counts, maximize=True)
        assert matched_total(counts) == counts[picked].sum()


def test_confusion_matrix_shape_and_sum():
    predicted = Partition.from_labels([0, 0, 1, 1, 2])
    truth = Partition.from_labels([0, 0, 0, 1, 1])
    counts = confusion_matrix(predicted, truth)
    assert counts.shape == (3, 2)
    assert counts.sum() == 5
    assert counts[0, 0] == 2


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")

    def nx_modularity(g, p):
        h = nx.Graph(g.edges)
        h.add_nodes_from(range(g.node_count))
        return nx.community.modularity(h, [set(c) for c in p.members()])

    rng = random.Random(11)
    k, truth = karate()
    cases = [(k, truth)]
    cases += [(k, random_partition(rng, k.node_count)) for _ in range(20)]
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(2, 12))
        cases.append((g, random_partition(rng, g.node_count)))
    for g, p in cases:
        assert modularity(g, p) == pytest.approx(nx_modularity(g, p), abs=1e-12)

    for g in [k] + [random_connected_graph(rng, rng.randrange(2, 12)) for _ in range(20)]:
        w = edge_weights(g, {edge: rng.randrange(4) for edge in g.edges})
        four_m_squared = 4 * g.edge_count**2
        [records] = sweep(g, w)
        for record, reference in zip(records, flood_fill_sweep(g, w)):
            expected = nx_modularity(g, reference.partition)
            assert record.q_scaled / four_m_squared == pytest.approx(expected, abs=1e-12)
