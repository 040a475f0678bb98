import dataclasses

import numpy as np
import pytest

from commwalker import Graph, connected_components, planted_partition
from commwalker.errors import ConfigInvalidError


def test_planted_sizes_and_truth():
    g, truth = planted_partition(3, 5, 0.9, 0.1, seed=1)
    assert g.node_count == 15
    assert truth.community_count == 3
    assert truth.sizes() == [5, 5, 5]
    assert truth.community_of == [i // 5 for i in range(15)]


def test_planted_deterministic_per_seed():
    a, _ = planted_partition(2, 10, 0.5, 0.05, seed=7)
    b, _ = planted_partition(2, 10, 0.5, 0.05, seed=7)
    c, _ = planted_partition(2, 10, 0.5, 0.05, seed=8)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_planted_extreme_probabilities():
    g, truth = planted_partition(2, 4, 1.0, 0.0, seed=3)
    assert g.edge_count == 2 * 6  # two 4-cliques
    parts = connected_components(g)
    assert parts.community_of == truth.community_of


def test_planted_edge_count_scales_with_density():
    sparse = sum(planted_partition(2, 16, 0.2, 0.02, seed=s)[0].edge_count for s in range(10))
    dense = sum(planted_partition(2, 16, 0.8, 0.02, seed=s)[0].edge_count for s in range(10))
    assert dense > 2 * sparse


def test_planted_parameter_validation():
    bad = [
        ((0, 5, 0.5, 0.05, 0), ">= 1"),
        ((2, 5, 1.5, 0.05, 0), "p_in must be in"),
        ((2, 5, 0.5, -0.1, 0), "p_out must be in"),
        ((2, 5, 0.5, float("nan"), 0), "p_out must be in"),
        ((2.5, 3, 0.5, 0.1, 0), "block_count must be an integer"),
        ((2, "3", 0.5, 0.1, 0), "block_size must be an integer"),
        ((2, 3, 0.5, 0.1, 1.5), "seed must be an integer"),
        ((2, 3, 0.5, 0.1, -7), "seed must be >= 0"),  # random.Random would draw seed 7's graph
        ((2, 3, "0.5", 0.1, 0), "p_in must be a real number"),
        ((2, 3, 0.5, None, 0), "p_out must be a real number"),
    ]
    for args, message in bad:
        with pytest.raises(ConfigInvalidError, match=message):
            planted_partition(*args)
    # integer-like values read as the integers they stand for
    g, truth = planted_partition(np.int64(2), np.int32(5), np.float64(0.5), 0, seed=np.int64(4))
    h, _ = planted_partition(2, 5, 0.5, 0, seed=4)
    assert g.edges == h.edges and truth.community_of == [i // 5 for i in range(10)]


def test_planted_builds_without_from_edges(monkeypatch):
    # The drawn pairs are simple by construction (each u < v drawn once), so
    # the graph is built from them without from_edges's per-pair checks, and
    # is the graph from_edges builds from the same pairs.
    def refuse(cls, names, edge_pairs):
        raise AssertionError("planted_partition built its graph through Graph.from_edges")

    with monkeypatch.context() as patch:
        patch.setattr(Graph, "from_edges", classmethod(refuse))
        g, _ = planted_partition(2, 80, 0.7, 0.02, seed=1)
    expected = Graph.from_edges(g.nodes, g.edges)
    for field in dataclasses.fields(Graph):
        held, wanted = getattr(g, field.name), getattr(expected, field.name)
        if isinstance(wanted, np.ndarray):
            assert held.dtype == wanted.dtype and np.array_equal(held, wanted), field.name
            assert not held.flags.writeable, field.name
        else:
            assert held == wanted, field.name
