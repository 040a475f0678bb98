import json
import re
from dataclasses import fields
from importlib.resources import files

import numpy as np
import pytest

from commwalker import (
    ExplorationConfig,
    Partition,
    detect,
    load_edge_list,
    load_gml,
    modularity,
    partition_accuracy,
    run_bench,
)
from commwalker.errors import ConfigInvalidError, NoEdgesError
from commwalker.graph import Graph

from _helpers import barbell6, pairs_graph, record_configs


def test_detect_barbell_finds_triangles():
    g = barbell6()
    hits = 0
    for seed in range(5):
        result = detect(g, seed=seed)
        if result.partition.community_of == [0, 0, 0, 1, 1, 1]:
            hits += 1
            assert result.q == pytest.approx(5 / 14, abs=1e-12)
    assert hits >= 4


def test_detect_two_node_graph_baseline_wins():
    g = load_edge_list("a b\n")
    result = detect(g, seed=0)
    assert result.partition.community_count == 1
    assert result.q == 0.0
    assert result.communities == {"a": 0, "b": 0}


def test_detect_diagnostics_populated():
    result = detect(barbell6(), seed=3)
    d = result.diagnostics
    assert d.generations_run >= 1
    assert d.total_hops == d.generations_run * d.agent_count * d.memory_size
    assert d.seed == 3
    assert d.removed_edges_at_best >= 0
    assert isinstance(d.cap_hit, bool)
    assert d.components is None


def test_detect_q_matches_recomputed_modularity():
    g = barbell6()
    result = detect(g, seed=1)
    assert result.q == modularity(g, result.partition)


def test_detect_deterministic():
    g = barbell6()
    a = detect(g, seed=11)
    b = detect(g, seed=11)
    assert a.communities == b.communities
    assert a.q == b.q
    assert a.diagnostics == b.diagnostics


def test_detect_disconnected_components_union():
    text = "a b\nb c\na c\nx y\ny z\nx z\n"
    g = load_edge_list(text)
    result = detect(g, seed=0)
    assert result.partition.community_count == 2
    assert result.communities["a"] == result.communities["b"] == result.communities["c"]
    assert result.communities["x"] == result.communities["y"] == result.communities["z"]
    assert result.communities["a"] != result.communities["x"]
    assert result.q == modularity(g, result.partition)
    assert result.diagnostics.components is not None
    assert len(result.diagnostics.components) == 2
    assert sorted(c.node_count for c in result.diagnostics.components) == [3, 3]
    assert set(result.communities) == set(g.nodes)


def test_detect_disconnected_with_isolated_node():
    text = """
    graph [
      node [ id 0 ] node [ id 1 ] node [ id 2 ]
      edge [ source 0 target 1 ]
    ]
    """
    g, _ = load_gml(text)
    result = detect(g, seed=0)
    assert result.partition.community_count == 2
    assert result.communities["2"] not in (result.communities["0"], result.communities["1"])
    singleton = [c for c in result.diagnostics.components if c.node_count == 1]
    assert len(singleton) == 1
    assert singleton[0].generations_run == 0


def test_detect_builds_no_graph(monkeypatch):
    # Every component is swept and split in place. A subgraph built per
    # component scans all m edges each time: O(components × m) in all.
    g = pairs_graph(900, [(u, u + 1) for u in range(900) if u % 3 != 2])  # 300 paths
    built = []
    from_edges = Graph.from_edges.__func__

    def counting_from_edges(cls, names, edge_pairs):
        built.append(len(names))
        return from_edges(cls, names, edge_pairs)

    monkeypatch.setattr(Graph, "from_edges", classmethod(counting_from_edges))
    result = detect(g, agent_count=2, memory_size=2, max_generations=1)
    assert built == []
    assert len(result.diagnostics.components) == 300
    assert result.q == modularity(g, result.partition)


def test_detect_floods_the_unmasked_graph_once(monkeypatch):
    # The graph finds its components once and every phase reads them;
    # best_split adds one flood over the cut edges.
    from commwalker import analysis, exploration, graph

    calls = []
    flood = graph.connected_components

    def counting_flood(g, removed=None):
        calls.append("unmasked" if removed is None else "masked")
        return flood(g, removed)

    for module in (graph, exploration, analysis):
        if hasattr(module, "connected_components"):
            monkeypatch.setattr(module, "connected_components", counting_flood)
    g = load_edge_list("a b\nb c\na c\nc d\nx y\ny z\nx z\n")
    result = detect(g, seed=0)
    assert len(result.diagnostics.components) == 2
    assert sorted(calls) == ["masked", "unmasked"]


def test_detect_orders_the_edges_once(monkeypatch):
    # sweep sorts the weights once; best_split reads the cut order from its
    # records instead of sorting again
    from commwalker import analysis

    calls = []
    order = analysis.edge_removal_order

    def counting_order(w):
        calls.append(len(w))
        return order(w)

    monkeypatch.setattr(analysis, "edge_removal_order", counting_order)
    g = load_edge_list("a b\nb c\na c\nc d\nx y\ny z\nx z\n")
    result = detect(g, seed=0)
    assert len(result.diagnostics.components) == 2
    assert calls == [g.edge_count]


def test_detect_builds_no_edge_tuples():
    # a graph keeps its edges only in its CSR arrays; the (u, v) tuples of
    # Graph.edges are built on first read, and detection never reads them
    karate = load_edge_list((files("commwalker") / "data" / "karate.edges").read_text())
    lone, _ = load_gml("graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] node [ id 3 ] "
                       "edge [ source 0 target 1 ] edge [ source 1 target 2 ] ]")
    for g in (karate, lone):
        result = detect(g, seed=0)
        assert result.q == modularity(g, result.partition)
        assert "edges" not in vars(g)
    assert "edges" not in {field.name for field in fields(Graph)}


def test_detect_rejects_edgeless_graph():
    g = Graph.from_edges(["a", "b"], [])
    with pytest.raises(NoEdgesError):
        detect(g, seed=0)


def test_detect_json_dict_shape():
    result = detect(barbell6(), seed=0)
    payload = result.to_json_dict()
    assert set(payload) == {"communities", "q", "diagnostics"}
    assert set(payload["diagnostics"]) == {
        "generations_run",
        "total_hops",
        "removed_edges_at_best",
        "cap_hit",
        "seed",
        "agent_count",
        "memory_size",
    }


def test_detect_accuracy_against_planted_truth():
    from commwalker import planted_partition

    g, truth = planted_partition(2, 12, 0.9, 0.05, seed=4)
    result = detect(g, seed=4)
    assert partition_accuracy(result.partition, truth) >= 0.9


def test_detect_keywords_are_the_config_fields(monkeypatch):
    explored = record_configs(monkeypatch)
    params = {"agent_count": 6, "memory_size": 2, "max_generations": 3, "seed": 7}
    assert set(params) == {f.name for f in fields(ExplorationConfig)}
    g = barbell6()
    detect(g, **params)
    detect(g)
    assert explored == [
        ExplorationConfig(**params),
        ExplorationConfig.for_size(g.node_count, g.edge_count),
    ]
    for graph in (g, Graph.from_edges(["a", "b"], [])):  # checked before the edge count
        for unknown in ({"agents": 6}, {"hub_fraction": 0.5}):  # the hub share is fixed
            with pytest.raises(TypeError):
                detect(graph, **unknown)


@pytest.mark.parametrize(
    "params",
    [
        {"seed": 1.7},
        {"agent_count": 16.0},
        {"memory_size": 3.0},
        {"max_generations": 2.5},
    ],
    ids=lambda params: next(iter(params)),
)
def test_detect_rejects_non_integer_parameters(params):
    with pytest.raises(ConfigInvalidError, match=next(iter(params))):
        detect(barbell6(), **params)


def test_detect_reads_numpy_integers_as_int():
    g = barbell6()
    result = detect(g, seed=np.int64(3), agent_count=np.int32(16), memory_size=np.uint8(3))
    assert type(result.diagnostics.seed) is int
    expected = detect(g, seed=3, agent_count=16, memory_size=3)
    assert json.dumps(result.to_json_dict()) == json.dumps(expected.to_json_dict())


@pytest.mark.parametrize(
    "trials, base_seed",
    [(2.5, 0), ("2", 0), (2, 1.5), (2, "0")],
    ids=["float-trials", "str-trials", "float-seed", "str-seed"],
)
def test_run_bench_rejects_non_integer_trials_and_seeds(trials, base_seed):
    def no_trial(seed):
        raise AssertionError("a trial ran")

    with pytest.raises(ConfigInvalidError, match="must be integers"):
        run_bench(no_trial, trials=trials, base_seed=base_seed)


def test_run_bench_refuses_zero_trials():
    def no_trial(seed):
        raise AssertionError("a trial ran")

    with pytest.raises(ConfigInvalidError, match=re.escape("trials must be >= 1, got 0")):
        run_bench(no_trial, trials=0, base_seed=0)


def test_run_bench_reads_numpy_integers_as_int():
    g = barbell6()
    truth = Partition.from_labels([0, 0, 0, 1, 1, 1])
    report = run_bench(lambda seed: (g, truth), trials=np.int64(2), base_seed=np.uint8(4))
    assert [type(o.seed) for o in report.outcomes] == [int, int]
    assert [o.seed for o in report.outcomes] == [4, 5] and report.runs == 2
    json.dumps(report.to_json_dict())
