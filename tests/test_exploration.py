import math
import random
import tracemalloc

import numpy as np
import pytest

from commwalker import ExplorationConfig, explore
from commwalker.errors import ConfigInvalidError
from commwalker.exploration import MAX_GENERATION_CELLS, _philox, _walk_uniforms
from commwalker.graph import Graph

from _helpers import (
    BARBELL_BRIDGE,
    apply_memory_update,
    barbell6,
    cycle_graph,
    done_alone,
    edge_weights,
    karate,
    move_probabilities,
    neighbor_lists,
    pairs_graph,
    path_graph,
    replay,
    run_walk,
    starts_alone,
    triangle,
)


def star_graph(k):
    return pairs_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def test_move_probabilities_uniform_on_zero_weights():
    g = star_graph(3)
    probs = move_probabilities(g, edge_weights(g), 0, set())
    assert probs == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_move_probabilities_weighted():
    # weights (0, 1, 3) -> smoothed masses (1, 2, 4) over a total of 7
    g = star_graph(3)
    w = edge_weights(g, {(0, 2): 1, (0, 3): 3})
    probs = move_probabilities(g, w, 0, set())
    assert probs == pytest.approx([1 / 7, 2 / 7, 4 / 7])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_move_probabilities_tabu_leaves_single_candidate():
    g = pairs_graph(3, [(0, 1), (0, 2)])
    probs = move_probabilities(g, edge_weights(g), 0, {1})
    assert probs == [0.0, 1.0]


def test_move_probabilities_relaxes_when_all_tabu():
    g = pairs_graph(3, [(0, 1), (0, 2)])
    probs = move_probabilities(g, edge_weights(g), 0, {1, 2})
    assert probs == pytest.approx([0.5, 0.5])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_move_probabilities_isolated_node():
    g = Graph.from_edges(["a", "b", "c"], [(0, 1)])
    with pytest.raises(ValueError):
        move_probabilities(g, edge_weights(g), 2, set())


def test_run_walk_two_step_path_splits_evenly():
    g = path_graph(3)
    counts = {1: 0, 2: 0}  # memory from start=1 ends at 0 or 2
    for seed in range(2000):
        mem = run_walk(g, edge_weights(g), 1, 2, random.Random(seed))
        assert mem[0] == 1
        counts[1 if mem[1] == 0 else 2] += 1
    assert abs(counts[1] - counts[2]) < 200


def test_run_walk_dead_end_relaxes_tabu():
    g = path_graph(2)
    mem = run_walk(g, edge_weights(g), 0, 3, random.Random(0))
    assert mem == [0, 1, 0]


def test_run_walk_length_and_adjacency():
    g, _ = karate()
    neighbor_sets = [set(ns) for ns in neighbor_lists(g)]
    for seed in range(30):
        mem = run_walk(g, edge_weights(g), seed % g.node_count, 6, random.Random(seed))
        assert len(mem) == 6
        for a, b in zip(mem, mem[1:]):
            assert b in neighbor_sets[a]


def test_run_walk_from_isolated_node():
    g = Graph.from_edges(["a", "b", "c"], [(0, 1)])
    with pytest.raises(ValueError):
        run_walk(g, edge_weights(g), 2, 3, random.Random(0))


def test_run_walk_barbell_stays_local_from_bridge_endpoint():
    # From the bridge endpoint c with zero weights and memory 4, exact
    # enumeration gives stay 2/3 vs cross 1/3. (From a non-endpoint triangle
    # node the full-memory tabu forces most walks across: see the ledger.)
    g = barbell6()
    start = 2
    triangle_nodes = {0, 1, 2}
    stayed = crossed = 0
    for row in _walk_uniforms(_philox(0, 0), 10_000, 3):
        mem = run_walk(g, edge_weights(g), start, 4, replay(row))
        if set(mem) <= triangle_nodes:
            stayed += 1
        else:
            crossed += 1
    assert stayed > crossed
    assert stayed / 10_000 == pytest.approx(2 / 3, abs=0.02)


def test_apply_memory_update_all_pairs():
    counts = {}
    apply_memory_update(counts, [0, 1, 2])
    assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 1}


def test_apply_memory_update_set_semantics_on_revisit():
    counts = {}
    apply_memory_update(counts, [0, 1, 0])
    assert counts == {(0, 1): 1}


def test_apply_memory_update_accumulates():
    counts = {}
    apply_memory_update(counts, [0, 1, 2])
    apply_memory_update(counts, [3, 2, 1])
    assert counts == {(0, 1): 1, (0, 2): 1, (1, 2): 2, (1, 3): 1, (2, 3): 1}


def test_edge_weight_read_alike_from_both_endpoints():
    # One entry per undirected edge: moving 0 -> 1 and 1 -> 0 reads the
    # same weight, and a pair that is not an edge has no entry at all.
    g = pairs_graph(4, [(0, 1), (0, 2), (1, 3)])
    w = edge_weights(g, {(0, 1): 3, (2, 3): 9})
    assert w.tolist() == [3, 0, 0]
    assert move_probabilities(g, w, 0, set()) == pytest.approx([4 / 5, 1 / 5])
    assert move_probabilities(g, w, 1, set()) == pytest.approx([4 / 5, 1 / 5])


def test_select_start_nodes_generation_zero_distinct():
    # Generation 0 cycles through one random node order per seed: distinct
    # starts while agents <= nodes, then floor or ceil(agents / nodes) each.
    # The order sorts n words of Philox(key=[seed, 0]) jumped past the walks;
    # n is the length of the hit list, the nodes of one component.
    n = 34
    longest = starts_alone([0] * n, ExplorationConfig(agent_count=100, memory_size=4), 0)
    words = np.random.Philox(key=[0, 0]).jumped().random_raw(n)
    assert longest[:n].tolist() == np.argsort(words, kind="stable").tolist()
    for agents in (3, 33, 34, 35, 67, 100):
        cfg = ExplorationConfig(agent_count=agents, memory_size=4)
        starts = starts_alone([0] * n, cfg, 0)
        counts = np.bincount(starts, minlength=n)
        assert len(starts) == agents and len(counts) == n
        if agents <= n:
            assert counts.max() == 1
        else:
            assert set(counts.tolist()) <= {agents // n, -(-agents // n)}
        assert starts.tolist() == longest[:agents].tolist()  # same seed, same order
        assert starts_alone(list(range(n)), cfg, 0).tolist() == starts.tolist()
    reseeded = ExplorationConfig(agent_count=n, memory_size=4, seed=1)
    assert starts_alone([0] * n, reseeded, 0).tolist() != longest[:n].tolist()


def test_select_start_nodes_hub_and_least_split():
    # 4 agents split 3 and 1: three on the most-hit nodes, one on the
    # least-hit, hit ties broken by node id
    hits = [10, 8, 8, 1] + [0] * 30
    cfg = ExplorationConfig(agent_count=4, memory_size=4)
    assert starts_alone(hits, cfg, 1).tolist() == [0, 1, 2, 4]


@pytest.mark.parametrize(
    "agents, expected",
    [(2, [0, 1]), (3, [0, 1, 2]), (8, [0, 1, 2, 3, 4, 5, 4, 5])],
)
def test_select_start_nodes_fixed_hub_share(agents, expected):
    # the hub share is fixed: ceil(0.75 * agents) agents start on the
    # most-hit nodes, so 2 and 3 agents all do, and 8 put 6 there and 2 on
    # the least-hit nodes
    hits = [10, 8, 8, 1] + [0] * 30
    cfg = ExplorationConfig(agent_count=agents, memory_size=4)
    assert starts_alone(hits, cfg, 1).tolist() == expected


def test_select_start_nodes_all_nodes_when_agents_equal_nodes():
    # 6 agents on 6 distinct hit counts: 5 on the most-hit, 1 on the least
    cfg = ExplorationConfig(agent_count=6, memory_size=3)
    starts = starts_alone([5, 4, 3, 2, 1, 0], cfg, 1)
    assert sorted(starts) == [0, 1, 2, 3, 4, 5]


def test_select_start_nodes_repeats_only_when_agents_exceed_nodes():
    cfg = ExplorationConfig(agent_count=7, memory_size=3)
    starts = starts_alone([0, 1, 2], cfg, 1)
    assert len(starts) == 7
    assert set(starts) <= {0, 1, 2}


def test_exploration_done_threshold():
    cfg = ExplorationConfig(agent_count=2, memory_size=5)
    assert done_alone([5, 6, 7], cfg)
    assert not done_alone([5, 4, 7], cfg)


def test_config_validation():
    # a config is checked when it is built: there is no unchecked config
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig(agent_count=1, memory_size=4)
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig(agent_count=4, memory_size=1)
    with pytest.raises(TypeError):  # the hub share is fixed, not a field
        ExplorationConfig(agent_count=4, memory_size=4, hub_fraction=0.75)
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig(agent_count=4, memory_size=4, max_generations=0)
    ExplorationConfig(agent_count=MAX_GENERATION_CELLS // 16, memory_size=4)
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig(agent_count=MAX_GENERATION_CELLS // 16 + 1, memory_size=4)
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig(agent_count=2, memory_size=10**8)
    ExplorationConfig(agent_count=2, memory_size=2, seed=2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ConfigInvalidError):
            ExplorationConfig(agent_count=2, memory_size=2, seed=seed)
    with pytest.raises(ConfigInvalidError):
        ExplorationConfig.for_size(10, 20, memory_size=1)
    # every field takes what operator.index takes
    for field, value in [
        ("agent_count", 16.0),
        ("memory_size", 3.0),
        ("max_generations", 2.5),
        ("seed", 1.7),
        ("seed", "3"),
    ]:
        with pytest.raises(ConfigInvalidError, match=field):
            ExplorationConfig(**{"agent_count": 4, "memory_size": 3, field: value})
    cfg = ExplorationConfig(
        np.int64(4), np.uint8(3), max_generations=np.int32(7), seed=np.uint64(2**64 - 1)
    )
    assert cfg == ExplorationConfig(4, 3, max_generations=7, seed=2**64 - 1)
    assert {type(v) for v in (cfg.agent_count, cfg.memory_size, cfg.max_generations, cfg.seed)} == {int}


def test_explore_two_node_graph_single_generation():
    g = path_graph(2)
    cfg = ExplorationConfig(agent_count=2, memory_size=2, seed=5)
    result = explore(g, cfg)
    assert result.generations_run == 1
    assert result.hits == [2, 2]
    assert not result.cap_hit


def test_explore_hit_identity():
    g = barbell6()
    for seed in (0, 1, 2):
        cfg = ExplorationConfig(agent_count=5, memory_size=3, seed=seed)
        result = explore(g, cfg)
        assert sum(result.hits) == result.generations_run * 5 * 3
        assert result.total_hops == sum(result.hits)


def test_explore_deterministic_for_fixed_seed():
    g = barbell6()
    cfg = ExplorationConfig(agent_count=6, memory_size=3, seed=42)
    a = explore(g, cfg)
    b = explore(g, cfg)
    assert a.weights.tolist() == b.weights.tolist()
    assert a.hits == b.hits
    assert a.generations_run == b.generations_run


def test_explore_memory_two_weights_only_on_edges():
    g, _ = karate()
    cfg = ExplorationConfig(agent_count=8, memory_size=2, seed=0, max_generations=50)
    result = explore(g, cfg)
    # a memory of two nodes is one pair, and that pair is an edge: every
    # agent adds exactly 1 to the edge array
    assert result.weights.shape == (g.edge_count,)
    assert result.weights.min() >= 0
    assert result.weights.sum() == result.generations_run * cfg.agent_count


def test_explore_generation_memory_does_not_grow_with_max_degree():
    # One generation on a 400-node star with default parameters (3,200
    # agents, memory 3). Per-step arrays must be agents x memory with no
    # max-degree term: one int64 array of agents x max degree is 9.7 MiB.
    g = star_graph(399)
    cfg = ExplorationConfig.for_size(g.node_count, g.edge_count, max_generations=1)
    tracemalloc.start()
    try:
        explore(g, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def hub_graph():
    """Hub 0 on eleven spokes, a few spoke-spoke edges and a two-node tail:
    degrees from 1 to 11, so CSR rows differ widely in length."""
    spokes = [(0, i) for i in range(1, 12)]
    return pairs_graph(14, spokes + [(1, 2), (2, 3), (4, 5), (11, 12), (12, 13)])


MANUAL_LOOP_CASES = [
    pytest.param(barbell6, ExplorationConfig(agent_count=4, memory_size=3, seed=9), id="barbell"),
    pytest.param(
        lambda: karate()[0],
        ExplorationConfig(agent_count=8, memory_size=2, seed=1, max_generations=60),
        id="karate-memory-2",
    ),
    pytest.param(  # 11 draws per walk, and the generation cap is hit
        lambda: karate()[0],
        ExplorationConfig(agent_count=6, memory_size=12, seed=2, max_generations=25),
        id="karate-memory-12",
    ),
    pytest.param(  # dead ends and walks longer than the path: tabu relaxation
        lambda: path_graph(5),
        ExplorationConfig(agent_count=3, memory_size=7, seed=3),
        id="path-dead-ends",
    ),
    pytest.param(
        hub_graph, ExplorationConfig(agent_count=5, memory_size=10, seed=4), id="hub-uneven-degrees"
    ),
    pytest.param(  # every step after the first has one candidate: no uniform drawn
        lambda: cycle_graph(7),
        ExplorationConfig(agent_count=3, memory_size=5, seed=5),
        id="cycle-forced-steps",
    ),
    pytest.param(
        triangle, ExplorationConfig(agent_count=7, memory_size=4, seed=6), id="more-agents-than-nodes"
    ),
]


@pytest.mark.parametrize("make_graph, cfg", MANUAL_LOOP_CASES)
def test_explore_matches_manual_generation_loop(make_graph, cfg):
    # explore() == the published ops composed in agent order, including the
    # per-generation mass bookkeeping: the lockstep kernel against run_walk.
    # Agent k replays row k of a generation of only k + 1 agents, so its
    # lane must not depend on the agent count.
    g = make_graph()
    expected = explore(g, cfg)

    counts = {}  # full-pair oracle: every co-visited pair, edge or not
    hits = [0] * g.node_count
    generations = 0
    cap_hit = True
    for generation in range(cfg.max_generations):
        starts = starts_alone(hits, cfg, generation)
        w = edge_weights(g, counts)
        memories = []
        for k, start in enumerate(starts):
            lane = _walk_uniforms(_philox(cfg.seed, generation), k + 1, cfg.memory_size - 1)[k]
            memories.append(run_walk(g, w, start, cfg.memory_size, replay(lane)))
        mass_before = sum(counts.values())
        pair_count = 0
        for memory in memories:
            apply_memory_update(counts, memory)
            pair_count += math.comb(len(set(memory)), 2)
            for node in memory:
                hits[node] += 1
        assert sum(counts.values()) == mass_before + pair_count
        assert pair_count >= cfg.agent_count  # strict growth every generation
        generations += 1
        if done_alone(hits, cfg):
            cap_hit = False
            break
    assert expected.weights.tolist() == edge_weights(g, counts).tolist()
    assert hits == expected.hits
    assert generations == expected.generations_run
    assert cap_hit == expected.cap_hit


def test_explore_single_node_runs_no_generation():
    single = Graph.from_edges(["a"], [])
    result = explore(single, ExplorationConfig(agent_count=2, memory_size=2))
    assert result.hits == [0]
    assert (result.generations_run, result.cap_hit) == (0, False)
    assert (result.component_generations, result.component_cap_hit) == ((0,), (False,))
    assert result.weights.tolist() == []


def test_explore_cap_hit_flag():
    g = barbell6()
    cfg = ExplorationConfig(agent_count=4, memory_size=3, seed=0, max_generations=1)
    result = explore(g, cfg)
    assert result.cap_hit
    assert result.generations_run == 1


def test_explore_barbell_bridge_below_median_intra():
    g = barbell6()
    bridge = BARBELL_BRIDGE
    wins = 0
    for seed in range(10):
        result = explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=seed))
        w = result.weights
        intra = sorted(w[e] for e, edge in enumerate(g.edges) if edge != bridge)
        median = intra[len(intra) // 2]
        if w[g.edges.index(bridge)] < median:
            wins += 1
    assert wins >= 9
