"""explore(), sweep() and best_split() on a disconnected graph pinned to
the same calls on each component's induced subgraph, and start selection
and the stop rule over several components pinned to calls on each
component's hits alone.

One batched generation loop must give every component exactly what a
separate run on its induced subgraph gives: the same weights on its edges,
hits on its nodes, generations run and cap flag. Components stop at
different generations, and a low generation cap is hit by some of them
only. One sweep over the whole graph must give every component the
candidates of a sweep of its induced subgraph, and one best split the
partition that splitting each component on its own and offsetting the
labels gives.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from commwalker import (
    ExplorationConfig,
    best_split,
    connected_components,
    explore,
    modularity,
    sweep,
)
from commwalker import exploration
from commwalker.exploration import (
    _Segments,
    _start_order_words,
    exploration_done,
    select_start_nodes,
)

from _helpers import (
    done_alone,
    edge_weights,
    induced_subgraph,
    pairs_graph,
    per_component_split,
    sorted_pair_table,
    starts_alone,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def disconnected_graphs(draw):
    """Random connected parts of 1 to 7 nodes (a part of one node is an
    isolated node), their node ids interleaved and their edges in any
    order."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    n = sum(sizes)
    ids = draw(st.permutations(range(n)))
    pairs, at = [], 0
    for size in sizes:
        local = {(draw(st.integers(0, i - 1)), i) for i in range(1, size)}  # spanning tree
        others = [p for p in combinations(range(size), 2) if p not in local]
        keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
        local.update(p for p, kept in zip(others, keep) if kept)
        pairs += [(ids[at + u], ids[at + v]) for u, v in local]
        at += size
    return pairs_graph(n, draw(st.permutations(pairs)))


configs = st.builds(
    ExplorationConfig,
    agent_count=st.integers(2, 12),
    memory_size=st.integers(2, 6),
    max_generations=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
)


def assert_matches_each_component(g, cfg, result):
    components = connected_components(g)
    assert g.components is g.components
    assert g.components.community_of == components.community_of
    assert g.components.community_count == components.community_count
    for c, members in enumerate(components.members()):
        if len(members) == 1:
            assert result.hits[members[0]] == 0
            assert (result.component_generations[c], result.component_cap_hit[c]) == (0, False)
            continue
        sub, _, edges = induced_subgraph(g, members)
        alone = explore(sub, cfg)
        assert result.weights[edges].tolist() == alone.weights.tolist()
        assert [result.hits[v] for v in members] == alone.hits
        assert result.component_generations[c] == alone.generations_run
        assert result.component_cap_hit[c] == alone.cap_hit
    assert result.generations_run == sum(result.component_generations)
    assert result.cap_hit == any(result.component_cap_hit)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(disconnected_graphs(), configs)
def test_batched_explore_matches_each_induced_subgraph(g, cfg):
    result = explore(g, cfg)
    assert_matches_each_component(g, cfg, result)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(
    disconnected_graphs(),
    st.builds(
        ExplorationConfig,
        agent_count=st.integers(2, 12),
        memory_size=st.integers(2, 8),
        max_generations=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
    ),
)
@hypothesis.example(pairs_graph(3, []), ExplorationConfig(agent_count=4, memory_size=8))  # m = 0
def test_explore_reads_both_pair_tables_alike(g, cfg):
    # The dense table's gathers and the sorted table's searches find the
    # same slots, in the kernel's tabu and in the pair fold.
    assert g.slot_of_key is not None
    result, expected = explore(g, cfg), explore(sorted_pair_table(g), cfg)
    assert result.weights.tolist() == expected.weights.tolist()
    assert result.hits == expected.hits
    assert result.component_generations == expected.component_generations
    assert result.component_cap_hit == expected.component_cap_hit


@st.composite
def weighted_disconnected_graphs(draw):
    g = draw(disconnected_graphs().filter(lambda g: g.edge_count))  # Q needs an edge
    return g, edge_weights(g, {edge: draw(st.integers(0, 2)) for edge in g.edges})


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(weighted_disconnected_graphs())
def test_whole_graph_sweep_matches_each_induced_subgraph(case):
    g, w = case
    candidates = sweep(g, w)
    components = connected_components(g).members()
    assert len(candidates) == len(components)
    for records, members in zip(candidates, components):
        sub, _, edges = induced_subgraph(g, members)
        alone = sweep(sub, w[edges])[0]
        fields = [(r.removed_edge_count, r.community_count, r.q_scaled) for r in records]
        assert fields == [(r.removed_edge_count, r.community_count, r.q_scaled) for r in alone]
        # the subgraph's edge ids map back to the whole graph's through edges
        assert [r.cut_edge for r in records] == [
            None if r.cut_edge is None else edges[r.cut_edge] for r in alone
        ]
    split = best_split(g, candidates)
    assert split.partition == per_component_split(g, w)
    assert split.q == modularity(g, split.partition)


def two_speed_graph():
    """An edge, a triangle, a 9-node path and two isolated nodes (8 and 15),
    with the node ids of the parts interleaved."""
    edge = [(0, 5)]
    triangle = [(1, 6), (6, 9), (1, 9)]
    path = [(2, 7), (7, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 3), (3, 4)]
    return pairs_graph(16, edge + path + triangle)


def test_cap_hit_by_some_components_only():
    g = two_speed_graph()
    cfg = ExplorationConfig(agent_count=6, memory_size=3, seed=3, max_generations=4)
    result = explore(g, cfg)
    stopped = [
        gens for gens, cap in zip(result.component_generations, result.component_cap_hit)
        if gens and not cap
    ]
    assert stopped and max(stopped) < cfg.max_generations
    assert 0 < sum(result.component_cap_hit) < sum(gens > 0 for gens in result.component_generations)
    assert_matches_each_component(g, cfg, result)


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_components_run_in_groups_within_the_cell_budget(monkeypatch, per_group):
    # With room for only `per_group` components per generation the parts run
    # in several groups, one after the other, with the same results, and no
    # generation's walk is larger than the budget.
    g = pairs_graph(
        20,
        [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5), (9, 10), (10, 11),
         (12, 13), (13, 14), (14, 12), (12, 15), (16, 17), (17, 18)],
    )  # node 19 isolated; 6 components with edges
    cfg = ExplorationConfig(agent_count=7, memory_size=4, seed=11, max_generations=30)
    expected = explore(g, cfg)

    budget = per_group * cfg.agent_count * cfg.memory_size**2
    monkeypatch.setattr(exploration, "MAX_GENERATION_CELLS", budget)
    sizes = []
    kernel = exploration._csr_walks

    def recording_kernel(graph, weights, starts, uniforms, walks):
        memory_size, agents = walks[0].shape
        sizes.append(agents * memory_size**2)
        return kernel(graph, weights, starts, uniforms, walks)

    monkeypatch.setattr(exploration, "_csr_walks", recording_kernel)
    result = explore(g, cfg)
    assert max(sizes) <= budget
    assert max(sizes) == budget  # the groups are full at the start
    assert len(sizes) >= -(-6 // per_group)  # at least one generation per group
    assert result.weights.tolist() == expected.weights.tolist()
    assert result.hits == expected.hits
    assert result.component_generations == expected.component_generations
    assert result.component_cap_hit == expected.component_cap_hit
    assert_matches_each_component(g, cfg, result)


def test_slot_masses_stay_equal_on_both_slots_of_an_edge(monkeypatch):
    # explore() keeps one slot-mass array for the whole run and adds every
    # pair count to a slot and to its twin, so both slots of an edge hold
    # 1 + its weight at every generation, and the empty entry weighs 0.
    g = pairs_graph(
        14,
        [(0, 1), (1, 2), (2, 0), (3, 4), (5, 6), (6, 7), (7, 8), (8, 5), (5, 7), (9, 10),
         (10, 11), (11, 9), (9, 12)],
    )  # node 13 isolated; 4 components with edges
    cfg = ExplorationConfig(agent_count=6, memory_size=4, seed=3, max_generations=40)
    masses = []
    kernel = exploration._csr_walks

    def recording_kernel(graph, mass, starts, uniforms, walks):
        masses.append(mass)
        assert np.array_equal(mass[:-1], mass[graph.twins])
        assert mass[-1] == 0
        return kernel(graph, mass, starts, uniforms, walks)

    monkeypatch.setattr(exploration, "_csr_walks", recording_kernel)
    result = explore(g, cfg)
    assert len(masses) > 1
    assert all(mass is masses[0] for mass in masses)
    mass = masses[0]
    assert np.array_equal(mass[:-1], mass[g.twins])
    assert np.array_equal(mass[:-1], 1 + result.weights[g.edge_ids])
    assert mass[-1] == 0
    assert result.weights.min() > 0


def test_walk_arrays_allocated_once_per_running_set(monkeypatch):
    # explore() allocates the kernel's arrays (_walk_arrays) only when the
    # running set changes, and every generation of a set walks into the
    # same arrays. The parts stop at different generations, so the run
    # goes through several sets, each smaller than the one before.
    g = pairs_graph(
        24,
        [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11),
         (12, 13), (12, 14), (12, 15), (13, 14), (13, 15), (14, 15), (16, 17), (16, 18),
         (16, 19), (16, 20), (21, 22)],
    )  # node 23 isolated; 6 components with edges
    cfg = ExplorationConfig(agent_count=6, memory_size=3, seed=5)
    expected = explore(g, cfg)
    allocated, walked = [], []
    arrays, kernel = exploration._walk_arrays, exploration._csr_walks

    def counting_arrays(memory_size, agents):
        allocated.append(arrays(memory_size, agents))
        return allocated[-1]

    def recording_kernel(graph, mass, starts, uniforms, walks):
        walked.append(walks)
        return kernel(graph, mass, starts, uniforms, walks)

    monkeypatch.setattr(exploration, "_walk_arrays", counting_arrays)
    monkeypatch.setattr(exploration, "_csr_walks", recording_kernel)
    result = explore(g, cfg)
    assert result.weights.tolist() == expected.weights.tolist()
    assert result.hits == expected.hits
    assert result.component_generations == expected.component_generations
    assert result.component_cap_hit == expected.component_cap_hit
    # running[t]: the number of components that run generation t (those
    # that stop after it); it falls each time the running set changes
    stops = [gens for gens in result.component_generations if gens]
    running = [sum(t < stop for stop in stops) for t in range(max(stops))]
    sets = sorted(set(running), reverse=True)
    assert len(sets) >= 3  # the parts stop apart
    assert len(allocated) == len(sets)
    assert [walks[0].shape for walks in allocated] == [(cfg.memory_size, cfg.agent_count * count) for count in sets]
    assert len(walked) == len(running)  # one kernel call per generation
    for count, walks in zip(running, walked):
        assert all(a is b for a, b in zip(walks, allocated[sets.index(count)]))


def reference_start_nodes(hits, cfg, generation, order_words):
    """One component's starts as the per-component loop placed them: one
    stable argsort per order, each cycled through, ceil(0.75 * agents) of
    them on the most-hit nodes after generation 0."""
    n, a = len(hits), cfg.agent_count
    if generation == 0:
        return np.argsort(order_words[:n], kind="stable")[np.arange(a) % n]
    hits = np.asarray(hits, dtype=np.int64)
    hub_count = math.ceil(0.75 * a)
    by_most_hit = np.argsort(-hits, kind="stable")
    by_least_hit = np.argsort(hits, kind="stable")
    return np.concatenate(
        (by_most_hit[np.arange(hub_count) % n], by_least_hit[np.arange(a - hub_count) % n])
    )


@st.composite
def segmented_hits(draw):
    """Hit vectors of 1 to 6 components of 2 to 40 nodes. Hits are drawn
    from a few values, so most orders have ties, around the stop floor."""
    cfg = draw(
        st.builds(
            ExplorationConfig,
            agent_count=st.integers(2, 90),  # below and above the sizes
            memory_size=st.integers(2, 5),
            seed=st.integers(0, 2**64 - 1),
        )
    )
    floor = (cfg.agent_count - 1) * cfg.memory_size
    sizes = draw(st.lists(st.integers(2, 40), min_size=1, max_size=6))
    values = st.sampled_from([0, floor - 1, floor, floor + 1, 3 * floor])
    hits = [draw(st.lists(values, min_size=size, max_size=size)) for size in sizes]
    generation = draw(st.sampled_from([0, 1, 2, 50]))
    return cfg, hits, generation


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(segmented_hits())
def test_segmented_pass_matches_each_component(case):
    # One call over every component's hits gives each component the starts
    # and the stop verdict of a call on its own hits; a hit tie broken by
    # anything but node id (the position within the component) differs
    # from the reference's stable sorts.
    cfg, hits, generation = case
    sizes = [len(h) for h in hits]
    order_words = _start_order_words(cfg.seed, max(sizes))
    segments = _Segments.of_sizes(np.array(sizes), cfg)
    joined = np.concatenate(hits)
    starts = select_start_nodes(joined, cfg, generation, segments)
    done = exploration_done(joined, cfg, segments)
    assert starts.shape == (len(hits) * cfg.agent_count,)
    assert done.shape == (len(hits),)
    at = 0
    for c, own in enumerate(hits):
        expected = reference_start_nodes(own, cfg, generation, order_words)
        assert starts_alone(own, cfg, generation).tolist() == expected.tolist()
        mine = starts[c * cfg.agent_count : (c + 1) * cfg.agent_count] - at
        assert mine.tolist() == expected.tolist()
        assert done[c] == done_alone(own, cfg)
        at += len(own)


def test_explore_selects_starts_and_checks_stops_once_per_generation(monkeypatch):
    # The running components share one start selection and one stop check
    # per generation, however many of them run.
    calls = {"starts": 0, "stops": 0}
    select, done = exploration.select_start_nodes, exploration.exploration_done

    def counting_select(*args):
        calls["starts"] += 1
        return select(*args)

    def counting_done(*args):
        calls["stops"] += 1
        return done(*args)

    monkeypatch.setattr(exploration, "select_start_nodes", counting_select)
    monkeypatch.setattr(exploration, "exploration_done", counting_done)
    g = two_speed_graph()
    cfg = ExplorationConfig(agent_count=6, memory_size=3, seed=3)
    result = explore(g, cfg)
    assert len(set(result.component_generations) - {0}) > 1  # they stop apart
    generations = max(result.component_generations)
    assert calls == {"starts": generations, "stops": generations}
