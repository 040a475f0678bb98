"""The lockstep CSR walk kernel pinned to run_walk, agent by agent, and
its two hand-tuned numpy stand-ins pinned to the numpy calls they replace.

Weight snapshots reach values (up to 2**40) that explore() never produces,
so the integer search for floor(r) + 1 in the slot-mass prefix is checked
where float rounding of r would matter first. Uniforms u = j / T, with T
the allowed mass of the step, check it where r = u * T is an integer.
"""

from itertools import combinations, product

import numpy as np
import pytest

from commwalker import ExplorationConfig, exploration, explore, graph
from commwalker.exploration import (
    _csr_walks,
    _generation_streams,
    _philox,
    _search_in_order,
    _slot_masses,
    _sort_columns,
    _walk_arrays,
    _walk_uniforms,
)

from _helpers import (
    connected_planted,
    edge_weights,
    karate,
    neighbor_lists,
    pairs_graph,
    path_graph,
    replay,
    run_walk,
    sorted_pair_table,
    triangle,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def both_pair_tables(g):
    """g as built, whose tabu lookups gather from the dense pair table, and
    g without it, whose lookups search the sorted pair-key table."""
    assert g.slot_of_key is not None
    return g, sorted_pair_table(g)


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
    memory_size = draw(st.integers(2, 12))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=20))  # may repeat
    seed = draw(st.integers(0, 2**31))
    generation = draw(st.integers(0, 1000))
    return g, w, memory_size, starts, seed, generation


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(walk_cases())
def test_csr_walks_match_run_walk(case):
    g, w, memory_size, starts, seed, generation = case
    agents = len(starts)
    uniforms = _walk_uniforms(_philox(seed, generation), agents, memory_size - 1)
    mass = _slot_masses(g, w)
    edge_of = {  # (u, v) -> the id of edge u-v, read off the CSR rows
        (u, int(g.neighbors[s])): int(g.edge_ids[s])
        for u in range(g.node_count)
        for s in range(g.indptr[u], g.indptr[u + 1])
    }
    right, left = np.tril_indices(memory_size, -1)
    for walked in both_pair_tables(g):
        memory, first, slots = _csr_walks(
            walked, mass, np.array(starts, dtype=np.int64), uniforms, _walk_arrays(memory_size, agents)
        )
        for k, start in enumerate(starts):
            expected = run_walk(g, w, start, memory_size, replay(uniforms[k]))
            assert memory[:, k].tolist() == expected
            assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
            # pair (i, j), i < j, at row j(j - 1) / 2 + i: a slot of edge
            # memory[i]-memory[j], or 2m when they are no edge
            for row, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
                assert row == j * (j - 1) // 2 + i
                slot, edge = slots[row, k], edge_of.get((expected[i], expected[j]))
                assert (slot == len(g.neighbors)) if edge is None else (g.edge_ids[slot] == edge)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(walk_cases(), st.integers(2, 4))
def test_csr_walks_read_lane_k_mod_lanes(case, copies):
    # copies x lanes agents on lanes uniform rows: agent k reads lane
    # k % lanes, as if the rows were tiled, as several components' agents
    # do in explore().
    g, w, memory_size, starts, seed, generation = case
    lanes = len(starts)
    uniforms = _walk_uniforms(_philox(seed, generation), lanes, memory_size - 1)
    mass = _slot_masses(g, w)
    all_starts = np.random.default_rng(seed).permutation(np.repeat(starts, copies))
    for walked in both_pair_tables(g):
        agents = len(all_starts)
        memory, first, slots = _csr_walks(walked, mass, all_starts, uniforms, _walk_arrays(memory_size, agents))
        tiled = _csr_walks(
            walked, mass, all_starts, np.tile(uniforms, (copies, 1)), _walk_arrays(memory_size, agents)
        )
        assert all(map(np.array_equal, (memory, first, slots), tiled))
        for k, start in enumerate(all_starts.tolist()):
            expected = run_walk(g, w, start, memory_size, replay(uniforms[k % lanes]))
            assert memory[:, k].tolist() == expected


def poisoned(memory_size, agents):
    """_walk_arrays(memory_size, agents) filled with values no walk writes:
    memory -1, first False, slots -7."""
    memory, first, slots = walks = _walk_arrays(memory_size, agents)
    memory.fill(-1)
    first.fill(False)
    slots.fill(-7)
    return walks


@pytest.mark.parametrize("memory_size", range(2, 13))
def test_csr_walks_write_every_cell_of_stale_arrays(memory_size):
    # The kernel writes every cell of the caller's arrays, so arrays that
    # hold poison, and then the walks of another generation, give what
    # fresh ones give. Leaves and degree-2 nodes block and revisit, so
    # every closed-form step and the general tabu path write their rows;
    # the agents outnumber the uniform rows.
    g = pairs_graph(
        10,
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7), (7, 0), (7, 8), (2, 9)],
    )
    rng = np.random.default_rng(memory_size)
    w = rng.integers(0, 6, size=g.edge_count)
    agents, lanes = 4 * g.node_count, 7
    generations = [  # (starts, uniforms) of two generations
        (rng.integers(0, g.node_count, size=agents), rng.random((lanes, memory_size - 1)))
        for _ in range(2)
    ]
    for walked in both_pair_tables(g):
        mass = _slot_masses(walked, w)
        walks = poisoned(memory_size, agents)
        for starts, uniforms in generations:
            fresh = _csr_walks(walked, mass, starts, uniforms, _walk_arrays(memory_size, agents))
            reused = _csr_walks(walked, mass, starts, uniforms, walks)
            assert all(a is b for a, b in zip(reused, walks))
            assert all(map(np.array_equal, reused, fresh))
            assert (reused[2] >= 0).all()
        assert memory_size == 2 or not walks[1].all()  # some step was blocked and revisited


def _gapped_tabu_steps(g, walk):
    """The steps of a walk whose sorted tabu column, once deduplicated,
    holds an empty entry between two real tabu slots: the current node's
    slot to an older node seen twice, below another tabu slot, on a step
    that is not blocked."""
    rows = neighbor_lists(g)
    gapped = []
    for step in range(3, len(walk)):
        current, row = walk[step - 1], rows[walk[step - 1]]
        tabu = sorted([row.index(walk[step - 2])] + [row.index(v) for v in walk[: step - 2] if v in row])
        repeated = [slot for i, slot in enumerate(tabu) if i and slot == tabu[i - 1]]
        blocked = len(set(tabu)) == len(row)
        if not blocked and repeated and min(repeated) < max(tabu):
            gapped.append(step)
    return gapped


@pytest.mark.parametrize("memory_size", [5, 6])
def test_csr_walks_match_run_walk_with_gaps_in_the_tabu(memory_size):
    # Leaves and degree-2 nodes block steps, so walks revisit nodes, and a
    # node in the tabu twice is deduplicated to an empty entry. From six
    # nodes on (x, leaf, x, c, d, ...) that entry can lie between the real
    # tabu slots of one column, and the pass over the tabu rows must weigh
    # it 0; with five, a repeated entry is always the last real one.
    g = pairs_graph(
        10,
        [(0, 1), (0, 2), (0, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7), (7, 0), (7, 8), (2, 9)],
    )  # 1, 8 and 9 are leaves; 2, 3, 4, 5 and 6 have degree 2
    degrees = g.degrees()
    assert 1 in degrees and 2 in degrees
    rng = np.random.default_rng(memory_size)
    w = rng.integers(0, 6, size=g.edge_count)
    starts = np.repeat(np.arange(g.node_count), 300)
    uniforms = rng.random((len(starts), memory_size - 1))
    dense, by_search = (
        _csr_walks(walked, _slot_masses(g, w), starts, uniforms, _walk_arrays(memory_size, len(starts)))
        for walked in both_pair_tables(g)
    )
    memory, first, _ = dense
    assert all(map(np.array_equal, dense, by_search))
    gapped = 0
    for k, start in enumerate(starts.tolist()):
        expected = run_walk(g, w, start, memory_size, replay(uniforms[k]))
        assert memory[:, k].tolist() == expected
        assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
        gapped += len(_gapped_tabu_steps(g, expected))
    assert not first.all()  # some step was blocked and revisited
    assert gapped == 0 if memory_size == 5 else gapped > 10


def count_merges(monkeypatch) -> list:
    """Patch the merge form of _search_in_order with a wrapper that records
    the table length of each call, and return the list it appends to."""
    tables = []
    merge = graph._merge_in_order

    def counting(keys, q, b):
        tables.append(len(keys) - q)
        return merge(keys, q, b)

    monkeypatch.setattr(graph, "_merge_in_order", counting)
    return tables


@pytest.mark.parametrize(
    "shape, agents, memory_size",
    [("karate", agents, memory_size) for agents in (1000, 3000) for memory_size in (4, 6)]
    + [(shape, 200, memory_size) for shape in ("star", "triangle") for memory_size in range(2, 6)],
)
def test_csr_walks_match_run_walk_in_large_batches(monkeypatch, shape, agents, memory_size):
    # At least 3x as many agents as slots, so the pick takes the merge form
    # of _search_in_order, and so do the pair lookups in the sorted pair-key
    # table (Graph.slots_of): the tabu's of steps 3 to memory_size - 1, and
    # the one of the last node's older pairs after the last step, which
    # has none to look up at memory 2.
    g = {
        "karate": lambda: karate()[0],
        "star": lambda: pairs_graph(9, [(0, v) for v in range(1, 9)]),
        "triangle": triangle,
    }[shape]()
    assert agents >= 3 * len(g.neighbors)
    rng = np.random.default_rng(agents + memory_size)
    w = rng.integers(0, 1000, size=g.edge_count)
    starts = rng.integers(0, g.node_count, size=agents)
    uniforms = rng.random((agents, memory_size - 1))
    merged = count_merges(monkeypatch)
    walks = []
    for walked in both_pair_tables(g):
        merged.clear()
        walks.append(
            _csr_walks(walked, _slot_masses(g, w), starts, uniforms, _walk_arrays(memory_size, agents))
        )
        # the pick searches the 2m-slot prefix, slots_of the 2m + 1 sorted keys
        assert merged.count(len(g.neighbors)) == memory_size - 1  # every pick
        assert merged.count(len(g.neighbors) + 1) == (walked.sorted_keys is not None) * max(0, memory_size - 2)
    (memory, first, _), by_search = walks
    assert all(map(np.array_equal, walks[0], by_search))
    for k, start in enumerate(starts.tolist()):
        expected = run_walk(g, w, start, memory_size, replay(uniforms[k]))
        assert memory[:, k].tolist() == expected
        assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]


def _integer_points(total):
    """The uniforms j / total, j < total, whose product with total is j."""
    return [j / total for j in range(total) if j / total * total == j]


def test_csr_walks_match_run_walk_where_u_times_t_is_an_integer():
    # Every node has degree >= 2, so the first step always draws; the
    # second step, with the node just left tabu, draws with the first
    # uniform spent. Each (start, first move, second pick) combination is
    # fed uniforms at the exact integer points of its allowed mass.
    g = pairs_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
    w = np.array([2, 0, 5, 1, 3, 0, 4], dtype=np.int64)
    mass = (1 + w[g.edge_ids]).tolist()
    indptr = g.indptr.tolist()
    starts, rows = [], []
    for start in range(g.node_count):
        for first_u in _integer_points(sum(mass[indptr[start] : indptr[start + 1]])):
            _, via = run_walk(g, w, start, 2, replay([first_u]))
            allowed = [
                mass[s] for s in range(indptr[via], indptr[via + 1]) if g.neighbors[s] != start
            ]
            for second_u in _integer_points(sum(allowed)):
                starts.append(start)
                rows.append([first_u, second_u])
    assert sum(u > 0 for row in rows for u in row) > 100
    memory, first, _ = _csr_walks(
        g, _slot_masses(g, w), np.array(starts, dtype=np.int64), np.array(rows), _walk_arrays(3, len(starts))
    )
    for k, (start, row) in enumerate(zip(starts, rows)):
        expected = run_walk(g, w, start, 3, replay(row))
        assert memory[:, k].tolist() == expected
        assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]


def test_csr_walks_skip_tabu_slots_at_the_pick_boundary():
    # Walk x -> L -> x -> c -> d (memory 6). L is a leaf, so the walk comes
    # back to x with the tabu relaxed, and x is then an older node twice.
    # At d the tabu is the twin d -> c plus d -> x from both older copies of
    # x: sorted, the copy of d -> x becomes an empty entry between the two
    # real tabu slots. d's row is f, x, g, c, e with masses 2, 3, 1, 4, 2,
    # so the allowed mass before the tabu slot of x is 2 and before that of
    # c is 3, out of T = 5. The last uniform runs over every u = j / T and
    # (j + 1/2) / T: floor(r) + 1 meets the allowed mass before each tabu
    # slot, is one more and one less.
    x, leaf, c, d, f, g_, e = range(7)
    g = pairs_graph(7, [(x, leaf), (x, c), (d, f), (x, d), (d, g_), (c, d), (d, e)])
    assert neighbor_lists(g)[d] == [f, x, g_, c, e]
    w = np.array([0, 5, 1, 2, 0, 3, 1], dtype=np.int64)
    total = 5
    last = [j / total for j in range(total)] + [(j + 0.5) / total for j in range(total)]
    rows = np.array([[0.0, 0.0, u] for u in last])
    memory, first, _ = _csr_walks(g, _slot_masses(g, w), np.full(len(rows), x), rows, _walk_arrays(6, len(rows)))
    picks = set()
    for k, row in enumerate(rows):
        expected = run_walk(g, w, x, 6, replay(row))
        assert expected[:5] == [x, leaf, x, c, d]
        assert memory[:, k].tolist() == expected
        assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
        picks.add(expected[5])
    assert picks == {f, g_, e}


@pytest.mark.parametrize("memory_size", [2, 3, 4])
@pytest.mark.parametrize(
    "g",
    [
        pairs_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        path_graph(5),
        pairs_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    ],
    ids=["star", "path", "spider"],
)
def test_csr_walks_first_two_steps_match_run_walk(g, memory_size):
    # Step 1 searches the row with no tabu; step 2's only tabu is the slot
    # back to the start. From a leaf (an end of the path) step 1 is forced
    # and spends no uniform; a step 2 at a leaf is blocked and revisits,
    # and one at a node of degree 2 is forced. Step 3 then reads the
    # uniform step 2 left unspent: at the star's hub after a blocked step
    # 2, and at the spider's hub after 4 -> 3 -> 0.
    w = np.array([3, 0, 7, 1], dtype=np.int64)
    grid = [0.0, 0.2, 0.5, 0.8, 1 - 2**-53]
    rows = [list(row) for row in product(grid, repeat=3)]
    starts = np.repeat(np.arange(g.node_count), len(rows))
    uniforms = np.array(rows * g.node_count)[:, : memory_size - 1]
    memory, first, _ = _csr_walks(g, _slot_masses(g, w), starts, uniforms, _walk_arrays(memory_size, len(starts)))
    for k, start in enumerate(starts.tolist()):
        expected = run_walk(g, w, start, memory_size, replay(uniforms[k]))
        assert memory[:, k].tolist() == expected
        assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
    assert len(set(memory[-1].tolist())) > 2  # the draws reach several slots
    if memory_size >= 3:
        assert not first[2].all()  # some step 2 was blocked


def _step_3_kinds(g, walk):
    """What step 3 of a walk of four or more nodes met: "leaf return" when
    step 2 was blocked at a leaf and came back to the start, so the start
    has no slot in the current row; "blocked" when the twin and the
    start's slot cover the row of a node of degree 2; "forced" when one
    candidate is left; "draw past two" when the draw runs over a row that
    holds both tabu slots."""
    row = neighbor_lists(g)[walk[2]]
    candidates = [v for v in row if v not in walk[:2]]
    kinds = set()
    if walk[2] == walk[0]:
        kinds.add("leaf return")
    if not candidates and len(row) == 2:
        kinds.add("blocked")
    if len(candidates) == 1:
        kinds.add("forced")
    if len(candidates) > 1 and walk[0] in row:
        kinds.add("draw past two")
    return kinds


@pytest.mark.parametrize("memory_size", [4, 5])
@pytest.mark.parametrize(
    "g, kinds",
    [
        (pairs_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), {"leaf return"}),
        (path_graph(5), {"leaf return", "forced"}),
        (pairs_graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), {"leaf return", "forced"}),
        (triangle(), {"blocked"}),
        (
            pairs_graph(5, [(0, 2), (0, 1), (2, 3), (1, 2), (2, 4)]),
            {"leaf return", "blocked", "forced", "draw past two"},
        ),
    ],
    ids=["star", "path", "spider", "triangle", "fan"],
)
def test_csr_walks_first_three_steps_match_run_walk(g, kinds, memory_size):
    # Step 3's tabu is the twin of step 2's slot plus the start's slot in
    # the current row, which is missing after step 2 was blocked at a leaf
    # (the star's hub after hub -> leaf -> hub). At a node of degree 2 the
    # two can cover the row (the triangle), and the step is blocked and
    # revisits. A forced step 3 (the path's 0 -> 1 -> 2 -> 3, the spider's
    # 1 -> 0 -> 3 -> 4) spends no uniform, and step 4 reads it. On the fan
    # a step 3 at node 2 can draw over a row with both tabu slots in it.
    w = np.array([3, 0, 7, 1, 2], dtype=np.int64)[: g.edge_count]
    grid = [0.0, 0.2, 0.5, 0.8, 1 - 2**-53]
    rows = [list(row) for row in product(grid, repeat=memory_size - 1)]
    starts = np.repeat(np.arange(g.node_count), len(rows))
    uniforms = np.array(rows * g.node_count)
    met = set()
    for walked in both_pair_tables(g):
        memory, first, _ = _csr_walks(
            walked, _slot_masses(g, w), starts, uniforms, _walk_arrays(memory_size, len(starts))
        )
        for k, start in enumerate(starts.tolist()):
            expected = run_walk(g, w, start, memory_size, replay(uniforms[k]))
            assert memory[:, k].tolist() == expected
            assert first[:, k].tolist() == [node not in expected[:i] for i, node in enumerate(expected)]
            met |= _step_3_kinds(g, expected)
        assert len(set(memory[3].tolist())) > 1
    assert met == kinds


def test_default_walks_never_sort_tabu_columns(monkeypatch):
    # Steps 1 to 3 are closed forms, so a default karate run (memory 4)
    # never reaches the general tabu path; memory 5 does.
    def refuse(a):
        raise AssertionError("_sort_columns called")

    monkeypatch.setattr(exploration, "_sort_columns", refuse)
    g, _ = karate()
    cfg = ExplorationConfig.for_size(g.node_count, g.edge_count, seed=3)
    assert cfg.memory_size == 4
    assert explore(g, cfg).generations_run > 10
    with pytest.raises(AssertionError, match="_sort_columns called"):
        explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=3, memory_size=5))


@pytest.mark.parametrize("memory_size", [2, 3, 4, 6])
def test_explore_looks_each_pair_up_once(monkeypatch, memory_size):
    # A step's pick is the slot of the pair it walks, so of a report's
    # M(M - 1) / 2 pairs only the (M - 1)(M - 2) / 2 that are not
    # consecutive reach Graph.slots_of, each once: the tabu's lookups and
    # the last node's after the last step. One generation on karate.
    looked_up = []
    slots_of = graph.Graph.slots_of

    def counting(self, u, v):
        looked_up.append(np.broadcast(u, v).size)
        return slots_of(self, u, v)

    monkeypatch.setattr(graph.Graph, "slots_of", counting)
    g, _ = karate()
    cfg = ExplorationConfig.for_size(g.node_count, g.edge_count, memory_size=memory_size, max_generations=1)
    assert explore(g, cfg).generations_run == 1
    assert sum(looked_up) == cfg.agent_count * (memory_size - 1) * (memory_size - 2) // 2


def test_merge_form_runs_only_for_large_batches(monkeypatch):
    # Default karate (272 agents, 156 slots) and a dense-sweep-shaped run
    # (160 agents on 160 nodes, ~4.5k edges) search the pick in the search
    # form. A components-shaped graph (two sparse planted 2x16 parts, a hub
    # on 9 K4 cliques and an isolated node) runs 816 agents per component,
    # 2,448 in all against 494 slots, and picks in the merge form.
    merged = count_merges(monkeypatch)
    g, _ = karate()
    assert explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=3)).generations_run > 10
    dense, _ = connected_planted(2, 80, 0.7, 0.02, seed=1)
    assert 4000 < dense.edge_count < 5000
    cfg = ExplorationConfig.for_size(dense.node_count, dense.edge_count, agent_count=160, seed=3)
    assert explore(dense, cfg).generations_run > 1
    assert merged == []
    parts = [connected_planted(2, 16, 0.3, 0.02, seed=s)[0] for s in (1, 2)]
    pairs = [(u + 32 * i, v + 32 * i) for i, part in enumerate(parts) for u, v in part.edges]
    hub, cliques = 64, [range(65 + 4 * c, 69 + 4 * c) for c in range(9)]
    pairs += [(hub, u) for clique in cliques for u in clique]
    pairs += [pair for clique in cliques for pair in combinations(clique, 2)]
    components = pairs_graph(102, pairs)  # node 101 is isolated
    cfg = ExplorationConfig.for_size(components.node_count, components.edge_count, seed=3, max_generations=3)
    assert cfg.agent_count == 816 and components.components.community_count == 4
    assert cfg.agent_count > len(components.neighbors)  # so the three components' Q > 3T
    explore(components, cfg)
    assert len(merged) == 3 * (cfg.memory_size - 1)  # every pick of three generations


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_rekeyed_generator_is_a_fresh_one(seed):
    # explore() re-keys one generator per run; every generation must read
    # the stream a Philox built for (seed, generation) reads, whatever the
    # generations before it left in the counter and the word buffer.
    streams = _generation_streams(seed)
    for generation in (0, 1, 999, 1, 0):
        fresh = np.random.Philox(key=np.array([seed, generation], dtype=np.uint64))
        philox = streams(generation)
        assert np.array_equal(philox.random_raw(7), fresh.random_raw(7))
        philox.random_raw(2)  # 9 words: the buffer still holds 3


def test_explore_builds_at_most_two_generators(monkeypatch):
    # One for the walk draws, re-keyed every generation, and one per
    # component group for generation 0's start orders; every run here is
    # one group.
    built = []
    philox = exploration._philox

    def counting_philox(seed, generation):
        built.append((seed, generation))
        return philox(seed, generation)

    monkeypatch.setattr(exploration, "_philox", counting_philox)
    g, _ = karate()
    result = explore(g, ExplorationConfig.for_size(g.node_count, g.edge_count, seed=5))
    assert result.generations_run > 10
    assert len(built) <= 2
    built.clear()
    paths = [(v, v + 1) for v in range(0, 150) if v % 3 != 2]  # 50 three-node paths
    g = pairs_graph(150, paths)
    assert len(g.components.members()) == 50
    result = explore(g, ExplorationConfig(agent_count=4, memory_size=3, seed=9))
    assert min(result.component_generations) >= 1
    assert built == [(9, 0), (9, 0)]


@pytest.mark.parametrize("per_group, groups", [(50, 1), (20, 3), (7, 8)])
def test_explore_builds_one_start_order_generator_per_group(monkeypatch, per_group, groups):
    # With room for only per_group components per generation, each group's
    # generation 0 builds its own start-order generator: 1 + groups in all.
    built = []
    philox = exploration._philox

    def counting_philox(seed, generation):
        built.append((seed, generation))
        return philox(seed, generation)

    cfg = ExplorationConfig(agent_count=4, memory_size=3, seed=9)
    monkeypatch.setattr(exploration, "MAX_GENERATION_CELLS", per_group * cfg.agent_count * cfg.memory_size**2)
    monkeypatch.setattr(exploration, "_philox", counting_philox)
    paths = [(v, v + 1) for v in range(0, 150) if v % 3 != 2]  # 50 three-node paths
    explore(pairs_graph(150, paths), cfg)
    assert built == [(9, 0)] * (1 + groups)


def test_walk_uniforms_layout():
    # Lane k of generation t is row k of Philox(key=[seed, t]) read as
    # (agents, draws), u = (word >> 11) * 2**-53: the row does not depend on
    # the agent count.
    words = np.random.Philox(key=[7, 3]).random_raw(5 * 4).reshape(5, 4)
    assert (_walk_uniforms(_philox(7, 3), 5, 4) == (words >> 11) * 2.0**-53).all()
    assert (_walk_uniforms(_philox(7, 3), 2, 4) == _walk_uniforms(_philox(7, 3), 5, 4)[:2]).all()
    assert not (_walk_uniforms(_philox(7, 4), 5, 4) == _walk_uniforms(_philox(7, 3), 5, 4)).any()


def test_walk_uniforms_keep_every_seed_bit():
    # A key given as a Python list passes words at or above 2**63 through
    # float64, which maps 2**63 + 1 to 2**63 and 2**64 - 1 to 0.
    rows = [_walk_uniforms(_philox(seed, 0), 1, 8)[0] for seed in (0, 2**63, 2**63 + 1, 2**64 - 1)]
    assert len({row.tobytes() for row in rows}) == 4
    assert all(((0 <= row) & (row < 1)).all() for row in rows)


@pytest.mark.parametrize("table_size", [0, 1, 7, 40])
@pytest.mark.parametrize("shape", [(0,), (1,), (2,), (13,), (40,), (272,)])
def test_search_in_order_is_searchsorted(table_size, shape):
    rng = np.random.default_rng(table_size * 31 + shape[0])
    for _ in range(20):
        # few distinct keys, so the table repeats them; queries fall below,
        # between, on and above them
        table = np.sort(rng.integers(0, 6, size=table_size))
        queries = rng.integers(-1, 8, size=shape)
        got = _search_in_order(table, queries)
        assert got.shape == shape
        assert np.array_equal(got, np.searchsorted(table, queries))


@pytest.mark.parametrize("table_size", [0, 1, 7, 40, 500])
def test_search_in_order_merge_form_is_searchsorted(monkeypatch, table_size):
    # 1,000 to 5,000 queries, and the rule's edge at 3x and 3x + 1 the
    # table: the merge form exactly when they number more than 3x the
    # table, the search form otherwise (500 entries, up to 1,500 queries).
    # Values repeat, and queries fall below, between, on and above the
    # entries, negative ones included.
    merged = count_merges(monkeypatch)
    rng = np.random.default_rng(table_size)
    sizes = [*rng.integers(1000, 5001, size=18), 3 * table_size + 1, max(1000, 3 * table_size)]
    for size in sizes:
        table = np.sort(rng.integers(-50, 50, size=table_size))
        queries = rng.integers(-60, 60, size=size)
        before = len(merged)
        got = _search_in_order(table, queries)
        assert np.array_equal(got, np.searchsorted(table, queries))
        assert len(merged) - before == (size > 3 * table_size)


def test_search_in_order_one_query(monkeypatch):
    # One query, the smallest batch, takes the merge form into an empty
    # table only. It packs with b = 1 index bit (the entries are packed
    # too, so one query needs one bit): values within +-2**61 pack, and a
    # value at the bound takes the search form.
    merged = count_merges(monkeypatch)
    for query in (-(2**61) + 1, -1, 0, 5, 2**61 - 1, -(2**61), 2**61):
        assert _search_in_order(np.array([], dtype=np.int64), np.array([query])).tolist() == [0]
        for table in (np.array([0]), np.array([-4, 0, 4])):
            assert np.array_equal(_search_in_order(table, np.array([query])), np.searchsorted(table, [query]))
    assert merged == [0] * 5


@pytest.mark.parametrize("size", [4, 7, 1000])
def test_search_in_order_near_the_packing_bound(monkeypatch, size):
    # A batch with a query or a table entry at or beyond +-2**(62 - b),
    # b = size.bit_length(), does not pack and takes the search form;
    # queries near +-2**60 always do. A batch just inside the bound takes
    # the merge form. b is 3 for 4 and 7 queries, and 10 for 1,000.
    merged = count_merges(monkeypatch)
    bound = 2 ** (62 - size.bit_length())
    rng = np.random.default_rng(size)
    for sign in (1, -1):
        near = sign * (2**60 + rng.integers(-3, 4, size=size))
        near[0] = sign * 2**60
        inside = rng.integers(-bound + 1, bound, size=size)
        inside[:2] = -bound + 1, bound - 1
        cases = [([0], near), ([sign * (bound - 1)], inside), ([sign * bound], inside)]
        for table, queries in cases:
            table = np.array(table)
            assert np.array_equal(_search_in_order(table, queries), np.searchsorted(table, queries))
    assert merged == [1, 1]  # the batches just inside the bound


@pytest.mark.parametrize("rows", range(7))
def test_sort_columns_is_sort_along_axis_0(rows):
    rng = np.random.default_rng(rows)
    no_slot = 9  # the kernel's empty entry, larger than every slot
    for _ in range(20):
        a = rng.integers(0, 4, size=(rows, 11))
        a[rng.random(a.shape) < 0.3] = no_slot
        expected = np.sort(a, axis=0)
        _sort_columns(a)
        assert np.array_equal(a, expected)
