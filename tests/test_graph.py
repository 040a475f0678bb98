import dataclasses
import logging
import random
import re
from importlib.resources import files
from itertools import combinations

import numpy as np
import pytest

from commwalker import (
    Graph,
    Partition,
    connected_components,
    load_edge_list,
    load_gml,
    load_labels,
    to_edge_list,
)
from commwalker import gml as gml_module
from commwalker import graph as graph_module
from commwalker.errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    EmptyGraphError,
    GmlParseError,
    MalformedLineError,
    SelfLoopError,
    UnknownNodeError,
)

from _helpers import (
    barbell6,
    induced_subgraph,
    neighbor_lists,
    pairs_graph,
    random_connected_graph,
    reachability_components,
    sorted_pair_table,
)


def test_load_edge_list_path_graph():
    g = load_edge_list("a b\nb c\n")
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.nodes == ["a", "b", "c"]
    assert g.edges == [(0, 1), (1, 2)]


def test_load_edge_list_skips_comments_and_blanks():
    g = load_edge_list("# comment\n1 2\n\n2 3\n1 3\n")
    assert g.node_count == 3
    assert g.edge_count == 3


def test_load_edge_list_self_loop():
    with pytest.raises(SelfLoopError):
        load_edge_list("x x\n")


def test_load_edge_list_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        load_edge_list("a b\nb a\n")


def test_load_edge_list_malformed_line():
    with pytest.raises(MalformedLineError):
        load_edge_list("a b c\n")


def test_load_edge_list_empty():
    with pytest.raises(EmptyGraphError):
        load_edge_list("# nothing here\n")


def test_csr_rows_consistent_with_edges():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def graphs(draw):
        n = draw(st.integers(2, 10))
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
        flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return pairs_graph(n, [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(graphs())
    @hypothesis.example(pairs_graph(3, []))  # m = 0: the table is its sentinels
    def check(g):
        n, m = g.node_count, g.edge_count
        assert g.indptr[0] == 0 and g.indptr[-1] == 2 * m
        owner = np.repeat(np.arange(n), np.diff(g.indptr))
        for u in range(n):
            row = g.edge_ids[g.indptr[u] : g.indptr[u + 1]].tolist()
            assert row == [e for e, edge in enumerate(g.edges) if u in edge]
        for u, v, e in zip(owner.tolist(), g.neighbors.tolist(), g.edge_ids.tolist()):
            assert g.edges[e] == (min(u, v), max(u, v))
        # ends() gives the same edges, as int64 arrays indexed by edge id
        lo, hi = g.ends()
        assert lo.dtype == hi.dtype == np.int64 and lo.shape == hi.shape == (m,)
        assert list(zip(lo.tolist(), hi.tolist())) == g.edges
        assert (g.edge_ids[g.twins] == g.edge_ids).all()
        assert (owner[g.twins] == g.neighbors).all() and (g.neighbors[g.twins] == owner).all()
        assert (g.twins[g.twins] == np.arange(2 * m)).all()
        # the sorted pair-key table, as a graph above DENSE_PAIR_CELLS holds
        # it: every slot's key once, ascending, then the sentinels n * n and
        # 2m (no slot)
        assert g.sorted_keys is None and g.slot_by_key is None
        table = sorted_pair_table(g)
        keys, slots = table.sorted_keys, table.slot_by_key
        assert len(keys) == len(slots) == 2 * m + 1
        assert (keys[1:] > keys[:-1]).all() and keys[-1] == n * n
        assert sorted(slots[:-1].tolist()) == list(range(2 * m)) and slots[-1] == 2 * m
        assert (keys[:-1] == (owner * n + g.neighbors)[slots[:-1]]).all()
        # a search of every pair key lands on an entry and finds exactly the edges
        u, v = np.divmod(np.arange(n * n), n)
        at = keys.searchsorted(u * n + v)
        found = keys[at] == u * n + v
        edge_set = set(g.edges)
        assert found.tolist() == [(min(a, b), max(a, b)) in edge_set for a, b in zip(u, v)]
        slot = slots[at[found]]
        assert (owner[slot] == u[found]).all() and (g.neighbors[slot] == v[found]).all()
        # the dense pair table holds, for every pair key, what that search finds
        assert g.slot_of_key.shape == (n * n,)
        assert (g.slot_of_key == np.where(found, slots[at], 2 * m)).all()

    check()


@pytest.mark.parametrize("pair", [(-1, 1), (0, 5), (0, 1.5)], ids=["negative", "past-the-end", "float"])
def test_from_edges_rejects_a_node_id_outside_the_names(pair):
    # unchecked, -1 would index the rows from the end, 5 past them, and
    # 1.5 is no row at all
    with pytest.raises(DanglingEdgeError):
        Graph.from_edges(["a", "b"], [pair])
    assert Graph.from_edges(["a", "b"], [(np.int64(0), 1)]).edges == [(0, 1)]


@pytest.mark.parametrize(
    "pair", [(0, 1, 2), (0,), (), 5, None], ids=["three-ids", "one-id", "no-id", "an-int", "none"]
)
def test_from_edges_rejects_a_pair_that_is_not_two_ids(pair):
    # (0, 1, 2) and (1,) hold four ids between them, as two pairs would;
    # 5 and None hold no ids at all, so no id in them is at fault
    with pytest.raises(DanglingEdgeError, match=re.escape(f"edge {pair!r} is not a pair of node ids")):
        Graph.from_edges(["a", "b", "c"], [(0, 1), pair, (1,)])


def test_from_edges_refuses_repeated_names():
    with pytest.raises(MalformedLineError, match="^node names are not unique$"):
        Graph.from_edges(["a", "b", "a"], [(0, 1)])


def test_file_readers_build_without_from_edges(monkeypatch):
    # the readers check their pairs once, as one array, and build straight
    # from it; a reader sent back through from_edges's per-pair pass would
    # pay for it in every workload's setup
    def refuse(cls, names, edge_pairs):
        raise AssertionError("a file reader called Graph.from_edges")

    monkeypatch.setattr(Graph, "from_edges", classmethod(refuse))
    karate = load_edge_list((files("commwalker") / "data" / "karate.edges").read_text())
    assert (karate.node_count, karate.edge_count) == (34, 78)
    g, _ = load_gml(
        "graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ]"
        " edge [ source 0 target 1 ] edge [ source 1 target 0 ] edge [ source 1 target 2 ] ]"
    )
    assert g.edges == [(0, 1), (1, 2)]


def test_graph_arrays_are_read_only():
    # every array a graph holds, with either pair table: the dense one, the
    # sorted one the test helper swaps in, and the sorted one a graph above
    # DENSE_PAIR_CELLS is built with
    csr = {"indptr", "neighbors", "edge_ids", "twins"}
    builds = [
        (barbell6(), csr | {"slot_of_key"}),
        (sorted_pair_table(barbell6()), csr | {"sorted_keys", "slot_by_key"}),
        (ring_with_chords(1100), csr | {"sorted_keys", "slot_by_key"}),
    ]
    for g, held in builds:
        arrays = {f.name: getattr(g, f.name) for f in dataclasses.fields(g)}
        arrays = {name: array for name, array in arrays.items() if isinstance(array, np.ndarray)}
        assert arrays.keys() == held
        for array in arrays.values():
            with pytest.raises(ValueError):
                array[0] = 1
    g = barbell6()
    assert g == g and g != barbell6()  # identity, never an elementwise array compare


def test_dense_pair_table_only_up_to_its_cell_limit(monkeypatch):
    # 6 nodes have 36 pair keys: a table of 36 cells is built, one of 35
    # is not, and a graph holds the sorted table only then.
    pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]
    monkeypatch.setattr(graph_module, "DENSE_PAIR_CELLS", 36)
    g = pairs_graph(6, pairs)
    assert g.slot_of_key is not None
    assert g.sorted_keys is None and g.slot_by_key is None
    monkeypatch.setattr(graph_module, "DENSE_PAIR_CELLS", 35)
    g = pairs_graph(6, pairs)
    assert g.slot_of_key is None
    assert len(g.sorted_keys) == len(g.slot_by_key) == 2 * len(pairs) + 1


def ring_with_chords(n: int) -> Graph:
    return pairs_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 7) % n) for i in range(0, n, 3)])


@pytest.mark.parametrize(
    "build, dense",
    [
        (barbell6, True),
        (lambda: sorted_pair_table(barbell6()), False),
        (lambda: ring_with_chords(1100), False),
    ],
    ids=["small", "sorted-table", "above-dense-limit"],
)
def test_slot_lookups_match_the_csr_rows(build, dense):
    # slots_of and slot_counts against a dict of (u, v) -> slot read from
    # the CSR rows, for keys that are edges, keys that are not and repeats
    g = build()
    n, no_slot = g.node_count, 2 * g.edge_count
    assert (g.slot_of_key is not None) == dense
    slot = {(u, g.neighbors[s]): s for u in range(n) for s in range(g.indptr[u], g.indptr[u + 1])}
    rng = np.random.default_rng(0)
    edges = [u * n + v for u, v in slot]
    others = rng.integers(0, n * n, 3 * len(edges)).tolist() + [u * n + u for u in range(0, n, 5)]
    keys = np.array(edges + others + rng.choice(edges + others, len(edges)).tolist())
    rng.shuffle(keys)
    expected = [slot.get(divmod(k, n), no_slot) for k in keys.tolist()]
    assert no_slot in expected and len(set(expected)) < len(keys)
    assert g.slots_of(keys).tolist() == expected
    counts = np.bincount(expected, minlength=no_slot + 1)[:-1]
    assert g.slot_counts(keys.copy()).tolist() == counts.tolist()
    assert g.slots_of(keys[:0]).tolist() == [] and g.slot_counts(keys[:0]).tolist() == [0] * no_slot


def test_edge_list_round_trip():
    g = load_edge_list("a b\nb c\na c\nc d\nd e\n")
    h = load_edge_list(to_edge_list(g))
    assert h.nodes == g.nodes
    neighbor_names = lambda gr: {
        gr.nodes[u]: sorted(gr.nodes[v] for v in row) for u, row in enumerate(neighbor_lists(gr))
    }
    assert neighbor_names(h) == neighbor_names(g)


def gml_edge(a: str, b: str) -> Graph:
    g, _ = load_gml(f'graph [ node [ id 0 label "{a}" ] node [ id 1 label "{b}" ] '
                    "edge [ source 0 target 1 ] ]")
    return g


def test_edge_list_rejects_an_edge_read_back_as_a_comment():
    # one '#' name is written second; with two, the line would be a comment
    assert load_edge_list(to_edge_list(gml_edge("#a", "b"))).edges == [(0, 1)]
    with pytest.raises(MalformedLineError, match="'#a'-'#b'"):
        to_edge_list(gml_edge("#a", "#b"))


def test_edge_list_rejects_an_isolated_node():
    # no edge-list line can carry a node of degree 0: read back, it would
    # be gone
    g, _ = load_gml("graph [ node [ id 0 ] node [ id 1 ] node [ id 2 ] node [ id 3 ] edge [ source 0 target 2 ] ]")
    with pytest.raises(MalformedLineError, match="node '1' has no edge"):
        to_edge_list(g)


@pytest.mark.parametrize("name", ["", "a b", "a\tb", " a"])
def test_edge_list_rejects_a_name_that_is_not_one_token(name):
    with pytest.raises(MalformedLineError, match="cannot be written"):
        to_edge_list(gml_edge(name, "c"))


def test_load_gml_minimal():
    g, truth = load_gml("graph [ node [ id 0 ] node [ id 1 ] edge [ source 0 target 1 ] ]")
    assert g.node_count == 2
    assert g.edge_count == 1
    assert truth is None


def test_load_gml_with_values_gives_truth():
    text = """
    graph [
      node [ id 0 value 0 ]
      node [ id 1 value 0 ]
      node [ id 2 value 1 ]
      edge [ source 0 target 1 ]
      edge [ source 1 target 2 ]
    ]
    """
    g, truth = load_gml(text)
    assert truth is not None
    assert truth.community_count == 2
    assert truth.community_of == [0, 0, 1]


def test_load_gml_partial_values_no_truth():
    g, truth = load_gml(
        "graph [ node [ id 0 value 1 ] node [ id 1 ] edge [ source 0 target 1 ] ]"
    )
    assert truth is None


def test_load_gml_dangling_edge():
    with pytest.raises(DanglingEdgeError):
        load_gml("graph [ node [ id 0 ] edge [ source 0 target 9 ] ]")


def test_load_gml_unbalanced_brackets():
    with pytest.raises(GmlParseError):
        load_gml("graph [ node [ id 0 ")


def test_load_gml_missing_id():
    with pytest.raises(GmlParseError):
        load_gml("graph [ node [ label \"a\" ] ]")


@pytest.mark.parametrize(
    "text, message",
    [
        ("graph [ node 5 ]", "expected '[' after node/edge"),
        ("graph [ node [ id 0 graphics [ fill 1 ", "unbalanced brackets"),
        ("graph [ node [ id 0 ] node [ id 0 label \"a\" ] ]", "duplicate node id 0"),
        ("graph [ node [ id 0 label \"a\" ] node [ id 1 label \"a\" ] ]", "duplicate node name 'a'"),
    ],
    ids=["entry-without-bracket", "skipped-block-never-closed", "duplicate-id", "duplicate-name"],
)
def test_load_gml_refuses(text, message):
    with pytest.raises(GmlParseError, match=f"^{re.escape(message)}$"):
        load_gml(text)


def test_load_gml_skips_a_block_nested_in_a_skipped_block():
    g, _ = load_gml(
        "graph [ node [ id 0 graphics [ line [ point [ x 1 ] ] w 2 ] label \"a\" ]"
        " node [ id 1 ] edge [ source 0 target 1 ] ]"
    )
    assert g.nodes == ["a", "1"] and g.edges == [(0, 1)]


def test_load_gml_duplicate_edges_collapsed(caplog):
    text = """
    graph [
      node [ id 0 ] node [ id 1 ] node [ id 2 ]
      edge [ source 0 target 1 ]
      edge [ source 1 target 0 ]
      edge [ source 1 target 2 ]
      edge [ source 2 target 2 ]
    ]
    """
    with caplog.at_level(logging.WARNING, logger="commwalker.graph"):
        g, _ = load_gml(text)
    assert g.edge_count == 2
    assert any("collapsed 2" in rec.getMessage() for rec in caplog.records)


def test_load_gml_labels_and_graph_attributes():
    text = """
    Creator "someone"
    graph [
      directed 0
      node [ id 10 label "alpha" graphics [ x 1 y 2 ] ]
      node [ id 20 label "beta" ]
      edge [ source 10 target 20 weight 3 ]
    ]
    """
    g, _ = load_gml(text)
    assert g.nodes == ["alpha", "beta"]
    assert g.edge_count == 1


def test_load_gml_string_values_accepted():
    text = """
    graph [
      node [ id 0 value "l" ] node [ id 1 value "n" ] node [ id 2 value "l" ]
      edge [ source 0 target 1 ] edge [ source 1 target 2 ]
    ]
    """
    _, truth = load_gml(text)
    assert truth.community_count == 2
    assert truth.community_of == [0, 1, 0]


@pytest.mark.parametrize(
    "text, names",
    [
        ("graph [ node [ id a#b ] ]", ["a#b"]),
        ('graph [ node [ id 0 #label "x" ]\n ] ]', ["0"]),
        ('graph [ node [ id 0 ]# node [ id 1 ]\n ]', ["0"]),
        ('graph [ node [ id 0 label "a\nb" ] ]', ["a\nb"]),
        ('graph [ node [ id 0 label "" ] ]', [""]),
        ('graph [ node [ id 0 label "a ]', GmlParseError),
        ('graph [ node [ id\u20030\x85label "x" ] ]', ["x"]),
        ("graph [ node [ id 0 graphics [ x ] label y ] ]", ["y"]),
        ('Creator "c" node [ id 9 ] graph [ node [ id 0 ] ] node [ id 1 ] [', ["0"]),
    ],
    ids=["hash-inside-word", "hash-starts-comment", "comment-after-bracket",
         "string-spans-lines", "empty-label", "lone-quote", "unicode-space",
         "nested-block-skipped", "outside-graph-ignored"],
)
def test_gml_token_rules(text, names):
    if names is GmlParseError:
        with pytest.raises(GmlParseError, match="unterminated string"):
            load_gml(text)
    else:
        assert load_gml(text)[0].nodes == names


@pytest.mark.parametrize(
    "text",
    [
        'graph [ node [ id 0 ] node [ id 1 label "b" ] edge [ source 0 target 1 ] ]' + " " * 10**6,
        'graph [ node [ id 0 ] #' + "x" * 10**6 + '\n node [ id 1 label "b" ] edge [ source 0 target 1 ] ]',
    ],
    ids=["trailing-spaces", "long-comment"],
)
def test_load_gml_reads_a_long_run_in_linear_time(text):
    # a tokenizer that rescans the rest of the text at each position would
    # take minutes on a million characters
    g, truth = load_gml(text)
    assert g.nodes == ["0", "b"]
    assert g.edges == [(0, 1)]
    assert truth is None


def _counting(monkeypatch, name):
    """The argument tuples of every later call of gml_module.name."""
    calls = []
    real = getattr(gml_module, name)
    monkeypatch.setattr(gml_module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize(
    "entry",
    [
        lambda i: f"node [ id {i} graphics [ x 1 y 2 ] ]",
        lambda i: f"node [ id {i} ]" if i % 2 else f'node [ label "n{i}" id {i} ]',
        lambda i: f"node [ id {i} ]" if (i * 7919) % 5 < 2 else f'node [ id {i} label "n{i}" ]',
    ],
    ids=["no-entry-plain", "runs-of-1", "runs-of-1-to-4"],
)
def test_load_gml_checks_for_runs_at_a_doubling_count(monkeypatch, entry):
    # a check for a run costs about what _read_block takes for a few
    # entries, so entries outside long runs must not each pay for one
    checks = _counting(monkeypatch, "_run_end")
    n = 1024
    g, _ = load_gml("graph [ " + " ".join(map(entry, range(n))) + " ]")
    assert g.node_count == n
    assert 1 < len(checks) <= n.bit_length()


@pytest.mark.parametrize("prefix", [0, 1, 10, 100, 300])
def test_load_gml_finds_a_run_after_entries_outside_runs(monkeypatch, prefix):
    # the run after `prefix` entries with a nested block is found within as
    # many entries again, so _read_block reads fewer than 2 * prefix + 1
    # entries, and a run from the first entry takes one check
    checks = _counting(monkeypatch, "_run_end")
    blocks = _counting(monkeypatch, "_read_block")
    n = 1024
    entries = (f"node [ id {i} graphics [ ] ]" if i < prefix else f"node [ id {i} ]" for i in range(n))
    g, _ = load_gml("graph [ " + " ".join(entries) + " ]")
    assert g.nodes == [str(i) for i in range(n)]
    assert len(blocks) - 1 <= 2 * prefix  # the graph block is one
    assert len(checks) <= (2 * prefix).bit_length() + 1
    if not prefix:
        assert len(checks) == 1 and len(blocks) == 1


def test_load_gml_finds_runs_broken_by_odd_entries(monkeypatch):
    # one node in 100 carries a key the others lack; each run of 99 after
    # it is found again, so _read_block reads about one entry per break,
    # not every entry after the first break
    blocks = _counting(monkeypatch, "_read_block")
    n = 3000
    entries = (f"node [ id {i} value 1 ]" if i % 100 == 99 else f"node [ id {i} ]" for i in range(n))
    g, _ = load_gml("graph [ " + " ".join(entries) + " ]")
    assert g.nodes == [str(i) for i in range(n)]
    assert len(blocks) - 1 <= 2 * (n // 100)  # the graph block is one


def test_load_gml_judges_a_run_across_chunk_cuts_as_one(monkeypatch):
    # after `prefix` entries with a nested block, a run of entries that
    # span lines, cut every 1,000 characters, many cuts inside an entry:
    # the run is found once its pieces together outgrow the count, and then
    # _read_block reads only the entry across each cut
    monkeypatch.setattr(gml_module, "GML_CHUNK_CHARS", 1000)
    blocks = _counting(monkeypatch, "_read_block")
    prefix, n = 300, 3000
    entries = (f"node [ id {i} graphics [ ] ]\n" if i < prefix else f"node [\n  id {i}\n]\n" for i in range(n))
    text = "graph [\n" + "".join(entries) + "]\n"
    g, _ = load_gml(text)
    assert g.nodes == [str(i) for i in range(n)]
    assert len(blocks) - 1 <= 2 * prefix + len(text) // 1000


def test_load_gml_holds_one_chunk_of_tokens_at_a_time(monkeypatch):
    # the reader gets its tokens in lists, each from one chunk of text and
    # one line more, so it never holds the token list of the whole text
    sizes = []
    real = gml_module._tokenize_gml

    def recording(text):
        for tokens in real(text):
            sizes.append(len(tokens))
            yield tokens

    monkeypatch.setattr(gml_module, "_tokenize_gml", recording)
    n = 6000
    lines = [f'  node [ id {i:04} label "n{i:04}" ]\n' for i in range(n)]
    lines += [f"  edge [ source {i:04} target {(i * 7 + 1) % n:04} ]\n" for i in range(n)]
    text = "graph [\n" + "".join(lines) + "]\n"
    assert len(text) >= 200_000
    g, _ = load_gml(text)
    assert (g.node_count, g.edge_count) == (n, n)
    # a line holds 7 tokens, so a list that covers GML_CHUNK_CHARS characters
    # of text and one line more holds no more than this many
    most = 7 * (gml_module.GML_CHUNK_CHARS // min(map(len, lines)) + 2)
    assert len(sizes) >= 3
    assert max(sizes) <= most
    assert sum(sizes) == 2 + 7 * 2 * n + 1


def test_load_labels_and_errors():
    g = load_edge_list("a b\nb c\n")
    truth = load_labels("a 0\nb 0\nc 1\n", g)
    assert truth.community_of == [0, 0, 1]
    with pytest.raises(UnknownNodeError):
        load_labels("a 0\nb 0\nc 1\nz 1\n", g)
    with pytest.raises(UnknownNodeError):
        load_labels("a 0\nb 0\n", g)
    with pytest.raises(MalformedLineError):
        load_labels("a 0\na 1\nb 0\nc 1\n", g)
    with pytest.raises(MalformedLineError):  # a name without a label
        load_labels("a 0\nb\nc 1\n", g)


def test_partition_validates_dense_labels():
    with pytest.raises(ValueError):
        Partition(community_of=[0, 2], community_count=3)
    p = Partition.from_labels(["x", "y", "x"])
    assert p.community_of == [0, 1, 0]
    assert p.community_count == 2


def test_connected_components_triangle():
    g = pairs_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert connected_components(g).community_count == 1
    parts = connected_components(g, np.ones(3, dtype=bool))
    assert parts.community_count == 3
    assert parts.community_of == [0, 1, 2]


def test_connected_components_barbell_bridge_removed():
    g = barbell6()
    removed = np.zeros(g.edge_count, dtype=bool)
    removed[g.edges.index((2, 3))] = True
    parts = connected_components(g, removed)
    assert parts.community_count == 2
    assert parts.sizes() == [3, 3]
    assert parts.community_of == [0, 0, 0, 1, 1, 1]


@pytest.mark.parametrize("removed", [[True], [True] * 5], ids=["too-few", "too-many"])
def test_connected_components_needs_one_flag_per_edge(removed):
    # unchecked, one flag for the path's 3 edges raised a bare IndexError
    # and 5 flags had the last 2 ignored
    g = load_edge_list("a b\nb c\nc d\n")
    with pytest.raises(ValueError, match="3 edges"):
        connected_components(g, removed)


def test_component_labels_ordered_by_lowest_node_id():
    g = pairs_graph(6, [(0, 5), (1, 2), (3, 4)])
    parts = connected_components(g)
    assert parts.community_of == [0, 1, 1, 2, 2, 0]


def test_components_match_reachability_oracle_exhaustively():
    graphs = [
        barbell6(),
        pairs_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        pairs_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]
    for g in graphs:
        for bits in range(2 ** g.edge_count):
            removed = [(bits >> e) & 1 == 1 for e in range(g.edge_count)]
            got = connected_components(g, removed)
            want = reachability_components(g, removed)
            assert Partition.from_labels(want).community_of == got.community_of


def test_components_match_reachability_on_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        removed = [rng.random() < 0.4 for _ in range(g.edge_count)]
        got = connected_components(g, removed)
        want = Partition.from_labels(reachability_components(g, removed))
        assert got.community_of == want.community_of


def test_mask_monotonicity_properties():
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 9))
        removed = [False] * g.edge_count
        previous = connected_components(g, removed).community_count
        order = list(range(g.edge_count))
        rng.shuffle(order)
        for eid in order:
            removed[eid] = True
            count = connected_components(g, removed).community_count
            assert 1 <= count <= g.node_count
            assert previous <= count <= previous + 1
            previous = count


def test_induced_subgraph():
    # the test oracle that the batched explore and sweep are pinned to
    g = barbell6()
    sub, orig, edge_ids = induced_subgraph(g, [3, 4, 5])
    assert orig == [3, 4, 5]
    assert sub.node_count == 3
    assert sub.edge_count == 3
    assert sub.nodes == [g.nodes[3], g.nodes[4], g.nodes[5]]
    assert connected_components(sub).community_count == 1
    assert len(edge_ids) == sub.edge_count
    for (u, v), e in zip(sub.edges, edge_ids):
        assert g.edges[e] == (orig[u], orig[v])
    whole, orig, edge_ids = induced_subgraph(g, range(6))
    assert whole is g and orig == list(range(6))
    assert edge_ids == list(range(g.edge_count))
