"""Fuzz tests for the text parsers: arbitrary input either parses or raises
an InputError subclass (exit status 1 at the CLI), never another exception;
a parsed edge list survives a to_edge_list round trip; a random graph
rendered as GML reads back as that graph. The GML tokenizer, load_gml,
load_edge_list and Graph.from_edges give what their references in _helpers
give, results and errors alike; the GML tokenizer and load_gml also with
the chunk size cut to 1, 7 and 64 characters."""

from unittest import mock

import numpy as np
import pytest

from commwalker import gml as gml_module
from commwalker.errors import InputError
from commwalker.gml import _tokenize_gml
from commwalker.graph import (
    Graph,
    Partition,
    load_edge_list,
    load_gml,
    parse_label_lines,
    to_edge_list,
)

from _helpers import (
    reference_edges,
    reference_load_edge_list,
    reference_load_gml,
    reference_tokenize_gml,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(max_examples=300, deadline=None, derandomize=True)

# Short names from a small alphabet, so names repeat (duplicate edges,
# self-loops) and some start with '#', the comment marker.
names = st.text(alphabet="ab#1", min_size=1, max_size=3)
lines = st.one_of(
    st.lists(names, min_size=0, max_size=3).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "\t"]),
)
edge_list_texts = st.one_of(
    st.lists(lines, max_size=12).map("\n".join),
    st.text(max_size=60),
)

# A self-loop or a repeated pair, then a malformed line later on: the
# first of the two in line order is the error.
fault_then_malformed = st.tuples(
    st.lists(lines, max_size=4),
    st.sampled_from(["a a", "1 1", "a b\nb a", "1 a\n a  1 ", "b b\nb a\na b"]),
    st.lists(lines, max_size=3),
    st.sampled_from(["a", "a b 1", " a\t#b 1", "1\x85b"]),
    st.lists(lines, max_size=2),
).map(lambda parts: "\n".join([*parts[0], parts[1], *parts[2], parts[3], *parts[4]]))

# Simple graphs as edge-list text; a line whose first name starts with '#'
# is a comment, so some edges drop out and some texts have none.
simple_edge_lists = st.lists(
    st.tuples(names, names).filter(lambda p: p[0] != p[1]),
    min_size=1,
    max_size=10,
    unique_by=frozenset,
).map(lambda pairs: "".join(f"{u} {v}\n" for u, v in pairs))

gml_tokens = st.sampled_from(
    ["graph", "[", "]", "node", "edge", "id", "label", "value", "source", "target",
     "directed", "graphics", '"a"', '"a b"', '""', '"', "a#b", "0", "1", "2", "#", "\n", "\t", "\u2003"]
)
gml_texts = st.one_of(
    st.lists(gml_tokens, max_size=40).map(" ".join),
    st.text(max_size=60),
)

# Pieces glued with no separator, so that '#' and '"' land inside words,
# right after brackets and strings, and at line ends of every kind.
gml_soups = st.lists(
    st.sampled_from(['"', "#", "[", "]", "a#b", "\r\n", "\n", " ", "\x85", "\x1c", "\u2003", "x",
                     "graph", "node", "id", '"q"']),
    max_size=40,
).map("".join)

# Ids of every kind an edge pair may carry: in range and out of it, bools,
# floats, integers too large for int64, numpy integers and other objects.
edge_ids = st.one_of(
    st.integers(-1, 5),
    st.integers(0, 5).map(np.int64),
    st.sampled_from([True, False, 1.0, 2.5, 2**70, -(2**70), np.uint64(2**64 - 1), np.uint8(1),
                     np.True_, np.float64(0), None, "0"]),
)
edge_pair_lists = st.one_of(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    st.lists(
        st.one_of(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.tuples(edge_ids, edge_ids),
            st.lists(edge_ids, max_size=3),
        ),
        max_size=12,
    ),
)

# Every token is followed by one of these; a comment starts after a space,
# since a '#' inside a word is part of the word.
gml_separators = st.sampled_from([" ", "\n", "\r\n", "\t", "\u2003", ' # comment [ " ]\n'])


@st.composite
def gml_documents(draw):
    """A random graph rendered as GML, with the nodes, edges and truth that
    load_gml should read from it. Node and edge blocks are interleaved, ids
    are written quoted or bare, entries carry graphics blocks and repeat a
    key with a later value that must be ignored."""
    n = draw(st.integers(1, 6))
    ids = [str(i) for i in draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True))]
    labels = draw(st.lists(st.text(alphabet="ab #", max_size=4), min_size=n, max_size=n, unique=True))
    labelled = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([None, "0", "1", "c d"]), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))

    def scalar(text):
        return f'"{text}"' if " " in text or draw(st.booleans()) else text

    def entry(kind, fields, decoys):
        fields = draw(st.permutations(fields))
        if draw(st.booleans()):
            fields.insert(draw(st.integers(0, len(fields))), ("graphics", ["[", "x", "1", "]"]))
        if draw(st.booleans()):  # a repeated key: the first value wins
            key, _ = draw(st.sampled_from([f for f in fields if f[0] != "graphics"]))
            fields.append((key, [decoys[key]]))
        return [kind, "["] + [tok for key, value in fields for tok in [key, *value]] + ["]"]

    nodes = []
    for k in range(n):
        fields = [("id", [scalar(ids[k])])]
        if labelled[k]:
            fields.append(("label", [f'"{labels[k]}"']))
        if values[k] is not None:
            fields.append(("value", [scalar(values[k])]))
        nodes.append(entry("node", fields, {"id": "100", "label": '"decoy"', "value": '"decoy"'}))
    edges = [
        entry("edge", [("source", [scalar(ids[u])]), ("target", [scalar(ids[v])])],
              {"source": ids[v], "target": ids[u]})
        for u, v in pairs
    ]
    order = draw(st.permutations([nodes] * len(nodes) + [edges] * len(edges)))
    blocks = [tok for source in order for tok in source.pop(0)]
    head = ['Creator', '"made by hand # not a comment"', "graph", "[", "directed", "0"]
    text = "".join(tok + draw(gml_separators) for tok in head + blocks + ["]"])

    names = [label if has else i for i, label, has in zip(ids, labels, labelled)]
    seen = {}
    for u, v in pairs:
        if u != v:
            seen.setdefault((min(u, v), max(u, v)), None)
    truth = None if None in values else Partition.from_labels(values).community_of
    return text, names, list(seen), truth


RUN_FAULTS = ["nested block", "repeated key", "bracket value", "quoted key", "missing ]", "missing field",
              "other order"]


@st.composite
def gml_runs(draw):
    """A graph of 2 to 40 nodes, then 2 to 40 edges, each kind in 1 to 3
    runs of like-shaped entries: each run has its own 2 or 3 keys (a
    node's id, an edge's two ends and more) in its own order, and each value
    is written plain or quoted. At most one entry, drawn at random, carries
    one of RUN_FAULTS, which ends its run there or makes the text fail.
    So runs of several lengths follow one another, and the fault may fall
    at the start, in the middle or at the end of a run."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(2, 40))

    def runs_of(count, extras, keys):
        """The keys of count entries in turn, 1 to 3 runs with keys of their own."""
        shapes = draw(st.lists(st.sampled_from(extras).flatmap(lambda extra: st.permutations([*keys, *extra])),
                               min_size=1, max_size=3))
        cuts = sorted(draw(st.lists(st.integers(0, count), min_size=len(shapes) - 1, max_size=len(shapes) - 1)))
        return [shape for shape, a, b in zip(shapes, [0, *cuts], [*cuts, count]) for _ in range(a, b)]

    node_keys = runs_of(n, [["label"], ["value"], ["label", "value"]], ["id"])
    edge_keys = runs_of(m, [[], ["weight"]], ["source", "target"])
    ends = draw(st.lists(st.integers(0, n - 1), min_size=2 * m, max_size=2 * m))

    def value(text):
        return f'"{text}"' if " " in text or draw(st.booleans()) else text

    fields = {
        "id": str, "label": lambda k: f"n {k}" if k % 3 else f"n{k}", "value": lambda k: str(k % 2),
        "source": lambda k: str(ends[2 * k]), "target": lambda k: str(ends[2 * k + 1]), "weight": lambda k: "1",
    }
    entries = [["node", [(key, value(fields[key](k))) for key in node_keys[k]]] for k in range(n)]
    entries += [["edge", [(key, value(fields[key](k))) for key in edge_keys[k]]] for k in range(m)]
    fault = draw(st.sampled_from([None, *RUN_FAULTS]))
    faulty = draw(st.integers(0, n + m - 1))
    pairs = entries[faulty][1]
    if fault == "nested block":
        pairs.insert(draw(st.integers(0, len(pairs))), ("graphics", "[ ]"))
    elif fault == "repeated key":
        pairs.insert(draw(st.integers(1, len(pairs))), (pairs[0][0], "9"))
    elif fault == "bracket value":
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = (pairs[k][0], draw(st.sampled_from("[]")))
    elif fault == "quoted key":
        k = draw(st.integers(0, len(pairs) - 1))
        pairs[k] = (f'"{pairs[k][0]}"', pairs[k][1])
    elif fault == "missing field":
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    elif fault == "other order":
        pairs[:] = pairs[1:] + pairs[:1]
    tokens = ["graph", "["]
    for k, (kind, pairs) in enumerate(entries):
        tokens += [kind, "[", *(token for pair in pairs for token in pair)]
        if k != faulty or fault != "missing ]":
            tokens.append("]")
    return "".join(token + draw(gml_separators) for token in tokens + ["]"])


def outcome(call, *args):
    """What call(*args) returns, or the class and message of the InputError
    it raises."""
    try:
        return call(*args)
    except InputError as exc:
        return type(exc), str(exc)


def tokenize_gml(text):
    return [token for chunk in _tokenize_gml(text) for token in chunk]


def read_gml(text):
    g, truth = load_gml(text)
    return g.nodes, g.edges, None if truth is None else truth.community_of


def parses_or_input_error(parse, text):
    try:
        return parse(text)
    except InputError:
        return None


@SETTINGS
@hypothesis.given(edge_list_texts)
def test_edge_list_parses_or_raises_input_error(text):
    g = parses_or_input_error(load_edge_list, text)
    if g is not None:
        assert g.edge_count >= 1


@SETTINGS
@hypothesis.given(simple_edge_lists)
def test_edge_list_round_trip(text):
    g = parses_or_input_error(load_edge_list, text)
    hypothesis.assume(g is not None)
    again = load_edge_list(to_edge_list(g))
    assert again.nodes == g.nodes
    assert again.edges == g.edges


@SETTINGS
@hypothesis.given(gml_texts)
def test_gml_parses_or_raises_input_error(text):
    parsed = parses_or_input_error(load_gml, text)
    if parsed is not None:
        g, truth = parsed
        assert truth is None or len(truth.community_of) == g.node_count


@SETTINGS
@hypothesis.given(gml_documents())
def test_gml_reads_back_the_rendered_graph(document):
    text, names, edges, truth = document
    g, read_truth = load_gml(text)
    assert g.nodes == names
    assert g.edges == edges
    assert (None if read_truth is None else read_truth.community_of) == truth


@SETTINGS
@hypothesis.given(edge_list_texts)
def test_label_lines_parse_or_raise_input_error(text):
    labels = parses_or_input_error(parse_label_lines, text)
    if labels is not None:
        assert all(name and label for name, label in labels.items())


@SETTINGS
@hypothesis.given(st.one_of(gml_soups, gml_texts))
def test_gml_tokenizer_matches_the_reference(text):
    assert outcome(tokenize_gml, text) == outcome(reference_tokenize_gml, text)


@pytest.mark.parametrize("chunk_chars", [1, 7, 64])
@SETTINGS
@hypothesis.given(st.one_of(gml_soups, gml_texts))
def test_gml_tokenizer_matches_the_reference_in_small_chunks(chunk_chars, text):
    # no cut splits a token, whatever the chunk size
    with mock.patch.object(gml_module, "GML_CHUNK_CHARS", chunk_chars):
        assert outcome(tokenize_gml, text) == outcome(reference_tokenize_gml, text)


# A run of 2,500 like-shaped node entries with quoted labels, then one of
# 2,500 edge entries: each crosses a cut at GML_CHUNK_CHARS.
LONG_RUNS = ("graph [\n" + "".join(f'  node [ id {i} label "n {i}" ]\n' for i in range(2500))
             + "".join(f"  edge [ source {i} target {(i * 7) % 2500} ]\n" for i in range(2500)) + "]\n")


# About 1,000 node entries each: like-shaped entries after 300 entries
# with a nested block; one odd node per 100 among like-shaped ones; and
# entries that span lines after 100 with a nested block.
GRAPHICS_PREFIX = "graph [ " + " ".join(
    f"node [ id {i} graphics [ x 1 y 2 ] ]" if i < 300 else f"node [ id {i} ]" for i in range(1000)) + " ]"
ODD_ENTRIES = "graph [ " + " ".join(
    f"node [ id {i} value 1 ]" if i % 100 == 99 else f"node [ id {i} ]" for i in range(1000)) + " ]"
MULTI_LINE = "graph [\n" + "".join(
    f"node [ id {i} graphics [ ] ]\n" if i < 100 else f"node [\n  id {i}\n]\n" for i in range(1000)) + "]\n"


def load_gml_inputs(test):
    """Run test on random GML texts of every kind and on the examples: each
    a text that load_gml must read as its reference does."""
    examples = [
        # the first failing edge entry raises: an unknown id, then a missing
        # end, and the other way round; of a repeated key the first value wins
        "graph [ node [ id 1 ] edge [ source 1 target 9 ] edge [ source 1 ] ]",
        "graph [ node [ id 1 ] edge [ source 1 ] edge [ source 1 target 9 ] ]",
        "graph [ node [ id 1 ] node [ id 2 ] node [ id 3 ] edge [ source 1 source 3 target 2 ] ]",
        # one per fault of RUN_FAULTS, in a run of like-shaped entries: a
        # nested block, a key repeated in every entry (the first value still
        # wins), a '[' and a ']' value, a quoted key, a missing ']', a missing
        # field, and fields in another order
        "graph [ node [ id 1 ] node [ id 2 graphics [ ] ] node [ id 3 ] node [ id 4 ] ]",
        "graph [ node [ id 1 id 5 ] node [ id 2 id 6 ] node [ id 3 id 7 ] ]",
        "graph [ node [ id 1 label a ] node [ id 2 label [ ] node [ id 3 label c ] ]",
        "graph [ node [ id 1 label a ] node [ id 2 label ] ] node [ id 3 label c ] ]",
        'graph [ node [ id 1 label a ] node [ id 2 "label" b ] node [ id 3 label c ] ]',
        "graph [ node [ id 1 label a ] node [ id 2 label b node [ id 3 label c ] ]",
        "graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ] edge [ source 2 ] "
        "edge [ source 2 target 1 ] ]",
        "graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ] edge [ target 1 source 2 ] "
        "edge [ source 1 target 1 ] ]",
        # an unterminated string in a later chunk than a duplicate id and an
        # edge with no target: the string error raises, before any block is read
        "graph [ node [ id 1 ] node [ id 1 ] edge [ source 1 ]\n" + "# a comment line\n" * 5000
        + 'node [ id 2 label "b ] ]\n',
        # runs that cross a cut
        LONG_RUNS,
        GRAPHICS_PREFIX,
        ODD_ENTRIES,
        MULTI_LINE,
    ]
    for text in examples:
        test = hypothesis.example(text)(test)
    strategy = st.one_of(gml_texts, gml_soups, gml_documents().map(lambda document: document[0]), gml_runs())
    return SETTINGS(hypothesis.given(strategy)(test))


@load_gml_inputs
def test_load_gml_matches_the_reference(text):
    assert outcome(read_gml, text) == outcome(reference_load_gml, text)


@pytest.mark.parametrize("chunk_chars", [1, 7, 64])
@load_gml_inputs
def test_load_gml_matches_the_reference_in_small_chunks(chunk_chars, text):
    # cuts then land inside entries, runs, strings and comments, and
    # between `graph` and its '['
    with mock.patch.object(gml_module, "GML_CHUNK_CHARS", chunk_chars):
        assert outcome(read_gml, text) == outcome(reference_load_gml, text)


@SETTINGS
@hypothesis.given(st.integers(0, 5), edge_pair_lists)
def test_from_edges_raises_what_the_reference_raises(n, pairs):
    names = [str(i) for i in range(n)]
    built = outcome(lambda: Graph.from_edges(names, pairs).edges)
    assert built == outcome(reference_edges, names, pairs)


def read_edge_list(load, text):
    g = load(text)
    tables = (g.indptr, g.neighbors, g.edge_ids, g.twins, g.sorted_keys, g.slot_by_key, g.slot_of_key)
    return g.nodes, g.edges, g.name_to_id, [None if table is None else table.tolist() for table in tables]


@SETTINGS
@hypothesis.given(st.one_of(edge_list_texts, fault_then_malformed))
def test_load_edge_list_matches_the_reference(text):
    expected = outcome(read_edge_list, reference_load_edge_list, text)
    assert outcome(read_edge_list, load_edge_list, text) == expected
