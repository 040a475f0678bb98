"""Fuzz tests for the text parsers: arbitrary input either parses or raises
an InputError subclass (exit status 1 at the CLI), never another exception;
a parsed edge list survives a to_edge_list round trip."""

import pytest

from commwalker.errors import InputError
from commwalker.graph import load_edge_list, load_gml, parse_label_lines, to_edge_list

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
     "directed", "graphics", '"a"', '"a b"', '"', "0", "1", "2", "#", "\n"]
)
gml_texts = st.one_of(
    st.lists(gml_tokens, max_size=40).map(" ".join),
    st.text(max_size=60),
)


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
@hypothesis.given(edge_list_texts)
def test_label_lines_parse_or_raise_input_error(text):
    labels = parses_or_input_error(parse_label_lines, text)
    if labels is not None:
        assert all(name and label for name, label in labels.items())
