"""The reader of the GML subset behind graph.load_gml.

Only the structure needed for the benchmark datasets: a graph [ ... ]
block with node [ id .. (label ..) (value ..) ] and
edge [ source .. target .. ] entries. Text before `graph [` and after its
closing ']' is ignored. A token is a "string" (it may span lines; the
quotes are dropped), a bracket, or a word: a run of anything but
whitespace, brackets and '"'. A '#' that starts a token comments out the
rest of its line; inside a word it is part of the word. A block is read
as `key value` pairs, where the value is any one token, a ']' included;
each entry keeps the first value of each key, and ids are matched as
text. Any other nested block (e.g. graphics [...]) is skipped.

One regex splits the text at its strings and its comments (a '#' that no
word character precedes). A string with no closing quote runs to the end
of the text, so only the last match can be one, and the text is checked
before any token is read. No quantifier nests, so long runs cost linear
time. The text between is cut at a newline every GML_CHUNK_CHARS
characters, and str.split() cuts one chunk at a time into tokens,
brackets spaced out, so a reader holds a chunk of tokens, not all of
them. The chunks are read as one stream of tokens, in which the first
`graph` followed by `[` starts the graph block, whichever chunks the two
lie in. _read_block reads the block from that stream; at a node or edge
key it hands the stream to the kind's _entry_reader, which reads the
entry with _read_block too, so an entry that a cut runs through reads as
any other. A node entry is kept as its id, label and value; an edge
entry only as its source and target ids, in flat lists, since a graph
has many more edges. The graph is built through Graph._of_simple_pairs,
as every reader's is.

graph.load_gml, the public entry point, imports this module on its first
call, so a run that reads no GML text never compiles or loads it.
"""

from __future__ import annotations

import re
from itertools import chain, pairwise
from typing import Callable, Iterator

import numpy as np

from .errors import DanglingEdgeError, GmlParseError
from .graph import Graph, Partition, _not_simple

# group 1, kept by re.split, holds a string or a comment
_GML_SPLIT = re.compile(r'([#"](?<![^\s[\]"]#)(?:(?<=#)[^\n]*|[^"]*"?))')


# The tokenizer cuts the text between strings and comments at the first
# newline after every this many characters.
GML_CHUNK_CHARS = 1 << 16


def _tokenize_gml(text: str) -> Iterator[list[str]]:
    """The tokens of text as written, strings keeping their quotes, in
    chunks: each list covers GML_CHUNK_CHARS characters of text, up to the
    first newline outside strings and comments after them, and the last
    covers the rest. A newline is part of no token, so a cut there splits
    none. An unterminated string raises before the first list."""
    parts = _GML_SPLIT.split(text)  # text between matches, then a match
    last = parts[-2] if len(parts) > 1 else "#"  # the last match
    if last[0] == '"' and not last.endswith('"', 1):
        raise GmlParseError("unterminated string literal")
    tokens: list[str] = []
    left = GML_CHUNK_CHARS  # the characters of text that tokens may cover before a cut
    matches = iter(parts)
    for between in matches:
        left -= len(between)
        if left < 0:  # cut between at its first newline past the limit, and so on
            at = 0  # the start of what is left of between
            while left < 0 and (cut := between.find("\n", max(len(between) + left, at))) >= 0:
                tokens += between[at:cut].replace("[", " [ ").replace("]", " ] ").split()
                yield tokens
                tokens, left, at = [], GML_CHUNK_CHARS - len(between) + cut, cut
            between = between[at:]
        tokens += between.replace("[", " [ ").replace("]", " ] ").split()
        match = next(matches, "#")  # the last part has no match after it
        if match[0] == '"':
            tokens.append(match)
        left -= len(match)
    yield tokens


def _skip_block(tokens: Iterator[str]) -> None:
    """Consume a balanced [ ... ] block whose '[' was the last token read."""
    depth = 1
    for token in tokens:
        if token == "[":
            depth += 1
        elif token == "]":
            depth -= 1
            if not depth:
                return
    raise GmlParseError("unbalanced brackets")


def _read_block(
    tokens: Iterator[str], where: str, blocks: dict[str, Callable[[Iterator[str]], object]]
) -> dict[str, str]:
    """Read the block whose '[' is the next token as `key value` pairs up to
    its ']', and return its fields: each key's first scalar value, unquoted.
    A nested block under a key of blocks is read by that key's reader, handed
    tokens with the block's '[' next; any other nested block is skipped."""
    if next(tokens, None) != "[":
        raise GmlParseError(f"expected '[' after {where}")
    fields: dict[str, str] = {}
    for key in tokens:
        if key == "]":
            return fields
        if key == "[" or key[0] == '"':
            token = key.strip('"')
            raise GmlParseError(f"unexpected token {token!r} in {where} block")
        if key in blocks:
            blocks[key](tokens)
            continue
        value = next(tokens, None)
        if value == "[":
            _skip_block(tokens)
        elif value is None:
            break
        elif key not in fields:  # first occurrence wins
            fields[key] = value[1:-1] if value[0] == '"' else value
    raise GmlParseError(f"unbalanced brackets: {where} block never closed")


def _entry_reader(columns: dict[str, list[str | None]]) -> Callable[[Iterator[str]], None]:
    """A reader of the node (or the edge) entries of a graph block, called
    with the iterator the block is read through, at each entry's '[': it
    reads the entry with _read_block and appends to each list in columns the
    value of its key, or None where the entry has no such key."""
    items = tuple(columns.items())

    def read_entry(tokens: Iterator[str]) -> None:
        fields = _read_block(tokens, "node/edge", {})
        for key, column in items:
            column.append(fields.get(key))

    return read_entry


def _read_graph(text: str) -> tuple[list[str | None], ...]:
    """The node and the edge entries of the first graph block of text, as
    columns: each node's id, label and value, then each edge's source and
    target, None where an entry has no such key. The text is read as one
    stream of tokens, one chunk at a time (see _tokenize_gml), and no
    chunk is kept."""
    tokens = chain.from_iterable(_tokenize_gml(text))
    if ("graph", "[") not in pairwise(tokens):  # reads the stream up to the block's '['
        raise GmlParseError("no 'graph [' block found")
    ids: list[str | None] = []
    labels: list[str | None] = []
    values: list[str | None] = []
    sources: list[str | None] = []
    targets: list[str | None] = []
    readers = {
        "node": _entry_reader({"id": ids, "label": labels, "value": values}),
        "edge": _entry_reader({"source": sources, "target": targets}),
    }
    _read_block(chain(("[",), tokens), "graph", readers)
    return ids, labels, values, sources, targets


def load(text: str) -> tuple[Graph, Partition | None]:
    """What graph.load_gml returns for text, or the error it raises."""
    ids, labels, values, sources, targets = _read_graph(text)
    names: list[str] = []
    name_to_id: dict[str, int] = {}
    gml_to_dense: dict[str, int] = {}
    for gml_id, label in zip(ids, labels):
        if gml_id is None:
            raise GmlParseError("node block missing 'id'")
        if gml_id in gml_to_dense:
            raise GmlParseError(f"duplicate node id {gml_id}")
        name = gml_id if label is None else label
        if name in name_to_id:
            raise GmlParseError(f"duplicate node name {name!r}")
        gml_to_dense[gml_id] = name_to_id[name] = len(names)
        names.append(name)
    del ids, labels
    truth = None
    if names and None not in values:
        truth = Partition.from_labels(values)
    del values

    # every edge's two ends as dense ids, one pass per end; a missing end
    # (None) is no node id either, and on a failure the first entry that
    # fails raises
    try:
        ends = [np.fromiter(map(gml_to_dense.__getitem__, end), np.int64, len(end)) for end in (sources, targets)]
    except KeyError:
        for source, target in zip(sources, targets):
            if source is None or target is None:
                raise GmlParseError("edge block missing 'source' or 'target'") from None
            for gml_id in (source, target):
                if gml_id not in gml_to_dense:
                    raise DanglingEdgeError(f"edge references unknown node id {gml_id}") from None
        raise
    del sources, targets, gml_to_dense
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    del ends
    kept = ~_not_simple(lo, hi, len(names))  # the first copy of each edge
    collapsed = len(kept) - int(np.count_nonzero(kept))
    if collapsed:
        import logging  # only here: a read that collapses nothing imports no logging

        # the logger of graph.load_gml, the public entry point
        logging.getLogger("commwalker.graph").warning("collapsed %d duplicate/self-loop edge(s) in GML input", collapsed)

    return Graph._of_simple_pairs(names, name_to_id, lo[kept], hi[kept]), truth
