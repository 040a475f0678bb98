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
them. The graph block is read by _read_block from one iterator over the
chunks; at a node or edge key it hands that iterator to the kind's
_entry_reader. That reads the entry on its own with _read_block or,
where a check finds it plain, with every entry after it in its chunk of
the same kind and keys as one run, a column per key, with list slices.
A node entry is kept as its id, label and value; an edge entry only as
its source and target ids, in flat lists, since a graph has many more
edges. The graph is built through Graph._of_simple_pairs, as every
reader's is.

graph.load_gml, the public entry point, imports this module on its first
call, so a run that reads no GML text never compiles or loads it.
"""

from __future__ import annotations

import operator
import re
from itertools import chain, compress, count, islice
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


_BRACKETS = frozenset("[]")


def _run_end(tokens: list[str], start: int) -> tuple[int, int]:
    """The width of the entry whose kind is tokens[start], and the end of
    the run from it of plain entries that repeat its kind, its keys and its
    ']' at the same offsets. The run ends at start when that entry is not
    plain.

    A plain entry closes, and holds no nested block, no repeated key, no
    quoted or bracket key and no bracket value; the first ']' after its '['
    closes it, and the scan for it stays inside the entry being read
    whatever the entry holds. The entries after the first are checked in
    pieces, each as long as the run read so far. A piece whose first entry
    has other keys keeps nothing. Otherwise the tokens at one offset within
    the entries of the piece are one strided slice: at an even offset the
    kind, a key or the ']', and at offset 1 the '[', which every entry must
    repeat, and at any other odd offset a value, which must not be a
    bracket. The piece keeps its entries up to the first that fails a
    slice, and the run ends with the first piece that keeps fewer than it
    holds. So a slice holds at most one column of the run, and a run costs
    time linear in its length wherever it ends."""
    try:
        close = tokens.index("]", start + 1)
    except ValueError:  # never closed
        return 1, start
    entry = tokens[start : close + 1]
    width, keys = len(entry), entry[2:-1:2]
    # an even width ends on a key whose value is the ']'; a word holds no
    # '"', and a string starts with one
    if not width % 2 or entry[1] != "[" or entry.count("[") > 1 or len(set(keys)) < len(keys) or '"' in "".join(keys):
        return width, start
    shape = entry[:]  # the tokens every entry of the run repeats, None at each value
    shape[3:-1:2] = [None] * (width // 2 - 1)
    row = entry[::2]  # the kind, the keys and the ']'
    stop = start + width  # the end of the run so far
    while True:
        piece = (stop - start) // width
        kept = min(piece, (len(tokens) - stop) // width)
        if tokens[stop : stop + width : 2] != row:
            kept = 0
        for offset, token in enumerate(shape):
            if not kept:
                break
            tokens_at = tokens[stop + offset : stop + offset + kept * width : width]
            if token is None:
                if "[" in tokens_at or "]" in tokens_at:
                    kept = next(compress(count(), map(_BRACKETS.__contains__, tokens_at)))
            elif tokens_at.count(token) < kept:
                kept = next(compress(count(), map(token.__ne__, tokens_at)))
        stop += kept * width
        if kept < piece:
            return width, stop


# A run read as columns must hold at least this many entries to pay for the
# check that found it: on nodes in alternating runs of r entries, reading
# every run as columns was slower than _read_block up to r = 16 and faster
# from r = 24.
_RUN_PAYS = 20


def _entry_reader(current: list, columns: dict[str, list[str | None]]) -> Callable[[Iterator[str]], None]:
    """A reader of the node (or the edge) entries of a graph block, called
    with rest, the iterator the block is read through, at each entry's '[':
    it extends each list in columns with the value of its key, unquoted, or
    None where the entry has no such key. current holds the chunk of tokens
    that rest is reading, the list iterator rest reads it through, and the
    offset of the chunk's first token among the text's tokens.

    At a check, a plain entry (see _run_end) is read with every entry after
    it in its chunk of the same kind and the same keys in the same order as
    one run, a column per key, with list slices, and rest is left after the
    run; any other entry is read by _read_block. A check and its slices
    cost about what _read_block takes for a dozen or two entries, so checks
    pay only where runs are long. The reader counts the entries read since
    the last run it found, outside that run. A check finds a run when the
    run holds more entries than that count and at least _RUN_PAYS; the
    count then restarts from 0 and the next entry is checked at once, so
    long runs broken now and then by an odd entry are each found. A check
    that finds none adds what it read to the count and hands the next count
    entries to _read_block, unchecked. So where runs are short or absent,
    checks come at a doubling count and the entries cost about what
    _read_block takes alone.

    A run that reaches the end of its chunk is judged where it ends, as one
    run: the entry across the cut is read by _read_block and counted in it,
    and a check right after that entry goes on with it."""
    read = 0  # entries read since the last run found, outside it
    wait = 0  # entries to hand to _read_block before the next check
    run = 0  # entries of a run that reached the end of a chunk, not yet judged
    resume = -1  # the offset at which that run goes on
    items = tuple(columns.items())

    def judge(entries: int) -> None:
        """Count a check that read entries entries as one run."""
        nonlocal read, wait
        if entries > read and entries >= _RUN_PAYS:
            read = wait = 0
        else:
            read += entries
            wait = read

    def read_entry(rest: Iterator[str]) -> None:
        nonlocal read, wait, run, resume
        if wait:
            wait -= 1
            read += 1
        else:
            tokens, it, base = current
            at = len(tokens) - operator.length_hint(it)  # the entry's '[', after its kind
            if run and base + at - 1 != resume:  # the run ended before this entry, which is checked
                judge(run)
                run = wait = 0
            width, stop = _run_end(tokens, at - 1)
            entries = (stop - at + 1) // width
            if entries:
                keys = tokens[at + 1 : at + width - 2 : 2]
                for key, column in items:
                    if key not in keys:
                        column += [None] * entries
                        continue
                    values = tokens[at + 2 + 2 * keys.index(key) : stop : width]
                    if '"' in "".join(values):  # some value is a string
                        values = [value[1:-1] if value[0] == '"' else value for value in values]
                    column += values
                next(islice(it, stop - at, stop - at), None)  # it had read up to the first entry's kind
                run += entries
                if len(tokens) - stop < width:  # no room for another entry: the run may go on in the next chunk
                    resume = base + stop
                else:
                    judge(run)
                    run = 0
                return
            if not run:
                judge(0)
                read += 1
        fields = _read_block(rest, "node/edge", {})
        for key, column in items:
            column.append(fields.get(key))
        if run:  # the entry follows a run that reached the end of its chunk
            if current[2] != base:  # and crosses the cut, so the run goes on after it
                tokens, it, base = current
                run, resume = run + 1, base + len(tokens) - operator.length_hint(it)
            else:
                judge(run)
                run = 0
                read += 1

    return read_entry


def _read_graph(text: str) -> tuple[list[str | None], ...]:
    """The node and the edge entries of the first graph block of text, as
    columns: each node's id, label and value, then each edge's source and
    target, None where an entry has no such key. The text is read one chunk
    of tokens at a time (see _tokenize_gml), and no chunk is kept."""
    current: list = []  # the chunk being read, its list iterator, and the offset of its first token

    def graph_chunks() -> Iterator[Iterator[str]]:
        """Iterators over the chunks from the graph block's '[' on, each
        made current before it is read and let go once it is read."""
        base, last, start = 0, None, None  # the offset of the chunk, the token before it, where '[' is
        for tokens in _tokenize_gml(text):
            if start is None:
                pairs = enumerate(zip(chain((last,), tokens), tokens))
                start = next((i for i, pair in pairs if pair == ("graph", "[")), None)
                if start is None:
                    base, last = base + len(tokens), tokens[-1] if tokens else last
                    continue
                tokens, base = tokens[start:], base + start
            current[:] = tokens, iter(tokens), base
            base += len(tokens)
            del tokens
            yield current[1]
            current.clear()
        if start is None:
            raise GmlParseError("no 'graph [' block found")

    ids: list[str | None] = []
    labels: list[str | None] = []
    values: list[str | None] = []
    sources: list[str | None] = []
    targets: list[str | None] = []
    readers = {
        "node": _entry_reader(current, {"id": ids, "label": labels, "value": values}),
        "edge": _entry_reader(current, {"source": sources, "target": targets}),
    }
    _read_block(chain.from_iterable(graph_chunks()), "graph", readers)
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
