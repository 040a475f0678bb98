"""Undirected simple graph: construction, file formats, connected components.

Nodes carry external string names; internally everything runs on dense
integer ids assigned in first-appearance order. Edges get dense ids in
input order, each read as (u, v) with u < v. Edges are stored once, in
the CSR arrays that Graph._of_simple_pairs builds for every reader
(from_edges, load_edge_list, load_gml): the walk kernel, the sweep, the
flood fill and modularity all read them, and Graph.ends reads each
edge's two ends off them. Graph.edges, the (u, v) tuples, is built from
those ends only when a caller reads it (to_edge_list does). Which pairs of
nodes are edges, and at which slot, is looked up by pair key u * n + v
in the one pair table built there: a dense table of all n * n keys,
read with one gather, when it has at most DENSE_PAIR_CELLS entries, and
otherwise the sorted table of the 2m slot keys, searched; Graph.slots_of
and Graph.slot_counts read whichever the graph has. The connected
components are found once per graph, on first use of
Graph.components, and every phase of detection reads that one partition.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    EmptyGraphError,
    GmlParseError,
    MalformedLineError,
    SelfLoopError,
    UnknownNodeError,
)

# A graph of n nodes gets the dense pair table slot_of_key when n * n is at
# most this many entries (n <= 1024, at most 8 MB of int64).
DENSE_PAIR_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    Edges are stored once, as compressed rows (CSR) with one slot per
    (node, incident edge): row u is slots indptr[u] .. indptr[u + 1] - 1,
    in edge-id order. A slot holds its neighbour and edge id, and twins[s]
    is the slot of the same edge read from the other end: the slots are a
    stable sort by owner of the entries 2e (edge e read from its lower
    end) and 2e + 1 (from its upper end), so the twin of the slot holding
    entry k is the slot holding k ^ 1. A graph holds one pair table. When
    n * n <= DENSE_PAIR_CELLS, slot_of_key[u * n + v] is the slot of v in
    u's row, or 2m when u and v are no edge, and sorted_keys and
    slot_by_key are None. Otherwise slot_of_key is None, sorted_keys holds
    the directed keys u * n + v of all slots in ascending order and
    slot_by_key the slot of each; the two end in a sentinel, n * n (above
    every key) and 2m (no slot), so a search for any pair key lands on an
    entry, and a pair that is no edge finds a key other than its own.
    slots_of and slot_counts look pair keys up in whichever table the
    graph has, so no other module knows which. ends() reads the lower and
    upper end of every edge off the rows, as int64 arrays indexed by edge
    id. The arrays are read-only. The values filled after construction
    are components and edges (the list of (u, v) tuples that ends() gives),
    each on first read; both are pure functions of the arrays, so two
    concurrent first reads at worst compute one twice and store equal
    values, and a graph is safe to share across any number of concurrent
    readers.
    """

    nodes: list[str]
    name_to_id: dict[str, int]
    indptr: np.ndarray
    neighbors: np.ndarray
    edge_ids: np.ndarray
    sorted_keys: np.ndarray | None
    slot_by_key: np.ndarray | None
    twins: np.ndarray
    slot_of_key: np.ndarray | None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.neighbors) // 2

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The lower and the upper end of every edge, as two int64 arrays
        indexed by edge id, read off the CSR arrays: each slot names its
        owner and its neighbour, and both slots of an edge agree."""
        owner = np.repeat(np.arange(self.node_count, dtype=np.int64), np.diff(self.indptr))
        lo = np.empty(self.edge_count, dtype=np.int64)
        hi = np.empty(self.edge_count, dtype=np.int64)
        lo[self.edge_ids] = np.minimum(owner, self.neighbors)
        hi[self.edge_ids] = np.maximum(owner, self.neighbors)
        return lo, hi

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge as (u, v) with u < v, in edge-id order: ends() as a
        list of tuples, built on first read and kept."""
        lo, hi = self.ends()
        return list(zip(lo.tolist(), hi.tolist()))

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    @cached_property
    def components(self) -> Partition:
        """The connected components, as connected_components(self) returns
        them: labelled in order of each component's lowest node id. Found
        on first use and kept (cached_property writes the instance __dict__
        directly, past the frozen dataclass's __setattr__)."""
        return connected_components(self)

    def slots_of(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each pair key u * n + v in the 1-D keys, that of v in
        u's row, or 2m when u and v are no edge: one gather from the dense
        pair table, or one search in the sorted one."""
        if self.slot_of_key is not None:
            return self.slot_of_key[keys]
        at = _search_in_order(self.sorted_keys, keys)  # the sentinel ends every search
        return np.where(self.sorted_keys[at] == keys, self.slot_by_key[at], len(self.neighbors))

    def slot_counts(self, keys: np.ndarray) -> np.ndarray:
        """How many of the 1-D pair keys name each slot, as 2m counts; keys
        that are no edge count nowhere. The dense table is one gather and one
        bincount; on the sorted one keys is sorted in place (a copy costs a
        fresh array per call) and searched once per distinct key."""
        if self.slot_of_key is not None:
            return np.bincount(self.slot_of_key[keys], minlength=len(self.neighbors) + 1)[:-1]
        keys.sort()
        bound = np.ones(len(keys) + 1, dtype=bool)  # where each run of equal keys starts, and the end
        np.not_equal(keys[1:], keys[:-1], out=bound[1:-1])
        runs = bound.nonzero()[0]
        unique = keys[runs[:-1]]
        at = self.sorted_keys.searchsorted(unique)
        counts = np.zeros(len(self.neighbors) + 1, dtype=np.int64)  # keys that are no edge count at -1, 2m
        counts[np.where(self.sorted_keys[at] == unique, self.slot_by_key[at], -1)] = np.diff(runs)
        return counts[:-1]

    @classmethod
    def from_edges(cls, names: list[str], edge_pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from node names and id pairs, enforcing simplicity;
        every pair is two integer ids in range(len(names)). One pass reads
        each pair's ids through operator.index and checks their range,
        reading a pair that fails as (0, 0); the rule of a simple graph then
        checks all pairs at once. The first pair that fails either, in input
        order, raises DanglingEdgeError, SelfLoopError or DuplicateEdgeError."""
        name_to_id = {name: i for i, name in enumerate(names)}
        if len(name_to_id) != len(names):
            raise MalformedLineError("node names are not unique")
        n, pairs = len(names), list(edge_pairs)
        flat, why = [], {}  # each pair's two ids, or 0, 0; the index of each that fails -> why
        for k, pair in enumerate(pairs):
            try:
                u, v = map(operator.index, pair)
            except TypeError:
                why[k] = "names a node id that is not an integer"
            except ValueError:
                why[k] = "is not a pair of node ids"
            else:
                if 0 <= u < n and 0 <= v < n:
                    flat += u, v
                    continue
                why[k] = f"names a node id outside range({n})"
            flat += 0, 0
        ends = np.array(flat, dtype=np.int64).reshape(-1, 2)
        lo, hi = ends.min(axis=1), ends.max(axis=1)
        failed = _not_simple(lo, hi, n)  # each pair in why, read as (0, 0), is a self-loop
        if failed.any():
            k = int(failed.argmax())
            if k in why:
                raise DanglingEdgeError(f"edge {pairs[k]!r} {why[k]}")
            if lo[k] == hi[k]:
                raise SelfLoopError(f"self-loop on node '{names[lo[k]]}'")
            raise DuplicateEdgeError(f"duplicate edge '{names[lo[k]]}'-'{names[hi[k]]}'")
        return cls._of_simple_pairs(names, name_to_id, lo, hi)

    @classmethod
    def _of_simple_pairs(
        cls, names: list[str], name_to_id: dict[str, int], lo: np.ndarray, hi: np.ndarray
    ) -> "Graph":
        """Build the graph whose edge e is lo[e]-hi[e], from int64 ends
        already checked: lo < hi, both in range(len(names)), and no pair
        repeated. name_to_id maps each name to its index."""
        n, m = len(names), len(lo)
        # entry 2e reads edge e from its lower end, 2e + 1 from its upper
        # end; a stable sort by owner keeps every row in edge-id order
        ends = np.stack((lo, hi), axis=1)
        entry = np.argsort(ends.ravel(), kind="stable")
        owner, neighbors = ends.ravel()[entry], ends[:, ::-1].ravel()[entry]
        keys = owner * n + neighbors
        slot_of_entry = np.empty_like(entry)  # a slot's twin holds its entry ^ 1
        slot_of_entry[entry] = np.arange(2 * m)
        indptr = np.searchsorted(owner, np.arange(n + 1))
        sorted_keys = slot_by_key = slot_of_key = None
        if n * n > DENSE_PAIR_CELLS:
            sorted_keys, slot_by_key = _sorted_pair_table(keys, n)
        else:
            slot_of_key = np.full(n * n, 2 * m, dtype=np.int64)
            slot_of_key[keys] = np.arange(2 * m)
        csr = (indptr, neighbors, entry // 2, sorted_keys, slot_by_key, slot_of_entry[entry ^ 1], slot_of_key)
        for table in csr:
            if table is not None:
                table.flags.writeable = False
        return cls(list(names), name_to_id, *csr)


def _sorted_pair_table(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted pair-key table of a graph of n nodes whose slot s has the
    pair key keys[s]: the keys in ascending order, then the sentinel n * n
    (above every key), and the slot of each, then the sentinel 2m (no
    slot). A search for any pair key lands on an entry, and a pair that is
    no edge finds a key other than its own."""
    slot_by_key = np.append(np.argsort(keys), len(keys))
    return np.append(keys[slot_by_key[:-1]], n * n), slot_by_key


def _not_simple(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Which of the pairs lo[e]-hi[e] (lo <= hi, both in range(n)) a simple
    graph cannot hold: a self-loop, lo == hi, or a repeat of an earlier
    pair, one that follows an equal key lo * n + hi in a stable sort."""
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    faults = lo == hi
    faults[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
    return faults


def _search_in_order(table: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """table.searchsorted(queries) for a sorted 1-D int64 table and 1-D
    int64 queries, in one of two forms chosen by the two lengths; either
    gives exactly np.searchsorted(table, queries). The walk kernel
    searches with it for the picks in its mass prefix, and Graph.slots_of
    for pair keys in the sorted pair-key table.

    The search form, taken while the Q queries number at most 3x the T
    entries: the queries are searched in ascending order and scattered
    back. Consecutive sorted queries follow nearly the same path through
    the binary search, where scattered ones mispredict its branches. With
    a fresh array of 272 random pair keys per call (karate's agents) into
    karate's 156 sorted keys (2-core x86 VM, numpy 2.4), it takes 11-15
    us, 4.5-6 us of it the argsort, against 17-19 us for a plain search.
    Timing one query array over and over instead lets the branch predictor
    learn it, and then the plain search looks faster. The array methods
    skip numpy's Python-level wrappers.

    The merge form (_merge_in_order), taken when Q > 3T, unless a query
    or an entry lies at or beyond +-2**(62 - b), b = Q.bit_length(), and
    so would not pack. Per call, search form against merge form (us, same
    VM; targets captured from explore, each call on a fresh copy, medians
    of 10 rounds): 9.3 against 12.4 at 272 queries into 156 entries
    (default karate), 21.2 against 18.8 at 816 into 156, 66.6 against 40.7
    at 2,448 into 548 (components), 63.7 against 39.4 at 2,720 into 156,
    189.7 against 105.0 at 8,160 into 156, and 13.7 against 113.9 at 160
    into 9,106 (dense-sweep). Where the merge form starts to win moves
    with T: at 156 entries from about 5x as many queries, at 572 from
    about 1.3x."""
    if len(queries) > 3 * len(table):
        keys = np.concatenate((queries, table))
        b = len(queries).bit_length()
        bound = 1 << (62 - b)
        if -bound < keys.min() and keys.max() < bound:
            return _merge_in_order(keys, len(queries), b)
    order = queries.argsort()
    at = np.empty(len(queries), dtype=np.intp)
    at[order] = table.searchsorted(queries[order])
    return at


def _merge_in_order(keys: np.ndarray, q: int, b: int) -> np.ndarray:
    """The merge form of _search_in_order: keys holds the q queries, then
    the table's entries, all within +-2**(62 - b), b = q.bit_length(), and
    is packed and sorted in place. Query i's key becomes its value << b | i
    and each entry's its value << b | q, so one np.sort of the keys (about
    half the time of an argsort of the queries alone) merges the entries
    into the sorted queries, each entry after every query of equal value.
    A running count of the entries then reads, at each query, how many
    entries lie below it, and the index bits scatter those counts back to
    query order; the entries' counts all land at q, past the result. Its
    temporaries peak below the search form's (tracemalloc, 2,448 queries
    into 548 entries: 69 against 79 KB)."""
    keys <<= b
    keys[:q] |= np.arange(q)
    keys[q:] |= q
    keys.sort()
    keys &= (1 << b) - 1  # a query's index, or q for an entry
    below = (keys == q).astype(np.intp)  # a cumsum over the bools would add a buffer
    at = np.empty(q + 1, dtype=np.intp)
    at[keys] = below.cumsum(out=below)
    return at[:-1]


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to exactly one dense community label."""

    community_of: list[int]
    community_count: int

    def __post_init__(self) -> None:
        used = set(self.community_of)
        if used != set(range(self.community_count)):
            raise ValueError("labels must be dense 0..k-1 with every label used")

    @classmethod
    def from_labels(cls, labels: Iterable[object]) -> "Partition":
        """Relabel arbitrary hashable labels densely, first appearance first."""
        dense: dict[object, int] = {}
        community_of = []
        for lab in labels:
            if lab not in dense:
                dense[lab] = len(dense)
            community_of.append(dense[lab])
        return cls(community_of=community_of, community_count=len(dense))

    def sizes(self) -> list[int]:
        counts = [0] * self.community_count
        for lab in self.community_of:
            counts[lab] += 1
        return counts

    def members(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.community_count)]
        for node, lab in enumerate(self.community_of):
            groups[lab].append(node)
        return groups


def load_edge_list(text: str) -> Graph:
    """Parse a "name_u name_v" edge list.

    Lines starting with '#' and blank lines are skipped. The format is
    strict: self-loops and duplicate edges are rejected as user error. The
    pairs before the first malformed line are checked as one array, and
    the error is the first failing line's.
    """
    ends: list[str] = []  # the two names of every edge line, in order
    line_of: list[int] = []  # the line number of every edge
    malformed = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 2:
            malformed = MalformedLineError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
            break
        ends += tokens
        line_of.append(lineno)
    name_to_id = {name: i for i, name in enumerate(dict.fromkeys(ends))}
    ids = np.fromiter(map(name_to_id.__getitem__, ends), dtype=np.int64, count=len(ends)).reshape(-1, 2)
    lo, hi = ids.min(axis=1), ids.max(axis=1)
    faults = _not_simple(lo, hi, len(name_to_id))
    if faults.any():
        e = int(faults.argmax())
        u, v = ends[2 * e : 2 * e + 2]
        if u == v:
            raise SelfLoopError(f"line {line_of[e]}: self-loop on '{u}'")
        raise DuplicateEdgeError(f"line {line_of[e]}: duplicate edge '{u}' '{v}'")
    if malformed is not None:
        raise malformed
    if not line_of:
        raise EmptyGraphError("edge list contains no edges")
    return Graph._of_simple_pairs(list(name_to_id), name_to_id, lo, hi)


def to_edge_list(g: Graph) -> str:
    """Serialize a graph back to edge-list text (inverse of load_edge_list).

    An edge whose first name starts with '#' is written the other way
    round, so that its line is not read back as a comment. A node no line
    can carry, because it has no edge, and an edge no line can carry,
    because both names start with '#' or a name is empty or holds
    whitespace, raise MalformedLineError.
    """
    isolated = np.flatnonzero(np.diff(g.indptr) == 0)
    if len(isolated):
        name = g.nodes[isolated[0]]
        raise MalformedLineError(f"node {name!r} has no edge, so no edge-list line can carry it")
    lines = []
    for u, v in g.edges:
        a, b = g.nodes[u], g.nodes[v]
        if a.startswith("#") and b.startswith("#") or a.split() != [a] or b.split() != [b]:
            raise MalformedLineError(f"edge {a!r}-{b!r} cannot be written as an edge-list line")
        lines.append(f"{b} {a}\n" if a.startswith("#") else f"{a} {b}\n")
    return "".join(lines)


# --- GML subset -------------------------------------------------------------
#
# Only the structure needed for the benchmark datasets: a graph [ ... ]
# block with node [ id .. (label ..) (value ..) ] and
# edge [ source .. target .. ] entries. Text before `graph [` and after its
# closing ']' is ignored. A token is a "string" (it may span lines; the
# quotes are dropped), a bracket, or a word: a run of anything but
# whitespace, brackets and '"'. A '#' that starts a token comments out the
# rest of its line; inside a word it is part of the word. A block is read
# as `key value` pairs, where the value is any one token, a ']' included;
# each entry keeps the first value of each key, and ids are matched as
# text. Any other nested block (e.g. graphics [...]) is skipped.
#
# One regex splits the text at its strings and its comments (a '#' that no
# word character precedes). A string with no closing quote runs to the end
# of the text, so only the last match can be one, and the text is checked
# before any token is read. No quantifier nests, so long runs cost linear
# time. The text between is cut at a newline every GML_CHUNK_CHARS
# characters, and str.split() cuts one chunk at a time into tokens,
# brackets spaced out, so a reader holds a chunk of tokens, not all of
# them. The graph block is read by _read_block from one iterator over the
# chunks; at a node or edge key it hands that iterator to the kind's
# _entry_reader. That reads the entry on its own with _read_block or,
# where a check finds it plain, with every entry after it in its chunk of
# the same kind and keys as one run, a column per key, with list slices.
# A node entry is kept as its id, label and value; an edge entry only as
# its source and target ids, in flat lists, since a graph has many more
# edges.

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


def load_gml(text: str) -> tuple[Graph, Partition | None]:
    """Parse the GML subset; returns the graph and, when every node carries a
    `value` field, the ground-truth partition encoded by those values.

    Duplicate edges (and self-loops) in the file are collapsed with a
    warning, since the circulating benchmark datasets contain them while the
    algorithm itself runs on simple graphs.
    """
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

        logging.getLogger(__name__).warning("collapsed %d duplicate/self-loop edge(s) in GML input", collapsed)

    return Graph._of_simple_pairs(names, name_to_id, lo[kept], hi[kept]), truth


# --- label files ------------------------------------------------------------


def parse_label_lines(text: str) -> dict[str, str]:
    """Parse a "name label" file into a name -> label-token map.

    The label is the last token of a line and the name is the rest of it,
    so a name may contain whitespace, as GML labels can.
    """
    labels: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.rsplit(None, 1)
        if len(tokens) != 2:
            raise MalformedLineError(f"line {lineno}: expected a name and a label, got {line!r}")
        name, label = tokens
        if name in labels:
            raise MalformedLineError(f"line {lineno}: duplicate label for '{name}'")
        labels[name] = label
    return labels


def load_labels(text: str, g: Graph) -> Partition:
    """Load a ground-truth partition for g from "name label" lines."""
    labels = parse_label_lines(text)
    for name in labels:
        if name not in g.name_to_id:
            raise UnknownNodeError(f"label file names unknown node '{name}'")
    raw = []
    for name in g.nodes:
        if name not in labels:
            raise UnknownNodeError(f"label file is missing node '{name}'")
        raw.append(labels[name])
    return Partition.from_labels(raw)


# --- connectivity -----------------------------------------------------------


def connected_components(g: Graph, removed: np.ndarray | None = None) -> Partition:
    """Flood-fill components over the edges not flagged in `removed` (one
    bool per edge id; None keeps every edge).

    Labels are assigned in order of each component's lowest node id, so the
    result is deterministic and independent of the slot order.
    """
    if removed is not None and len(removed) != g.edge_count:
        raise ValueError(f"{len(removed)} removal flags for {g.edge_count} edges")
    indptr = g.indptr.tolist()
    neighbors = g.neighbors.tolist()
    cut = None if removed is None else np.asarray(removed, dtype=bool)[g.edge_ids].tolist()
    labels = [-1] * g.node_count
    count = 0
    for start in range(g.node_count):
        if labels[start] != -1:
            continue
        labels[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for slot in range(indptr[u], indptr[u + 1]):
                v = neighbors[slot]
                if labels[v] == -1 and (cut is None or not cut[slot]):
                    labels[v] = count
                    stack.append(v)
        count += 1
    return Partition(community_of=labels, community_count=count)

