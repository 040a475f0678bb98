"""Undirected simple graph: construction, edge-list and label files,
connected components.

Nodes carry external string names; internally everything runs on dense
integer ids assigned in first-appearance order. Edges get dense ids in
input order, each read as (u, v) with u < v. Edges are stored once, in
the CSR arrays that Graph._of_simple_pairs builds for every reader
(from_edges, load_edge_list, and load_gml, whose reader is gml.py, loaded
on its first call): the walk kernel, the sweep, the flood fill and
modularity all read them, and Graph.ends reads each edge's two ends off
them. Graph.edges, the (u, v) tuples, is built from those ends only when
a caller reads it (to_edge_list does). Which pairs of nodes are edges,
and at which slot, is looked up by pair key u * n + v in the one pair
table built there: a dense table of all n * n keys, read with one gather,
when it has at most DENSE_PAIR_CELLS entries, and otherwise the sorted
table of the 2m slot keys, searched. Graph.slots_of, the one lookup,
takes each pair as its two nodes, builds the key and reads whichever
table the graph has, so no other module knows how a pair is keyed or
stored. The connected components are found once per graph, on first use
of Graph.components, and every phase of detection reads that one
partition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    EmptyGraphError,
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
    slots_of takes pairs as two node arrays, keys them and looks them up
    in whichever table the graph has, so no other module knows the key or
    the table. ends() reads the lower and upper end of every edge off the
    rows, as int64 arrays indexed by edge id. The arrays are read-only.
    The values filled after construction are components and edges (the
    list of (u, v) tuples that ends() gives), each on first read; both are
    pure functions of the arrays, so two concurrent first reads at worst
    compute one twice and store equal values, and a graph is safe to share
    across any number of concurrent readers.
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

    def slots_of(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The slot of v in u's row for each pair of the int64 node arrays u
        and v broadcast together, in their broadcast shape, or 2m where u
        and v are no edge: the pair key u * n + v is looked up with one
        gather from the dense pair table, or one search in the sorted one."""
        keys = u * self.node_count + v
        if self.slot_of_key is not None:
            return self.slot_of_key[keys]
        flat = keys.ravel()
        at = _search_in_order(self.sorted_keys, flat)  # the sentinel ends every search
        return np.where(self.sorted_keys[at] == flat, self.slot_by_key[at], len(self.neighbors)).reshape(keys.shape)

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
                try:
                    iter(pair)
                except TypeError:  # the pair itself is no sequence of ids
                    why[k] = "is not a pair of node ids"
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


# --- GML --------------------------------------------------------------------


def load_gml(text: str) -> tuple[Graph, Partition | None]:
    """Parse the GML subset; returns the graph and, when every node carries a
    `value` field, the ground-truth partition encoded by those values.

    Duplicate edges (and self-loops) in the file are collapsed with a
    warning, since the circulating benchmark datasets contain them while the
    algorithm itself runs on simple graphs. The reader lives in gml.py,
    imported on the first call, so a run that reads no GML never loads it.
    """
    from . import gml

    return gml.load(text)


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

