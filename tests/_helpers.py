"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import operator
import random
import re
from importlib.resources import files
from itertools import combinations
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

import commwalker.pipeline as pipeline
from commwalker import (
    Graph,
    Partition,
    best_split,
    connected_components,
    edge_removal_order,
    load_edge_list,
    load_labels,
    modularity,
    sweep,
)
from commwalker.errors import (
    DanglingEdgeError,
    DuplicateEdgeError,
    EmptyGraphError,
    GmlParseError,
    MalformedLineError,
    SelfLoopError,
)
from commwalker.exploration import (
    ExplorationConfig,
    _Segments,
    exploration_done,
    select_start_nodes,
)
from commwalker.graph import _sorted_pair_table
from commwalker.synthetic import planted_partition

BARBELL_TEXT = "a b\na c\nb c\nc d\nd e\nd f\ne f\n"
BARBELL_BRIDGE = (2, 3)  # c-d


def record_configs(monkeypatch) -> list:
    """The list every later explore() call of detect appends its config to."""
    configs = []
    explore = pipeline.explore

    def recording(g, cfg):
        configs.append(cfg)
        return explore(g, cfg)

    monkeypatch.setattr(pipeline, "explore", recording)
    return configs


def pairs_graph(n: int, pairs: list[tuple[int, int]]) -> Graph:
    return Graph.from_edges([str(i) for i in range(n)], pairs)


def sorted_pair_table(g: Graph) -> Graph:
    """g with the sorted pair-key table in place of its dense one (then
    slot_of_key is None), built by the function that builds it for graphs
    above DENSE_PAIR_CELLS, so explore() and the walk kernel look pairs up
    there as they do on those graphs."""
    n = g.node_count
    owner = np.repeat(np.arange(n), np.diff(g.indptr))
    sorted_keys, slot_by_key = _sorted_pair_table(owner * n + g.neighbors, n)
    sorted_keys.flags.writeable = slot_by_key.flags.writeable = False
    return dataclasses.replace(g, sorted_keys=sorted_keys, slot_by_key=slot_by_key, slot_of_key=None)


def neighbor_lists(g: Graph) -> list[list[int]]:
    """The CSR rows of g as one list of neighbors per node."""
    return [row.tolist() for row in np.split(g.neighbors, g.indptr[1:-1])]


def replay(values) -> SimpleNamespace:
    """A stream for run_walk that yields `values` in order."""
    return SimpleNamespace(random=iter(values).__next__)


def barbell6() -> Graph:
    """Two triangles {a,b,c} and {d,e,f} joined by the bridge c-d."""
    return load_edge_list(BARBELL_TEXT)


def triangle() -> Graph:
    return pairs_graph(3, [(0, 1), (0, 2), (1, 2)])


def path_graph(n: int) -> Graph:
    return pairs_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return pairs_graph(n, [(i, (i + 1) % n) for i in range(n)])


def karate() -> tuple[Graph, Partition]:
    data = files("commwalker") / "data"
    g = load_edge_list((data / "karate.edges").read_text())
    truth = load_labels((data / "karate_truth.labels").read_text(), g)
    return g, truth


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus random extra edges; always connected."""
    pairs = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        pairs.add((min(u, v), max(u, v)))
    extra = rng.randrange(0, n * (n - 1) // 2 - (n - 1) + 1)
    candidates = [p for p in combinations(range(n), 2) if p not in pairs]
    rng.shuffle(candidates)
    pairs.update(candidates[:extra])
    return pairs_graph(n, sorted(pairs))


def random_partition(rng: random.Random, n: int) -> Partition:
    k = rng.randrange(1, n + 1)
    labels = [rng.randrange(k) for _ in range(n)]
    return Partition.from_labels(labels)


def induced_subgraph(g: Graph, node_ids) -> tuple[Graph, list[int], list[int]]:
    """Subgraph induced by node_ids; returns (subgraph, sub-id -> original
    id, sub edge id -> original edge id).

    Node names are preserved; edges keep their original relative order, so
    the edge ids ascend. A node set spanning the whole graph gives g itself,
    uncopied.
    """
    kept = sorted(set(node_ids))
    if len(kept) == g.node_count:
        return g, kept, list(range(g.edge_count))
    orig_to_sub = {orig: sub for sub, orig in enumerate(kept)}
    names = [g.nodes[orig] for orig in kept]
    edge_ids = [e for e, (u, v) in enumerate(g.edges) if u in orig_to_sub and v in orig_to_sub]
    pairs = [(orig_to_sub[u], orig_to_sub[v]) for u, v in (g.edges[e] for e in edge_ids)]
    return Graph.from_edges(names, pairs), kept, edge_ids


def per_component_split(g: Graph, w: np.ndarray) -> Partition:
    """Reference for best_split(g, sweep(g, w)).partition: every
    component swept and split on its own induced subgraph, its community
    labels offset by those of the components before it (components in
    connected_components order; a lone node is one community)."""
    labels = [-1] * g.node_count
    offset = 0
    for members in connected_components(g).members():
        sub, orig_ids, edge_ids = induced_subgraph(g, members)
        if sub.edge_count == 0:
            labels[orig_ids[0]] = offset
            offset += 1
            continue
        weights = w[edge_ids]
        split = best_split(sub, sweep(sub, weights))
        for sub_id, orig_id in enumerate(orig_ids):
            labels[orig_id] = offset + split.partition.community_of[sub_id]
        offset += split.partition.community_count
    return Partition(community_of=labels, community_count=offset)


def reachability_components(g: Graph, removed: list[bool]) -> list[int]:
    """Component labels via boolean transitive closure; independent of the
    BFS flood fill used by the library."""
    n = g.node_count
    reach = [[i == j for j in range(n)] for i in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        if not removed[eid]:
            reach[u][v] = reach[v][u] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    labels = [-1] * n
    count = 0
    for i in range(n):
        if labels[i] == -1:
            for j in range(n):
                if reach[i][j]:
                    labels[j] = count
            count += 1
    return labels


def connected_planted(blocks: int, size: int, p_in: float, p_out: float, seed: int):
    """Planted-partition sample, redrawing deterministically until connected."""
    for attempt in range(100):
        g, truth = planted_partition(blocks, size, p_in, p_out, seed + 100_000 * attempt)
        if connected_components(g).community_count == 1:
            return g, truth
    raise RuntimeError("no connected planted sample found")


def one_component(hits, cfg: ExplorationConfig) -> tuple[np.ndarray, _Segments]:
    """hits as int64 and the one-segment layout of a single component whose
    nodes are all of hits, the arguments start selection and the stop rule
    read for one component."""
    hits = np.asarray(hits, dtype=np.int64)
    return hits, _Segments.of_sizes(np.array([len(hits)]), cfg)


def starts_alone(hits, cfg: ExplorationConfig, generation: int) -> np.ndarray:
    """select_start_nodes on a single component whose hit counts are hits."""
    hits, segments = one_component(hits, cfg)
    return select_start_nodes(hits, cfg, generation, segments)


def done_alone(hits, cfg: ExplorationConfig) -> bool:
    """exploration_done's verdict on a single component whose hit counts are hits."""
    hits, segments = one_component(hits, cfg)
    (done,) = exploration_done(hits, cfg, segments)
    return bool(done)


def apply_memory_update(counts: dict[tuple[int, int], int], memory) -> None:
    """Full-pair reference for the weight update: add 1 to every unordered
    pair (u, v), u < v, of distinct nodes in the memory, edge or not.

    Pairs are taken over the set of memory nodes, so revisits do not
    multiply increments."""
    nodes = sorted(set(memory))
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            counts[(u, v)] = counts.get((u, v), 0) + 1


def edge_weights(g: Graph, counts: dict[tuple[int, int], int] | None = None) -> np.ndarray:
    """The edge entries of a pair-count dict keyed (u, v) with u < v, as the
    int64 array indexed by edge id that the library reads; all zero when no
    counts are given. Entries for pairs that are not edges are dropped."""
    counts = counts or {}
    return np.array([counts.get(edge, 0) for edge in g.edges], dtype=np.int64)


def move_probabilities(g: Graph, w: np.ndarray, current: int, tabu: set[int]) -> list[float]:
    """Oracle for the move distribution over the slots of row `current`
    (its incident edges in edge-id order).

    Non-tabu neighbors get probability proportional to 1 + edge weight; tabu
    neighbors get 0. When every neighbor is tabu the tabu is dropped and all
    neighbors compete, so a walk can never deadlock.
    """
    row = slice(g.indptr[current], g.indptr[current + 1])
    neighbors, edge_ids = g.neighbors[row].tolist(), g.edge_ids[row].tolist()
    if not neighbors:
        raise ValueError(f"node {current} has no neighbors")
    allowed = [i for i, v in enumerate(neighbors) if v not in tabu]
    if not allowed:
        allowed = list(range(len(neighbors)))
    weights = [1 + int(w[edge_ids[i]]) for i in allowed]
    total = sum(weights)
    probs = [0.0] * len(neighbors)
    for i, wt in zip(allowed, weights):
        probs[i] = wt / total
    return probs


def run_walk(g: Graph, w: np.ndarray, start: int, memory_size: int, rng) -> list[int]:
    """Scalar reference for the lockstep walk kernel: one agent walk of
    exactly memory_size nodes starting at `start`.

    Every node already in this walk's memory is tabu; the tabu is dropped
    for a step when it would block every neighbor. A step moves to a
    non-tabu neighbor with probability proportional to 1 + edge weight,
    spending one uniform draw when there is more than one candidate. rng
    needs only a .random() method returning floats in [0, 1).

    Fed row k of the generation's _walk_uniforms in order, with the
    generation's weight snapshot, it returns the memory that agent k gets
    in explore().
    """
    indptr = g.indptr.tolist()
    if indptr[start] == indptr[start + 1]:
        raise ValueError(f"node {start} has no neighbors")
    neighbors = g.neighbors.tolist()
    mass = (1 + w[g.edge_ids]).tolist()  # move mass of each slot
    uniform = rng.random
    memory = [start]
    visited = {start}
    current = start
    for _ in range(memory_size - 1):
        row = range(indptr[current], indptr[current + 1])
        candidates = [s for s in row if neighbors[s] not in visited] or row
        if len(candidates) == 1:
            slot = candidates[0]
        else:
            r = uniform() * sum(mass[s] for s in candidates)
            acc = 0
            for slot in candidates:
                acc += mass[slot]
                if r < acc:
                    break
        current = neighbors[slot]
        memory.append(current)
        visited.add(current)
    return memory


# Exhaustive partition enumeration explodes with the Bell numbers; 12 nodes
# (4.2M partitions) is the practical ceiling.
BRUTE_FORCE_NODE_LIMIT = 12


def _set_partitions(n: int):
    """Yield every set partition of range(n) as (labels, k), lexicographically.

    Labels are restricted growth strings (canonical dense labelings). The
    yielded list is reused between iterations; copy it before storing.
    """
    labels = [0] * n
    prefix_max = [0] * n  # prefix_max[i] = max(labels[:i]), safe at 0 since labels[0] == 0
    while True:
        yield labels, max(prefix_max[n - 1], labels[n - 1]) + 1
        i = n - 1
        while i > 0 and labels[i] > prefix_max[i]:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        for j in range(i + 1, n):
            labels[j] = 0
            prefix_max[j] = max(prefix_max[j - 1], labels[j - 1])


def brute_force_best_partition(g: Graph) -> tuple[Partition, float]:
    """Oracle for the best split: enumerate all set partitions of the nodes
    and return a max-Q one, for small graphs only.

    Ties break toward fewer communities, then the lexicographically smallest
    label vector, so the result is deterministic.
    """
    n = g.node_count
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(f"{n} nodes exceeds the exhaustive limit of {BRUTE_FORCE_NODE_LIMIT}")
    m = g.edge_count
    if m == 0:
        raise ValueError("modularity is undefined on a graph with no edges")
    edges = g.edges
    deg = g.degrees()
    two_m = 2 * m

    best_labels: list[int] = []
    best_k = 0
    best_q = -float("inf")
    for labels, k in _set_partitions(n):
        # same operation order as modularity(), so scores compare bit-for-bit
        intra = [0] * k
        degsum = [0] * k
        for u, v in edges:
            if labels[u] == labels[v]:
                intra[labels[u]] += 1
        for u in range(n):
            degsum[labels[u]] += deg[u]
        q = 0.0
        for i in range(k):
            q += intra[i] / m - (degsum[i] / two_m) ** 2
        if q > best_q or (
            q == best_q and (k < best_k or (k == best_k and labels < best_labels))
        ):
            best_labels = list(labels)
            best_k = k
            best_q = q
    return Partition(community_of=best_labels, community_count=best_k), best_q


class FloodFillRecord(NamedTuple):
    removed_edge_count: int
    partition: Partition
    q: float


def flood_fill_sweep(g: Graph, w: np.ndarray) -> list[FloodFillRecord]:
    """Reference for sweep(): remove edges one at a time in removal order,
    flood-fill after every cut, and record the partition and its float
    modularity whenever the component count grows. O(m·(n+m))."""
    if connected_components(g).community_count != 1:
        raise ValueError("the reference sweeps a connected graph")
    cut = np.zeros(g.edge_count, dtype=bool)
    baseline = connected_components(g, cut)
    records = [FloodFillRecord(0, baseline, modularity(g, baseline))]
    component_count = baseline.community_count
    for removed, eid in enumerate(edge_removal_order(w).tolist(), start=1):
        cut[eid] = True
        parts = connected_components(g, cut)
        if parts.community_count > component_count:
            records.append(FloodFillRecord(removed, parts, modularity(g, parts)))
            component_count = parts.community_count
    return records


def scaled_modularity(g: Graph, p: Partition) -> int:
    """Exact integer Q·4m² of p on g: 4m·(intra-community edges) minus the
    sum over communities of the squared degree sum."""
    labels = p.community_of
    intra = sum(labels[u] == labels[v] for u, v in g.edges)
    degsum = [0] * p.community_count
    for u, v in g.edges:
        degsum[labels[u]] += 1
        degsum[labels[v]] += 1
    return 4 * g.edge_count * intra - sum(d * d for d in degsum)


# --- GML and edge-pair references --------------------------------------------
#
# The GML reader as one regex findall and a recursive reader over token
# indices, and Graph.from_edges's checks as a loop over the pairs. They are
# slow and plain; the fuzz tests pin graph.load_gml, its tokenizer and
# Graph.from_edges to them, results and errors alike.

# group 1 holds a token; whitespace and comments match with it empty
_GML_TOKEN = re.compile(r'\s+|#[^\n]*|("[^"]*"|[][]|[^\s[\]"]+|")')


def reference_tokenize_gml(text: str) -> list[str]:
    """The tokens of text as written: strings keep their quotes."""
    tokens = [token for token in _GML_TOKEN.findall(text) if token]
    if '"' in tokens:
        raise GmlParseError("unterminated string literal")
    return tokens


def _unquote(token: str) -> str:
    return token[1:-1] if token[0] == '"' else token


def _skip_block(tokens: list[str], i: int) -> int:
    """Advance past a balanced [ ... ] block; i points at the opening '['."""
    depth = 0
    while i < len(tokens):
        if tokens[i] == "[":
            depth += 1
        elif tokens[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise GmlParseError("unbalanced brackets")


def _read_block(
    tokens: list[str], i: int, where: str, entries: tuple[str, ...] = ()
) -> tuple[dict[str, str], dict[str, list[dict[str, str]]], int]:
    """Read the block whose '[' is tokens[i] as `key value` pairs up to its
    ']'. Returns (fields, blocks, i past the block): fields maps each key to
    its first scalar value, blocks maps each key in entries to the fields
    of its blocks, in order. Any other nested block is skipped."""
    if i >= len(tokens) or tokens[i] != "[":
        raise GmlParseError(f"expected '[' after {where}")
    fields: dict[str, str] = {}
    blocks: dict[str, list[dict[str, str]]] = {key: [] for key in entries}
    i += 1
    while i < len(tokens):
        key = tokens[i]
        if key == "]":
            return fields, blocks, i + 1
        if key == "[" or key[0] == '"':
            raise GmlParseError(f"unexpected token {_unquote(key)!r} in {where} block")
        i += 1
        if key in blocks:
            entry, _, i = _read_block(tokens, i, "/".join(entries))
            blocks[key].append(entry)
        elif i >= len(tokens):
            break
        elif tokens[i] == "[":
            i = _skip_block(tokens, i)
        else:
            if key not in fields:  # first occurrence wins
                fields[key] = _unquote(tokens[i])
            i += 1
    raise GmlParseError(f"unbalanced brackets: {where} block never closed")


def reference_edges(names: list[str], edge_pairs) -> list[tuple[int, int]]:
    """The edges Graph.from_edges keeps, each as (lower id, higher id), or
    the error it raises: the checks of each pair in turn."""
    if len(set(names)) != len(names):
        raise MalformedLineError("node names are not unique")
    n, ids = len(names), range(len(names))
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in edge_pairs:
        try:
            ends = iter(pair)
        except TypeError:
            raise DanglingEdgeError(f"edge {pair!r} is not a pair of node ids") from None
        try:
            u, v = map(operator.index, ends)
        except TypeError:
            raise DanglingEdgeError(f"edge {pair!r} names a node id that is not an integer") from None
        except ValueError:
            raise DanglingEdgeError(f"edge {pair!r} is not a pair of node ids") from None
        if u not in ids or v not in ids:
            raise DanglingEdgeError(f"edge {pair!r} names a node id outside range({n})")
        if u == v:
            raise SelfLoopError(f"self-loop on node '{names[u]}'")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise DuplicateEdgeError(f"duplicate edge '{names[u]}'-'{names[v]}'")
        seen.add((u, v))
        edges.append((u, v))
    return edges


def reference_load_edge_list(text: str) -> Graph:
    """What load_edge_list reads from text, or the error it raises: each
    line checked in turn, its names interned and its pair looked up in a
    set of the pairs before it."""
    names: list[str] = []
    ids: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    def intern(name: str) -> int:
        if name not in ids:
            ids[name] = len(names)
            names.append(name)
        return ids[name]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLineError(f"line {lineno}: expected 2 tokens, got {len(tokens)}")
        u, v = intern(tokens[0]), intern(tokens[1])
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop on '{tokens[0]}'")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge '{tokens[0]}' '{tokens[1]}'")
        seen.add(key)
        pairs.append(key)
    if not pairs:
        raise EmptyGraphError("edge list contains no edges")
    return Graph.from_edges(names, pairs)


def reference_load_gml(text: str) -> tuple[list[str], list[tuple[int, int]], list[int] | None]:
    """What load_gml reads from text: (node names, edges, truth labels or
    None), or the error it raises."""
    tokens = reference_tokenize_gml(text)
    i = 0
    while i + 1 < len(tokens) and not (tokens[i] == "graph" and tokens[i + 1] == "["):
        i += 1
    if i + 1 >= len(tokens):
        raise GmlParseError("no 'graph [' block found")
    _, blocks, _ = _read_block(tokens, i + 1, "graph", ("node", "edge"))
    names: list[str] = []
    gml_to_dense: dict[str, int] = {}
    values: list[str | None] = []
    for entry in blocks["node"]:
        if "id" not in entry:
            raise GmlParseError("node block missing 'id'")
        gml_id = entry["id"]
        if gml_id in gml_to_dense:
            raise GmlParseError(f"duplicate node id {gml_id}")
        name = entry.get("label", gml_id)
        if name in names:
            raise GmlParseError(f"duplicate node name {name!r}")
        gml_to_dense[gml_id] = len(names)
        names.append(name)
        values.append(entry.get("value"))
    pairs: list[tuple[int, int]] = []
    for entry in blocks["edge"]:
        if "source" not in entry or "target" not in entry:
            raise GmlParseError("edge block missing 'source' or 'target'")
        try:
            u = gml_to_dense[entry["source"]]
            v = gml_to_dense[entry["target"]]
        except KeyError as exc:
            raise DanglingEdgeError(f"edge references unknown node id {exc.args[0]}") from None
        key = (min(u, v), max(u, v))
        if u != v and key not in pairs:  # duplicates and self-loops collapse
            pairs.append(key)
    truth = None
    if names and None not in values:
        truth = Partition.from_labels(values).community_of
    return names, reference_edges(names, pairs), truth
