"""Edge-removal sweep: cut edges in ascending weight order, score every
component split by modularity, keep the best.

Walkers never cross a connected component, so every component is cut and
scored on its own: its edges go in its own removal order (the graph's
order restricted to them), and its candidates are scored with its own edge
count m. One pass over the whole graph does this for every component,
since the union-find below never merges across components.

The sweep walks the removal order backwards over a union-find: it starts
from singletons and adds the edges from last to first, so every merge of
two sets is, read forwards, the cut that splits them. Each set carries its
degree sum, and a merge moves the smaller set's members into the larger
one while counting their neighbours already there: those are the original
edges that become internal (the merge bookkeeping of Clauset, Newman &
Moore 2004). That is O(m log n) neighbour visits for the whole sweep, plus
one flood fill over the merges recorded before each winner to materialise
the winners; only sweep orders the edges.

Each candidate is scored by the exact integer 4m·Σintra − Σdeg² of its
component, which is Q·4m² on that component alone, so exact ties stay
ties: the highest score wins, and a tie goes to the candidate with fewer
removed edges. The sweep runs to exhaustion because modularity along the
removal sequence is not unimodal; stopping at the first decline could miss
the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, connected_components
from .scoring import modularity


@dataclass(frozen=True)
class CandidateRecord:
    """One candidate community structure of a connected component met
    during the sweep: the parts left once the first removed_edge_count of
    its edges in removal order are cut, and their modularity on the
    component as the exact integer q_scaled = Q·4m², m its edge count.
    cut_edge is the edge whose cut made it (None on the first record)."""

    removed_edge_count: int
    community_count: int
    q_scaled: int
    cut_edge: int | None = None


@dataclass(frozen=True)
class Split:
    """Every component's winning candidate, in g.components order,
    materialised as one partition of the graph; q is
    modularity(g, partition)."""

    winners: tuple[CandidateRecord, ...]
    partition: Partition
    q: float

    @property
    def removed_edge_count(self) -> int:
        """The edges cut over all components."""
        return sum(best.removed_edge_count for best in self.winners)


def edge_removal_order(w: np.ndarray) -> np.ndarray:
    """Edge ids sorted by ascending weight; ties by ascending edge id."""
    return np.argsort(w, kind="stable")


def sweep(g: Graph, w: np.ndarray) -> list[list[CandidateRecord]]:
    """Every candidate of every connected component of g, one list per
    component in g.components order.

    A component's list has one record per increase of its community count
    as its edges are cut in removal order, in order of removed edges: the
    first is the whole component as one community (Q = 0), the last is all
    singletons. A lone node's only record is CandidateRecord(0, 1, 0).
    w holds one weight per edge id.
    """
    if np.ndim(w) != 1:
        raise ValueError(f"weights must be 1-D, got shape {np.shape(w)}")
    if len(w) != g.edge_count:
        raise ValueError(f"{len(w)} weights for {g.edge_count} edges")
    components = g.components
    of = components.community_of
    indptr = g.indptr.tolist()
    neighbors = g.neighbors.tolist()
    lo, hi = (end.tolist() for end in g.ends())
    degsum = g.degrees()
    # per component: communities left, 2m, Σdeg² and intra-community edges
    k = components.sizes()
    two_m = [0] * len(k)
    square_sum = [0] * len(k)
    for u, d in enumerate(degsum):
        two_m[of[u]] += d
        square_sum[of[u]] += d * d
    intra = [0] * len(k)
    left = [twice // 2 for twice in two_m]  # edges not yet added back
    component = list(range(g.node_count))
    members = [[u] for u in range(g.node_count)]
    records: list[list[CandidateRecord]] = [[] for _ in k]
    for e in reversed(edge_removal_order(w).tolist()):
        u, v = lo[e], hi[e]
        c = of[u]
        removed = left[c]
        left[c] = removed - 1
        a, b = component[u], component[v]
        if a == b:
            continue
        records[c].append(CandidateRecord(removed, k[c], 2 * two_m[c] * intra[c] - square_sum[c], e))
        if len(members[a]) > len(members[b]):
            a, b = b, a
        moved = members[a]
        joined = 0
        for x in moved:
            for y in neighbors[indptr[x] : indptr[x + 1]]:
                if component[y] == b:
                    joined += 1
        for x in moved:
            component[x] = b
        members[b].extend(moved)
        members[a] = []
        intra[c] += joined
        square_sum[c] += 2 * degsum[a] * degsum[b]
        degsum[b] += degsum[a]
        k[c] -= 1
    for c, own in enumerate(records):
        own.append(CandidateRecord(0, 1, 2 * two_m[c] * intra[c] - square_sum[c]))
        own.reverse()
    return records


def best_partition(candidates: list[CandidateRecord]) -> CandidateRecord:
    """The candidate with maximal Q; ties break toward fewer removed edges."""
    return max(candidates, key=lambda r: (r.q_scaled, -r.removed_edge_count))


def best_split(g: Graph, candidates: list[list[CandidateRecord]]) -> Split:
    """Materialise the best of every component's candidates, as listed by
    sweep(g, w): the components of g over the cut_edges of the records
    after each winner, the merges the sweep made before reaching it.

    Communities are numbered component by component, in g.components
    order, and within a component by lowest node.
    """
    if len(candidates) != g.components.community_count:
        raise ValueError(f"{len(candidates)} candidate lists for {g.components.community_count} components")
    removed = np.ones(g.edge_count, dtype=bool)
    winners = tuple(best_partition(records) for records in candidates)
    for records, best in zip(candidates, winners):
        removed[[r.cut_edge for r in records[records.index(best) + 1 :]]] = False
    # the flood fill numbers the parts by lowest node over the whole graph;
    # within a component that order is kept
    keys = list(zip(g.components.community_of, connected_components(g, removed).community_of))
    label = {key: i for i, key in enumerate(sorted(set(keys)))}
    partition = Partition([label[key] for key in keys], len(label))
    return Split(winners, partition, modularity(g, partition))
