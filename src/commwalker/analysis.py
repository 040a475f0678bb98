"""Edge-removal sweep: cut edges in ascending weight order, score every
component split by modularity on the original graph, keep the best.

The sweep walks the removal order backwards over a union-find: it starts
from singletons and adds the edges from last to first, so every merge of
two components is, read forwards, the cut that splits them. Each component
carries its degree sum, and a merge moves the smaller component's members
into the larger one while counting their neighbours already there: those
are the original edges that become internal (the merge bookkeeping of
Clauset, Newman & Moore 2004). That is O(m log n) neighbour visits for the
whole sweep, plus one flood fill to materialise the winner.

Each candidate is scored by the exact integer 4m·Σintra − Σdeg², which is
Q·4m², so exact ties stay ties: the highest score wins, and a tie goes to
the candidate with fewer removed edges. The sweep runs to exhaustion
because modularity along the removal sequence is not unimodal; stopping at
the first decline could miss the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEdgesError, NotConnectedError
from .exploration import EdgeWeights
from .graph import Graph, Partition, connected_components
from .modularity import modularity


@dataclass(frozen=True)
class CandidateRecord:
    """One candidate community structure met during the sweep: the
    components left once the first removed_edge_count edges of the removal
    order are cut, and their modularity on the original graph as the exact
    integer q_scaled = Q·4m²."""

    removed_edge_count: int
    community_count: int
    q_scaled: int


@dataclass(frozen=True)
class Split:
    """The winning candidate, materialised; q is modularity(g, partition)."""

    removed_edge_count: int
    partition: Partition
    q: float


def edge_removal_order(w: EdgeWeights) -> np.ndarray:
    """Edge ids sorted by ascending weight; ties by ascending edge id."""
    return np.argsort(w, kind="stable")


def sweep(g: Graph, w: EdgeWeights) -> list[CandidateRecord]:
    """Every candidate met while removing edges in removal order, one per
    increase of the component count, in order of removed edges.

    The first record is the baseline single-community partition (Q = 0);
    the last is all singletons.
    """
    m = g.edge_count
    order = edge_removal_order(w).tolist()
    indptr = g.indptr.tolist()
    neighbors = g.neighbors.tolist()
    component = list(range(g.node_count))
    members = [[u] for u in range(g.node_count)]
    degsum = g.degrees()
    square_sum = sum(d * d for d in degsum)
    intra = 0
    k = g.node_count
    records = []
    for removed in range(m, 0, -1):
        u, v = g.edges[order[removed - 1]]
        a, b = component[u], component[v]
        if a == b:
            continue
        records.append(CandidateRecord(removed, k, 4 * m * intra - square_sum))
        if len(members[a]) > len(members[b]):
            a, b = b, a
        moved = members[a]
        for x in moved:
            for y in neighbors[indptr[x] : indptr[x + 1]]:
                if component[y] == b:
                    intra += 1
        for x in moved:
            component[x] = b
        members[b].extend(moved)
        members[a] = []
        square_sum += 2 * degsum[a] * degsum[b]
        degsum[b] += degsum[a]
        k -= 1
    if k != 1:
        raise NotConnectedError("sweep needs a connected graph")
    if m == 0:
        raise NoEdgesError("modularity is undefined on a graph with no edges")
    records.append(CandidateRecord(0, 1, 4 * m * intra - square_sum))
    records.reverse()
    return records


def best_partition(candidates: list[CandidateRecord]) -> CandidateRecord:
    """The candidate with maximal Q; ties break toward fewer removed edges."""
    return max(candidates, key=lambda r: (r.q_scaled, -r.removed_edge_count))


def best_split(g: Graph, w: EdgeWeights, candidates: list[CandidateRecord]) -> Split:
    """Materialise the best of sweep(g, w)'s candidates: the components of
    g once the first k = removed_edge_count edges of the removal order are
    cut. Those edges are selected, not sorted again: every edge lighter than
    the k-th smallest weight, then the lowest-id edges of that weight."""
    best = best_partition(candidates)
    k = best.removed_edge_count
    removed = np.zeros(g.edge_count, dtype=bool)
    if k:
        cut = np.partition(w, k - 1)[k - 1]
        removed = w < cut
        removed[np.flatnonzero(w == cut)[: k - removed.sum()]] = True
    partition = connected_components(g, removed)
    return Split(best.removed_edge_count, partition, modularity(g, partition))
