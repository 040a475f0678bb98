"""Partition quality scoring and the accuracy metric.

Modularity follows the standard half-edge convention: with m edges,
Q = sum_i (intra_i / m - (degsum_i / 2m)^2), where intra_i counts edges with
both endpoints in community i and degsum_i sums the degrees of its nodes.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NoEdgesError, PartitionMismatchError, SizeMismatchError, TooLargeError
from .graph import Graph, Partition

# Exhaustive partition enumeration explodes with the Bell numbers; 12 nodes
# (4.2M partitions) is the practical ceiling.
BRUTE_FORCE_NODE_LIMIT = 12


def modularity(g: Graph, p: Partition) -> float:
    """Score partition p on graph g; 0 for the single-community partition."""
    if len(p.community_of) != g.node_count:
        raise PartitionMismatchError(
            f"partition covers {len(p.community_of)} nodes, graph has {g.node_count}"
        )
    m = g.edge_count
    if m == 0:
        raise NoEdgesError("modularity is undefined on a graph with no edges")
    labels = p.community_of
    intra = [0] * p.community_count
    degsum = [0] * p.community_count
    for u, v in g.edges:
        if labels[u] == labels[v]:
            intra[labels[u]] += 1
    for label, d in zip(labels, g.degrees()):
        degsum[label] += d
    two_m = 2 * m
    q = 0.0
    for i in range(p.community_count):
        q += intra[i] / m - (degsum[i] / two_m) ** 2
    return q


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
    """Enumerate all set partitions of the nodes and return a max-Q one.

    Ties break toward fewer communities, then the lexicographically smallest
    label vector, so the result is deterministic. Intended as a test oracle
    for small graphs only.
    """
    n = g.node_count
    if n > BRUTE_FORCE_NODE_LIMIT:
        raise TooLargeError(f"{n} nodes exceeds the exhaustive limit of {BRUTE_FORCE_NODE_LIMIT}")
    m = g.edge_count
    if m == 0:
        raise NoEdgesError("modularity is undefined on a graph with no edges")
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


def confusion_matrix(predicted: Partition, truth: Partition) -> np.ndarray:
    """Count matrix: rows are predicted communities, columns true ones."""
    if len(predicted.community_of) != len(truth.community_of):
        raise SizeMismatchError(
            f"partitions cover {len(predicted.community_of)} vs {len(truth.community_of)} nodes"
        )
    counts = np.zeros((predicted.community_count, truth.community_count), dtype=np.int64)
    for p_lab, t_lab in zip(predicted.community_of, truth.community_of):
        counts[p_lab, t_lab] += 1
    return counts


def partition_accuracy(predicted: Partition, truth: Partition) -> float:
    """Fraction of nodes placed correctly under the best one-to-one matching
    of predicted labels to true labels (assignment on the confusion matrix).

    Surplus labels on either side stay unmatched and contribute nothing.
    """
    counts = confusion_matrix(predicted, truth)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    agreeing = int(counts[rows, cols].sum())
    return agreeing / len(predicted.community_of)
