"""Partition quality scoring and the accuracy metric.

Modularity follows the standard half-edge convention: with m edges,
Q = sum_i (intra_i / m - (degsum_i / 2m)^2), where intra_i counts edges with
both endpoints in community i and degsum_i sums the degrees of its nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import NoEdgesError, PartitionMismatchError, SizeMismatchError
from .graph import Graph, Partition


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
    scipy is imported here, not at module level: loading scipy.optimize
    takes several times as long as a karate detect, and detect never
    scores accuracy.
    """
    from scipy.optimize import linear_sum_assignment

    counts = confusion_matrix(predicted, truth)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    agreeing = int(counts[rows, cols].sum())
    return agreeing / len(predicted.community_of)
