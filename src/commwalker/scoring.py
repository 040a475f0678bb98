"""Partition quality scoring and the accuracy metric.

Modularity follows the standard half-edge convention: with m edges,
Q = sum_i (intra_i / m - (degsum_i / 2m)^2), where intra_i counts edges with
both endpoints in community i and degsum_i sums the degrees of its nodes.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, NoEdgesError, PartitionMismatchError, SizeMismatchError
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
    lo, hi = g.ends()
    label_array = np.asarray(labels)
    of_lo, of_hi = label_array[lo], label_array[hi]
    intra = np.bincount(of_lo[of_lo == of_hi], minlength=p.community_count).tolist()
    degsum = [0] * p.community_count
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


def matched_total(counts: np.ndarray) -> int:
    """The largest total of a one-to-one matching of rows to columns of a
    non-negative integer matrix: each row and each column used at most once.

    Shortest augmenting paths (Jonker and Volgenant, Computing 1987, in the
    rectangular form of Crouse, IEEE TAES 2016): the k rows of the shorter
    side are added one at a time, each by a Dijkstra search over reduced
    costs that scans the K columns of the longer side as one array per
    visited row, so the matching costs O(k^2 * K). With non-negative
    weights some best matching uses every row of the shorter side, so the
    costs minimised are max - counts. All arithmetic is in int64, so the
    total is exact; it is unique though the matching may not be. Timed on
    a 2-core x86 VM: 0.5 ms at 15 x 20 and 0.2 ms at 124 x 7; at 300 x 300,
    10-90 ms on random matrices and 0.9 s on outer(arange, arange), where
    every path runs through every matched row (a compiled solver of the
    same method: a few ms).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    k, wide = counts.shape
    if k == 0:
        return 0
    cost = counts.max() - counts
    unreached = np.iinfo(np.int64).max
    u = np.zeros(k, dtype=np.int64)  # row duals
    v = np.zeros(wide, dtype=np.int64)  # column duals
    col_of_row = np.full(k, -1)
    row_of_col = np.full(wide, -1)
    for new_row in range(k):
        shortest = np.full(wide, unreached)  # path cost to each column
        via = np.full(wide, -1)  # the row before each column on its path
        col_done = np.zeros(wide, dtype=bool)
        rows_done = []
        row, reach = new_row, 0
        while True:
            rows_done.append(row)
            reduced = reach + cost[row] - u[row] - v
            open_mask = ~col_done
            closer = open_mask & (reduced < shortest)
            shortest[closer] = reduced[closer]
            via[closer] = row
            open_cols = np.flatnonzero(open_mask)
            reach = shortest[open_cols].min()
            nearest = open_cols[shortest[open_cols] == reach]
            free = nearest[row_of_col[nearest] < 0]
            col = free[0] if len(free) else nearest[0]  # a free column ends the path
            col_done[col] = True
            if len(free):
                break
            row = row_of_col[col]
        # keep every reduced cost non-negative, then flip the path
        u[new_row] += reach
        for row in rows_done[1:]:
            u[row] += reach - shortest[col_of_row[row]]
        v[col_done] -= reach - shortest[col_done]
        while True:
            row = via[col]
            row_of_col[col] = row
            col_of_row[row], col = col, col_of_row[row]
            if row == new_row:
                break
    return int(counts[np.arange(k), col_of_row].sum())


def partition_accuracy(predicted: Partition, truth: Partition) -> float:
    """Fraction of nodes placed correctly under the best one-to-one matching
    of predicted labels to true labels (matched_total of the confusion
    matrix).

    Surplus labels on either side stay unmatched and contribute nothing.
    Partitions of no nodes have no accuracy: InputError.
    """
    counts = confusion_matrix(predicted, truth)
    if not len(predicted.community_of):
        raise InputError("accuracy is undefined on partitions of no nodes")
    return matched_total(counts) / len(predicted.community_of)
