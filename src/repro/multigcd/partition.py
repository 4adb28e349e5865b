"""1D vertex partitioning for multi-GCD BFS.

The standard Graph500 decomposition: each GCD owns a contiguous vertex
range (rows of the CSR matrix) and the full adjacency of its owned
vertices, balanced by owned-edge count — for power-law graphs much
better than equal vertex counts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["partition_by_edges"]


def partition_by_edges(graph: CSRGraph, num_parts: int) -> np.ndarray:
    """Boundaries balancing *owned edges* per part — for skewed degree
    distributions this is what keeps per-GCD expand kernels balanced.

    Returns ``num_parts + 1`` non-decreasing int64 boundaries from 0 to
    ``graph.num_vertices``; part ``p`` owns vertices
    ``[bounds[p], bounds[p + 1])``."""
    if num_parts < 1 or num_parts > graph.num_vertices:
        raise PartitionError(
            f"num_parts must be in [1, {graph.num_vertices}], got {num_parts}"
        )
    targets = np.linspace(0, graph.num_edges, num_parts + 1)
    # row_offsets is the cumulative edge count; invert it at the targets.
    b = np.searchsorted(graph.row_offsets, targets, side="left").astype(np.int64)
    b[0] = 0
    b[-1] = graph.num_vertices
    # Monotonicity can be violated on empty stretches; repair.
    return np.maximum.accumulate(b)
