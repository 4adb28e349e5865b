"""1D vertex partitioning for multi-GCD BFS.

The standard Graph500 decomposition: each GCD owns a contiguous vertex
range (rows of the CSR matrix) and the full adjacency of its owned
vertices. Balanced either by vertex count or — usually much better for
power-law graphs — by owned-edge count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = ["Partition1D", "partition_by_vertices", "partition_by_edges"]


@dataclass(frozen=True)
class Partition1D:
    """Contiguous 1D ownership map.

    ``boundaries`` has ``num_parts + 1`` entries; part ``p`` owns
    vertices ``[boundaries[p], boundaries[p+1])``.
    """

    boundaries: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=np.int64)
        object.__setattr__(self, "boundaries", b)
        if b.size < 2:
            raise PartitionError("need at least one part")
        if b[0] != 0 or np.any(np.diff(b) < 0):
            raise PartitionError("boundaries must start at 0 and be non-decreasing")

    @property
    def num_parts(self) -> int:
        return self.boundaries.size - 1

    @property
    def num_vertices(self) -> int:
        return int(self.boundaries[-1])

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning part of each vertex (vectorised searchsorted)."""
        vertices = np.asarray(vertices)
        if vertices.size and (
            vertices.min() < 0 or vertices.max() >= self.num_vertices
        ):
            raise PartitionError("vertex id outside the partitioned range")
        return np.searchsorted(self.boundaries, vertices, side="right") - 1

    def owned_range(self, part: int) -> tuple[int, int]:
        if not 0 <= part < self.num_parts:
            raise PartitionError(f"part {part} out of range [0, {self.num_parts})")
        return int(self.boundaries[part]), int(self.boundaries[part + 1])


def partition_by_vertices(graph: CSRGraph, num_parts: int) -> Partition1D:
    """Equal vertex counts per part."""
    if num_parts < 1 or num_parts > graph.num_vertices:
        raise PartitionError(
            f"num_parts must be in [1, {graph.num_vertices}], got {num_parts}"
        )
    b = np.linspace(0, graph.num_vertices, num_parts + 1).astype(np.int64)
    return Partition1D(b)


def partition_by_edges(graph: CSRGraph, num_parts: int) -> Partition1D:
    """Balance *owned edges* per part — for skewed degree
    distributions this is what keeps per-GCD expand kernels balanced."""
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
    b = np.maximum.accumulate(b)
    return Partition1D(b)
