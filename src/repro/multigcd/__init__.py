"""Multi-GCD extension: 1D- and 2D-partitioned distributed BFS over
several simulated GCDs with an α–β interconnect model (the paper's
Graph500 motivation carried one step further); a batch of sources is
one bit-parallel traversal of the pod. A one-source batch is the
per-vertex BFS: its rows ship as ids alone, since each row's one bit
is implied by its id. An optional exchange codec prices each level's
peer messages (sparse id list or bitmap) in one call; the rows never
pass through it."""

from repro.multigcd.comm import INFINITY_FABRIC, SLINGSHOT, InterconnectModel
from repro.multigcd.distributed_bfs import MultiGcdBFS, PodBatchResult
from repro.multigcd.exchange import FORMAT_BITMAP, FORMAT_SPARSE, ExchangeCodec
from repro.multigcd.grid2d import Grid2dBFS
from repro.multigcd.topology import FRONTIER_NODE_GCDS, TwoTierInterconnect
from repro.multigcd.partition import (
    Partition1D,
    partition_by_edges,
    partition_by_vertices,
)

__all__ = [
    "InterconnectModel",
    "INFINITY_FABRIC",
    "SLINGSHOT",
    "TwoTierInterconnect",
    "FRONTIER_NODE_GCDS",
    "MultiGcdBFS",
    "ExchangeCodec",
    "FORMAT_SPARSE",
    "FORMAT_BITMAP",
    "Grid2dBFS",
    "PodBatchResult",
    "Partition1D",
    "partition_by_edges",
    "partition_by_vertices",
]
