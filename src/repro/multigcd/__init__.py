"""Multi-GCD extension: 1D- and 2D-partitioned distributed BFS over
several simulated GCDs with an α–β interconnect model (the paper's
Graph500 motivation carried one step further); a batch of sources is
one bit-parallel traversal of the pod. A one-source batch is the
per-vertex BFS: its rows ship as ids alone, since each row's one bit
is implied by its id. With ``codec=True`` each level's peer messages
ship their ids as the smaller of a sparse id list and a bitmap
(:func:`~repro.multigcd.exchange.price`, one call per level); the rows
are never encoded."""

from repro.multigcd.comm import INFINITY_FABRIC, SLINGSHOT, InterconnectModel
from repro.multigcd.distributed_bfs import MultiGcdBFS, PodBatchResult
from repro.multigcd.exchange import FORMAT_BITMAP, FORMAT_SPARSE, price
from repro.multigcd.grid2d import Grid2dBFS
from repro.multigcd.topology import FRONTIER_NODE_GCDS, TwoTierInterconnect
from repro.multigcd.partition import partition_by_edges

__all__ = [
    "InterconnectModel",
    "INFINITY_FABRIC",
    "SLINGSHOT",
    "TwoTierInterconnect",
    "FRONTIER_NODE_GCDS",
    "MultiGcdBFS",
    "price",
    "FORMAT_SPARSE",
    "FORMAT_BITMAP",
    "Grid2dBFS",
    "PodBatchResult",
    "partition_by_edges",
]
