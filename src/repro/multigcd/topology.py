"""Frontier node topology: a two-tier interconnect.

A Frontier node holds 8 GCDs linked by Infinity Fabric; nodes talk over
Slingshot NICs. For multi-node runs the per-level all-to-all therefore
pays two very different prices depending on whether a (sender,
receiver) pair shares a node. :class:`TwoTierInterconnect` models that:
intra-node traffic uses the fast tier, inter-node traffic the slow one,
and the level cost is the max of the two phases (they overlap on
disjoint hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.multigcd.comm import INFINITY_FABRIC, SLINGSHOT, InterconnectModel

__all__ = ["TwoTierInterconnect", "FRONTIER_NODE_GCDS"]

#: GCDs per Frontier node (4 MI250X packages x 2 GCDs).
FRONTIER_NODE_GCDS = 8


@dataclass(frozen=True)
class TwoTierInterconnect:
    """Intra-node fast tier + inter-node slow tier.

    Drop-in for :class:`~repro.multigcd.comm.InterconnectModel` as a
    pod's ``interconnect``: it has the same ``alltoall_ms(bytes_matrix)``
    and nothing else (no ``bandwidth`` or ``latency_us`` of its own).
    Part *p* lives on node ``p // gcds_per_node``.
    """

    name: str = "frontier-node"
    intra: InterconnectModel = INFINITY_FABRIC
    inter: InterconnectModel = SLINGSHOT
    gcds_per_node: int = FRONTIER_NODE_GCDS

    def __post_init__(self) -> None:
        if self.gcds_per_node < 1:
            raise PartitionError("gcds_per_node must be >= 1")

    def alltoall_ms(self, bytes_matrix: np.ndarray) -> float:
        """Split the exchange by tier; the phases overlap, so the level
        pays the slower of the two."""
        m = np.asarray(bytes_matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PartitionError(f"bytes_matrix must be square, got {m.shape}")
        p = m.shape[0]
        if p == 1:
            return 0.0
        nodes = np.arange(p) // self.gcds_per_node
        same_node = nodes[:, None] == nodes[None, :]
        intra_m = np.where(same_node, m, 0.0)
        inter_m = np.where(same_node, 0.0, m)
        intra_ms = self.intra.alltoall_ms(intra_m) if intra_m.any() else 0.0
        inter_ms = self.inter.alltoall_ms(inter_m) if inter_m.any() else 0.0
        return max(intra_ms, inter_ms)
