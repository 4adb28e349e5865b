"""Interconnect cost model for multi-GCD BFS.

Two built-in profiles matching Frontier's fabric:

* :data:`INFINITY_FABRIC` — GCD-to-GCD links inside a node,
* :data:`SLINGSHOT`       — NIC-mediated links between nodes.

The per-level exchange is an all-to-all of discovered remote vertices;
its modelled time is the classic α–β form: per-message latency times
the number of communication steps plus the busiest endpoint's byte
volume over link bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError

__all__ = ["InterconnectModel", "INFINITY_FABRIC", "SLINGSHOT"]


@dataclass(frozen=True)
class InterconnectModel:
    """α–β model of one interconnect tier."""

    name: str
    #: Sustained point-to-point bandwidth per endpoint, bytes/second.
    bandwidth: float
    #: Per-message latency, microseconds.
    latency_us: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise PartitionError("bandwidth must be positive")
        if self.latency_us < 0:
            raise PartitionError("latency must be non-negative")

    def alltoall_ms(
        self, bytes_matrix: np.ndarray, *, ranks: np.ndarray | None = None
    ) -> float:
        """Time for one all-to-all exchange.

        ``bytes_matrix[i, j]`` is the payload part ``i`` sends to part
        ``j``. The busiest endpoint (max of its send and receive
        volume, diagonal excluded — local hand-off is free) sets the
        bandwidth term; a log2(P)-step butterfly sets the latency term.
        ``ranks`` (the parts' GCD ids in a larger pod) does not matter
        on one tier.
        """
        m = np.asarray(bytes_matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise PartitionError(f"bytes_matrix must be square, got {m.shape}")
        p = m.shape[0]
        if p == 1:
            return 0.0
        off = m.copy()
        np.fill_diagonal(off, 0.0)
        busiest = max(float(off.sum(axis=1).max()), float(off.sum(axis=0).max()))
        steps = max(1, int(math.ceil(math.log2(p))))
        return busiest / self.bandwidth * 1e3 + steps * self.latency_us * 1e-3


#: Intra-node GCD-to-GCD Infinity Fabric (MI250X in-package/xGMI class).
INFINITY_FABRIC = InterconnectModel("infinity-fabric", 5.0e10, 2.0)

#: Inter-node HPE Slingshot-11 (25 GB/s NIC per direction).
SLINGSHOT = InterconnectModel("slingshot", 2.5e10, 5.0)
