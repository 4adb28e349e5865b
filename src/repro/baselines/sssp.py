"""SSSP-based asynchronous BFS (the Groute/Graphie lineage).

Related work's third taxon: run BFS as unit-weight SSSP with
label-correcting relaxations instead of level-synchronous frontiers.
The win is no per-level synchronisation; the loss — the one SIMD-X
identified as decisive — is *redundant work*: without level barriers a
vertex's distance can be set through a long path first and corrected
later, and settled vertices keep being re-relaxed until global
convergence.

Model: Jacobi-style label-correcting rounds. Every round relaxes the
out-edges of every vertex with a finite distance (not just the ones
that changed — the engine has no cheap way to know which are settled,
which is precisely its inefficiency), until a fixpoint. Functionally
the fixpoint equals BFS levels; the cost model sees ``depth × |E|``-ish
edge traffic instead of ``|E|``, and ``redundant_relaxations`` counts
the updates that changed nothing.
"""

from __future__ import annotations

import numpy as np

from repro.gcd.atomics import AtomicStats
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, seq_read
from repro.graph.csr import CSRGraph
from repro.xbfs.common import SoloEngine, gather_neighbors, walk_reads
from repro.baselines.base import BaselineResult, baseline_result

__all__ = ["SsspBFS"]

_INF = np.int32(np.iinfo(np.int32).max)


class SsspBFS(SoloEngine):
    """Label-correcting unit-weight SSSP used as a BFS engine."""

    ENGINE = "sssp"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        max_rounds: int | None = None,
    ) -> None:
        super().__init__(graph, device=device, config=config)
        self.max_rounds = max_rounds

    def run(self, source: int) -> BaselineResult:
        graph = self.graph
        gcd, paid_warmup = self._start(source)

        dist = np.full(graph.num_vertices, _INF, dtype=np.int32)
        dist[source] = 0
        redundant = 0
        rounds = 0
        line = gcd.device.cache_line_bytes

        while True:
            active = np.flatnonzero(dist != _INF).astype(np.int64)
            neighbors, owner = gather_neighbors(graph, active)
            e_act, walk = walk_reads(graph.row_offsets[active], graph.degrees[active], line)
            candidate = (dist[active[owner]] + 1).astype(np.int32)
            old = dist.copy()
            np.minimum.at(dist, neighbors, candidate)
            improved = int(np.count_nonzero(dist != old))
            # Relaxations that did not lower a label are pure overhead.
            redundant += e_act - improved
            gcd.launch(
                "sssp_relax",
                strategy=self.ENGINE,
                level=rounds,
                streams=[
                    seq_read("worklist", int(active.size), 4),
                    *walk,
                    rand_read("dist", e_act, graph.num_vertices, 4),
                    rand_write("dist", improved, improved, 4),
                ],
                work=ComputeWork(
                    flat_ops=float(e_act + active.size),
                    # Every relaxation is an atomicMin.
                    atomics=AtomicStats(
                        operations=e_act, conflicts=max(0, e_act - improved) // 8
                    ),
                ),
                work_items=int(active.size),
            )
            rounds += 1
            # Async engines have no global barrier, but they do detect
            # quiescence; one extra no-change round models that check.
            if improved == 0:
                break
            if self.max_rounds is not None and rounds >= self.max_rounds:
                break
        gcd.sync()

        levels = np.where(dist == _INF, np.int32(-1), dist)
        return baseline_result(self, gcd, source, levels, paid_warmup, redundant)
