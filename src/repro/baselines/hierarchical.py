"""Hierarchical-queue BFS (Luo, Wong & Hwu, DAC'10).

The related-work section's first taxon: per-block queues in fast
(shared) memory that are merged into a global queue each level. It
"performs well at levels with very few frontiers but suffers from
enormous space consumption and inefficient strided memory access at
levels with substantial frontiers".

The model: expansion enqueues discoveries into per-block queues (cheap,
low-contention atomics); a merge kernel then concatenates the block
queues into the global frontier. The merge's memory traffic is
*strided* — each block's queue lives in its own fixed-capacity arena,
so the global sweep touches ``num_blocks × arena`` slots no matter how
full each arena is. That fixed-stride waste is negligible at small
frontiers and ruinous at large ones, reproducing the taxon's stated
behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.gcd.atomics import AtomicStats
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs.common import (
    UNVISITED,
    gather_neighbors,
    segment_lines_touched,
    unique_vertices,
)
from repro.baselines.base import BaselineBatch, BaselineResult

__all__ = ["HierarchicalBFS"]


class HierarchicalBFS:
    """BFS with per-block hierarchical frontier queues."""

    ENGINE = "hierarchical"
    #: Number of per-block queues (one per workgroup).
    NUM_BLOCKS = 256
    #: Slots reserved per block arena.
    ARENA = 4096

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        self._gcd: GCD | None = None

    def run(self, source: int) -> BaselineResult:
        graph = self.graph
        if not 0 <= source < graph.num_vertices:
            raise TraversalError(f"source {source} out of range")
        if self._gcd is None:
            self._gcd = GCD(self.device, self.config)
        else:
            self._gcd.reset(keep_warm=True)
        gcd = self._gcd
        paid_warmup = not gcd._warm

        levels = np.full(graph.num_vertices, -1, dtype=np.int32)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        line = gcd.device.cache_line_bytes

        while frontier.size:
            neighbors, _ = gather_neighbors(graph, frontier)
            e_f = int(neighbors.size)
            adj_lines = segment_lines_touched(
                graph.row_offsets[frontier], graph.degrees[frontier],
                element_bytes=4, line_bytes=line,
            )
            fresh_mask = levels[neighbors] == UNVISITED
            fresh = neighbors[fresh_mask]
            winners = unique_vertices(fresh, graph.num_vertices)
            levels[winners] = level + 1

            # Expansion into per-block queues: block-local atomics are
            # cheap (shared memory), so only a light atomic charge.
            blocks_used = min(self.NUM_BLOCKS, max(1, int(winners.size)))
            gcd.launch(
                "hq_expand",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("frontier", int(frontier.size), 4),
                    rand_read("beg_pos", 2 * int(frontier.size), 2 * int(frontier.size), 8),
                    segmented_read("adj_list", e_f, adj_lines, 4),
                    rand_read("status", e_f, graph.num_vertices, 4),
                    rand_write("status", int(fresh.size), int(winners.size), 4),
                    seq_write("block_queues", int(winners.size), 4),
                ],
                work=ComputeWork(
                    flat_ops=float(e_f + frontier.size),
                    atomics=AtomicStats(
                        operations=int(fresh.size),
                        conflicts=int(fresh.size) - int(winners.size),
                        distinct_addresses=blocks_used,
                    ),
                ),
                work_items=int(frontier.size),
            )
            # Merge: sweep every block arena (fixed stride — the waste).
            swept = self.NUM_BLOCKS * self.ARENA
            gcd.launch(
                "hq_merge",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("block_queues", swept, 4),
                    seq_write("global_queue", int(winners.size), 4),
                ],
                work=ComputeWork(flat_ops=float(swept)),
                work_items=swept,
            )
            gcd.sync()
            frontier = winners
            level += 1

        reached = levels >= 0
        return BaselineResult(
            engine=self.ENGINE,
            source=source,
            levels=levels,
            elapsed_ms=gcd.elapsed_ms,
            traversed_edges=int(graph.degrees[reached].sum()),
            records=list(gcd.profiler.records),
            paid_warmup=paid_warmup,
        )

    def run_many(self, sources: np.ndarray) -> BaselineBatch:
        batch = BaselineBatch()
        for s in np.asarray(sources).ravel():
            batch.runs.append(self.run(int(s)))
        return batch
