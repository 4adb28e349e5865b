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

from repro.gcd.atomics import AtomicStats
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, seq_read, seq_write
from repro.xbfs.common import (
    UNVISITED,
    SoloEngine,
    gather_neighbors,
    unique_vertices,
    walk_reads,
)
from repro.baselines.base import BaselineResult, baseline_result

__all__ = ["HierarchicalBFS"]


class HierarchicalBFS(SoloEngine):
    """BFS with per-block hierarchical frontier queues."""

    ENGINE = "hierarchical"
    #: Number of per-block queues (one per workgroup).
    NUM_BLOCKS = 256
    #: Slots reserved per block arena.
    ARENA = 4096

    def run(self, source: int) -> BaselineResult:
        graph = self.graph
        gcd, paid_warmup = self._start(source)

        levels = np.full(graph.num_vertices, -1, dtype=np.int32)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        line = gcd.device.cache_line_bytes

        while frontier.size:
            neighbors, _ = gather_neighbors(graph, frontier)
            e_f, walk = walk_reads(graph.row_offsets[frontier], graph.degrees[frontier], line)
            fresh_mask = levels[neighbors] == UNVISITED
            fresh = neighbors[fresh_mask]
            winners = unique_vertices(fresh, graph.num_vertices)
            levels[winners] = level + 1

            # Expansion into per-block queues: block-local atomics are
            # cheap (shared memory), so only a light atomic charge.
            gcd.launch(
                "hq_expand",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("frontier", int(frontier.size), 4),
                    *walk,
                    rand_read("status", e_f, graph.num_vertices, 4),
                    rand_write("status", int(fresh.size), int(winners.size), 4),
                    seq_write("block_queues", int(winners.size), 4),
                ],
                work=ComputeWork(
                    flat_ops=float(e_f + frontier.size),
                    atomics=AtomicStats(
                        operations=int(fresh.size),
                        conflicts=int(fresh.size) - int(winners.size),
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

        return baseline_result(self, gcd, source, levels, paid_warmup)
