"""Enterprise-style scan BFS (Liu & Huang, SC'15).

The "scan approach" of the related-work taxonomy: *every* level builds
its frontier queue by scanning the full status array with a prefix-sum
compaction — efficient when frontiers are large (perfectly coalesced,
no atomics, no duplicates) but paying the O(|V|) sweep even when the
frontier is three vertices, which is the overhead XBFS's scan-free mode
eliminates at the head and tail levels.

Like the real Enterprise, it is direction-optimising: it switches to a
bottom-up expansion above a fixed Beamer-style edge-ratio threshold.
What it *lacks* relative to XBFS is the scan-free mode, the
no-frontier-generation hand-off, and adaptive α tuning.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs.common import (
    UNVISITED,
    first_match_per_segment,
    gather_neighbors,
    segment_lines_touched,
    wavefront_serialized_steps,
)
from repro.baselines.base import BaselineBatch, BaselineResult

__all__ = ["EnterpriseBFS"]


class EnterpriseBFS:
    """Scan-compaction BFS with a fixed direction-switch threshold."""

    ENGINE = "enterprise"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        bottom_up_threshold: float = 0.05,
    ) -> None:
        if not 0 < bottom_up_threshold <= 1:
            raise TraversalError("bottom_up_threshold must be in (0, 1]")
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        self.bottom_up_threshold = bottom_up_threshold
        self._gcd: GCD | None = None

    # ------------------------------------------------------------------
    def _scan_generate(self, levels: np.ndarray, level: int, gcd: GCD) -> np.ndarray:
        """Prefix-sum frontier compaction: full sweep + scan + gather."""
        n = levels.size
        frontier = np.flatnonzero(levels == level).astype(np.int64)
        gcd.launch(
            "en_scan",
            strategy=self.ENGINE,
            level=level,
            streams=[
                seq_read("status", n, 4),
                seq_write("flags", n, 4),
            ],
            work=ComputeWork(flat_ops=float(n)),
            work_items=n,
        )
        gcd.launch(
            "en_prefix_sum",
            strategy=self.ENGINE,
            level=level,
            streams=[
                seq_read("flags", n, 4),
                seq_write("offsets", n, 4),
            ],
            work=ComputeWork(flat_ops=float(2 * n)),
            work_items=n,
        )
        gcd.launch(
            "en_compact",
            strategy=self.ENGINE,
            level=level,
            streams=[
                seq_read("offsets", n, 4),
                seq_write("frontier", int(frontier.size), 4),
            ],
            work=ComputeWork(flat_ops=float(n)),
            work_items=n,
        )
        return frontier

    # ------------------------------------------------------------------
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
        level = 0
        total_edges = max(1, graph.num_edges)
        line = gcd.device.cache_line_bytes
        wf = gcd.device.wavefront_size

        while np.any(levels == level):
            frontier = self._scan_generate(levels, level, gcd)
            ratio = graph.degrees[frontier].sum() / total_edges
            if ratio > self.bottom_up_threshold:
                # Direction switch: bottom-up expansion over unvisited,
                # probing *incoming* edges (transpose adjacency).
                incoming = graph.reverse()
                unvisited = np.flatnonzero(levels == UNVISITED).astype(np.int64)
                degs = incoming.degrees[unvisited]
                neighbors, _ = gather_neighbors(incoming, unvisited)
                match = levels[neighbors] == level
                first = first_match_per_segment(match, degs)
                found = first >= 0
                scan_len = np.where(found, first + 1, degs)
                edges = int(scan_len.sum())
                adj_lines = segment_lines_touched(
                    incoming.row_offsets[unvisited], scan_len,
                    element_bytes=4, line_bytes=line,
                )
                gcd.launch(
                    "en_bottom_up",
                    strategy=self.ENGINE,
                    level=level,
                    streams=[
                        seq_read("status", graph.num_vertices, 4),
                        segmented_read("adj_list", edges, adj_lines, 4),
                        rand_read("status", edges, graph.num_vertices, 4),
                        rand_write("status", int(found.sum()), int(found.sum()), 4),
                    ],
                    work=ComputeWork(
                        flat_ops=float(unvisited.size),
                        divergent_probes=float(
                            wavefront_serialized_steps(scan_len, wf)
                        ),
                    ),
                    work_items=int(unvisited.size),
                    bottom_up=True,
                )
                levels[unvisited[found]] = level + 1
            else:
                neighbors, _ = gather_neighbors(graph, frontier)
                e_f = int(neighbors.size)
                adj_lines = segment_lines_touched(
                    graph.row_offsets[frontier], graph.degrees[frontier],
                    element_bytes=4, line_bytes=line,
                )
                fresh = neighbors[levels[neighbors] == UNVISITED]
                new_unique = np.unique(fresh).astype(np.int64)
                gcd.launch(
                    "en_expand",
                    strategy=self.ENGINE,
                    level=level,
                    streams=[
                        seq_read("frontier", int(frontier.size), 4),
                        rand_read("beg_pos", 2 * int(frontier.size), 2 * int(frontier.size), 8),
                        segmented_read("adj_list", e_f, adj_lines, 4),
                        rand_read("status", e_f, graph.num_vertices, 4),
                        rand_write("status", int(fresh.size), int(new_unique.size), 4),
                    ],
                    work=ComputeWork(flat_ops=float(e_f + frontier.size)),
                    work_items=int(frontier.size),
                )
                levels[new_unique] = level + 1
            gcd.sync()
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
