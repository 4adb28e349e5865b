"""Gunrock-style edge-frontier BFS (the paper's Fig 8 baseline).

Gunrock's advance/filter model materialises an *edge frontier*: advance
expands every frontier vertex into all of its neighbours; filter drops
the visited ones and compacts the rest into the next vertex frontier.
The known weakness the related-work section calls out ("excessive space
consumption and duplicated frontiers at high-frontier levels") comes
from the filter not deduplicating: when several parents discover the
same child in one level, the child enters the next frontier once *per
parent* and its adjacency list is expanded that many times.

We reproduce that, tempered the way real Gunrock is: its filter applies
*heuristic* warp-level culling that removes some but not all duplicate
copies. We keep up to ``MAX_DUPLICATES`` copies of each child per level
(default 4), which preserves the super-linear work blow-up on dense
graphs (Orkut-like, R-MAT peak levels) without the unbounded explosion
a cull-free filter would produce — and is why XBFS's bottom-up phase
dominates it in Fig 8.
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

__all__ = ["GunrockBFS"]


def _cull_duplicates(frontier: np.ndarray, max_copies: int) -> np.ndarray:
    """Keep at most ``max_copies`` copies of each vertex — the effect of
    Gunrock's warp-level duplicate culling (vectorised: sort + run-rank)."""
    if frontier.size == 0 or max_copies < 1:
        return frontier[:0]
    ordered = np.sort(frontier)
    is_new = np.empty(ordered.size, dtype=bool)
    is_new[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=is_new[1:])
    starts = np.flatnonzero(is_new)
    counts = np.diff(np.append(starts, ordered.size))
    rank = np.arange(ordered.size) - np.repeat(starts, counts)
    return ordered[rank < max_copies]


class GunrockBFS:
    """Advance/filter BFS with duplicated frontiers."""

    ENGINE = "gunrock"
    #: Copies of one child surviving the heuristic cull per level.
    MAX_DUPLICATES = 4

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
        # Vertex frontier *with duplicates* (one entry per discovering parent).
        frontier = np.array([source], dtype=np.int64)
        level = 0
        duplicates = 0
        line = gcd.device.cache_line_bytes

        while frontier.size:
            neighbors, _owner = gather_neighbors(graph, frontier)
            e_f = int(neighbors.size)
            adj_lines = segment_lines_touched(
                graph.row_offsets[frontier],
                graph.degrees[frontier],
                element_bytes=4,
                line_bytes=line,
            )
            # Advance: emit the edge frontier.
            gcd.launch(
                "gr_advance",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("frontier", int(frontier.size), 4),
                    rand_read("beg_pos", 2 * int(frontier.size), 2 * int(frontier.size), 8),
                    segmented_read("adj_list", e_f, adj_lines, 4),
                    seq_write("edge_frontier", e_f, 4),
                ],
                work=ComputeWork(flat_ops=float(e_f + frontier.size)),
                work_items=int(frontier.size),
            )
            # Filter: drop visited, set levels, compact. No dedup — every
            # discovering parent keeps its copy of the child.
            unvisited_mask = levels[neighbors] == UNVISITED
            discovered = neighbors[unvisited_mask].astype(np.int64)
            next_frontier = _cull_duplicates(discovered, self.MAX_DUPLICATES)
            kept = int(next_frontier.size)
            new_unique = unique_vertices(next_frontier, graph.num_vertices)
            duplicates += int(discovered.size) - int(new_unique.size)
            wf = gcd.device.wavefront_size
            append_ops = -(-kept // wf) if kept else 0
            gcd.launch(
                "gr_filter",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("edge_frontier", e_f, 4),
                    rand_read("labels", e_f, graph.num_vertices, 4),
                    rand_write("labels", kept, int(new_unique.size), 4),
                    seq_write("frontier", kept, 4),
                ],
                work=ComputeWork(
                    flat_ops=float(e_f),
                    # Gunrock's filter claims still-unvisited labels with
                    # atomicCAS (entries that fail the plain visited check
                    # never reach the atomic); surviving duplicate copies
                    # of one child contend on its label. XBFS's bottom-up
                    # phase pays none of this at peak levels.
                    atomics=AtomicStats(
                        operations=kept + append_ops,
                        conflicts=(kept - int(new_unique.size))
                        + max(0, append_ops - 1),
                        distinct_addresses=int(new_unique.size) + 1,
                    ),
                ),
                work_items=e_f,
            )
            gcd.sync()
            levels[new_unique] = level + 1
            frontier = next_frontier
            level += 1

        reached = levels >= 0
        traversed = int(graph.degrees[reached].sum())
        return BaselineResult(
            engine=self.ENGINE,
            source=source,
            levels=levels,
            elapsed_ms=gcd.elapsed_ms,
            traversed_edges=traversed,
            records=list(gcd.profiler.records),
            paid_warmup=paid_warmup,
            redundant_work=duplicates,
        )

    def run_many(self, sources: np.ndarray) -> BaselineBatch:
        batch = BaselineBatch()
        for s in np.asarray(sources).ravel():
            batch.runs.append(self.run(int(s)))
        return batch
