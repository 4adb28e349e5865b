"""Linear-algebra BFS (the GraphBLAST / TurboBFS family).

The related-work section's last group: "linear algebra-based GraphBLAST
focuses on load balancing, memory management, and a simple programming
model", "TurboBFS also uses linear algebra and can achieve up to 40
GTEPS for irregular graphs with a smaller depth".

BFS in that model is a masked sparse-matrix–vector product per level:

    next = (Aᵀ · frontier) ⊙ ¬visited        (Boolean semiring)

The strength is perfectly regular, balance-friendly kernels; the
weakness the taxonomy implies is that every level pays a full
column-gather over the frontier's adjacency with *no early termination
and no direction switch* — the masked SpMV touches every edge out of
the frontier no matter how redundant, so deep graphs (many SpMV
launches) and peak levels (huge mask traffic) both hurt.

The functional computation is the one-column (``k = 1``) case of the
shared bit-packed frontier ops in :mod:`repro.xbfs.bitmap` — the same
scatter-OR semiring product the batched
:class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS` engine widens to
hundreds of sources per word-packed row. The baseline keeps its
fixed-direction cost story: one push SpMV kernel + one mask/assign
kernel per level, charged to the same GCD substrate as every other
engine, with dense |V|-length vector traffic (the simple programming
model the paper credits GraphBLAST with).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs import bitmap as bm
from repro.xbfs.common import segment_lines_touched
from repro.baselines.base import BaselineBatch, BaselineResult

__all__ = ["LinAlgBFS"]


class LinAlgBFS:
    """Masked-SpMV BFS on the simulated GCD."""

    ENGINE = "linalg"

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
        n = graph.num_vertices
        if not 0 <= source < n:
            raise TraversalError(f"source {source} out of range")
        if self._gcd is None:
            self._gcd = GCD(self.device, self.config)
        else:
            self._gcd.reset(keep_warm=True)
        gcd = self._gcd
        paid_warmup = not gcd._warm

        levels = np.full(n, -1, dtype=np.int32)
        levels[source] = 0
        # One-column bitmap planes: bit 0 of row v is "v on the frontier".
        frontier = bm.make_bitmap(n, 1)
        bm.set_source_bits(frontier, np.array([source], dtype=np.int64))
        visited = frontier.copy()
        level = 0
        line = gcd.device.cache_line_bytes

        while frontier.any():
            idx = bm.occupied_rows(frontier)
            e_f = int(graph.degrees[idx].sum())
            # SpMV: y = Aᵀ · frontier over the Boolean semiring — the
            # k = 1 push product from the shared bitmap kernels.
            incoming = bm.push_product(graph, frontier, idx)
            adj_lines = segment_lines_touched(
                graph.row_offsets[idx], graph.degrees[idx],
                element_bytes=4, line_bytes=line,
            )
            gcd.launch(
                "la_spmv",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    # The frontier vector is dense in this model (the
                    # simple programming model the paper credits
                    # GraphBLAST with): a full |V| sweep per level.
                    # Vectors are int32, as in GraphBLAST's BFS, and the
                    # semiring accumulate reads y before writing it.
                    seq_read("frontier_vec", n, 4),
                    rand_read("beg_pos", 2 * int(idx.size), 2 * int(idx.size), 8),
                    segmented_read("col_idx", e_f, adj_lines, 4),
                    rand_read("y_vec", e_f, n, 4),
                    rand_write("y_vec", e_f, n, 4),
                ],
                work=ComputeWork(flat_ops=float(e_f + n)),
                work_items=int(idx.size),
            )
            # Mask & assign: next = y ⊙ ¬visited; levels[next] = level+1.
            next_frontier = bm.fresh_mask(incoming, visited)
            newly = bm.occupied_rows(next_frontier)
            gcd.launch(
                "la_mask_assign",
                strategy=self.ENGINE,
                level=level,
                streams=[
                    seq_read("y_vec", n, 4),
                    seq_read("visited_vec", n, 4),
                    seq_write("frontier_vec", n, 4),
                    rand_write("levels", int(newly.size), int(newly.size), 4),
                ],
                work=ComputeWork(flat_ops=float(2 * n)),
                work_items=n,
            )
            gcd.sync()
            levels[newly] = level + 1
            visited |= next_frontier
            frontier = next_frontier
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
