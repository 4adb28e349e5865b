"""2D (checkerboard) partitioned distributed BFS.

The 1D row decomposition in :mod:`repro.multigcd.distributed_bfs`
exchanges discovered *vertices* all-to-all, which stops scaling once
the frontier spans the machine. Production Graph500 codes (Buluç &
Madduri's lineage, which the related-work section cites as [6]) use a
**2D decomposition** instead: the adjacency matrix is tiled over an
R×C processor grid; a BFS level is then

1. an **allgather along columns** of the frontier slice (every tile in
   a column needs the frontier bits of the rows it multiplies), then
2. local tile expansion, then
3. a **reduce-scatter along rows** of the discovery bits to the owner.

Communication involves only the √P-sized processor rows/columns rather
than all P peers — the classic volume argument (O(|V|/√P) words per
GCD per level instead of O(|V|)).

Functionally the engine is exact (validated against the oracle); the
cost model charges each phase on its sub-communicator. As of the
exchange-plane work the engine is a full routing citizen: it takes the
:class:`~repro.multigcd.exchange.ExchangeCodec` (per-block-message
bitmap/sparse selection, with frontier and discovery sets round-tripped
through ``decode`` so the codec provably cannot change the answer),
comm/compute ``overlap`` (the reduce-scatter of early discovery bits
hides behind the remaining tile expansion; the allgather stays
sequential — tiles consume it), a :class:`~repro.telemetry.tracer`
(pre-finished ``dist.level`` spans, ``strategy="grid2d"``), the
``multigcd.exchange`` fault site on both collective phases, and a
``run_batch`` entry point for the serving dispatcher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.distributed_bfs import DistributedBatchResult, PodEngine, PodRunRates
from repro.multigcd.exchange import ExchangeCodec
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.common import (
    gather_neighbors,
    segment_lines_touched,
    unique_vertices,
)

__all__ = ["Grid2dBFS", "Grid2dResult"]


@dataclass
class Grid2dResult(PodRunRates):
    """Outcome of one 2D-partitioned BFS run.

    Exposes the same surface as
    :class:`~repro.multigcd.distributed_bfs.DistributedResult`
    (``bytes_exchanged``, ``traversed_edges`` and the
    :class:`~repro.multigcd.distributed_bfs.PodRunRates`), so routed
    dispatches and
    :class:`~repro.multigcd.distributed_bfs.DistributedBatchResult`
    treat the two engines interchangeably.
    """

    source: int
    levels: np.ndarray
    elapsed_ms: float
    comm_ms: float
    compute_ms: float
    #: Bytes moved by the column allgathers.
    allgather_bytes: int
    #: Bytes moved by the row reduce-scatters.
    reduce_bytes: int
    grid: tuple[int, int]
    per_level_comm_bytes: list[int] = field(default_factory=list)
    #: What the uncompressed id-list exchange would have shipped
    #: (equals ``bytes_exchanged`` when no codec is attached).
    bytes_raw: int = 0
    per_level_raw_bytes: list[int] = field(default_factory=list)
    #: Wire messages per format for this run (empty without a codec).
    exchange_formats: dict[str, int] = field(default_factory=dict)
    #: Virtual time hidden by comm/compute overlap (0 without overlap).
    overlap_saved_ms: float = 0.0
    #: Per-level decision records for the audit plane: the 2D engine is
    #: always top-down (both collectives are bitmap-width-bounded), so
    #: each entry explains the collective pair plus the codec's
    #: wire-format picks for that level.
    level_decisions: list = field(default_factory=list)

    _traversed: int = 0

    @property
    def bytes_exchanged(self) -> int:
        """Total wire bytes (both collective phases)."""
        return self.allgather_bytes + self.reduce_bytes

    @property
    def traversed_edges(self) -> int:
        return self._traversed


def _square_grid(p: int) -> tuple[int, int]:
    """Largest R x C = p with R <= C and R as close to sqrt(p) as possible."""
    r = int(math.isqrt(p))
    while r > 1 and p % r:
        r -= 1
    return r, p // r


class Grid2dBFS(PodEngine):
    """Bulk-synchronous BFS on an R×C GCD grid.

    Vertices are split into C column blocks (frontier ownership) and R
    row blocks (discovery ownership); tile (i, j) holds the edges from
    row block i's vertices to column block j's vertices. ``num_gcds``
    must factor into a grid (a square count is ideal).
    """

    engine_name = "grid2d"

    def __init__(
        self,
        graph: CSRGraph,
        num_gcds: int,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        interconnect: InterconnectModel = INFINITY_FABRIC,
        tracer: Tracer | None = None,
        injector=None,
        codec: ExchangeCodec | None = None,
        overlap: bool = False,
    ) -> None:
        if num_gcds < 1:
            raise PartitionError(f"num_gcds must be >= 1, got {num_gcds}")
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        self.interconnect = interconnect
        self.rows, self.cols = _square_grid(num_gcds)
        self.num_gcds = num_gcds
        n = graph.num_vertices
        #: Vertex block boundaries along each grid dimension.
        self.row_bounds = np.linspace(0, n, self.rows + 1).astype(np.int64)
        self.col_bounds = np.linspace(0, n, self.cols + 1).astype(np.int64)
        #: Optional :class:`~repro.faults.injector.FaultInjector`;
        #: member GCDs share it, and the ``multigcd.exchange`` site
        #: covers both collective phases (detail
        #: ``level<k>.allgather`` / ``level<k>.reduce_scatter``).
        self.injector = injector
        #: Optional tracer; levels are pre-finished ``dist.level``
        #: spans carrying the kernel/comm split, tagged
        #: ``strategy="grid2d"``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        #: Optional exchange codec shared by every block message.
        self.codec = codec
        #: Overlap the row reduce-scatter with tile expansion
        #: (accounting only — launch order is unchanged).
        self.overlap = overlap

    # ------------------------------------------------------------------
    def _subcomm_cost(self, peers: int, bytes_per_peer: float) -> float:
        """α-β cost of an allgather/reduce-scatter over ``peers`` ranks."""
        if peers <= 1 or bytes_per_peer <= 0:
            return 0.0
        m = np.full((peers, peers), bytes_per_peer, dtype=np.float64)
        np.fill_diagonal(m, 0.0)
        return self.interconnect.alltoall_ms(m)

    def _exchange_scale(self, level: int, phase: str) -> float:
        """Latency multiplier for one collective (1.0 without faults)."""
        if self.injector is None:
            return 1.0
        return self.injector.visit("multigcd.exchange", f"level{level}.{phase}")

    def _block_exchange(
        self, vertices: np.ndarray, bounds: np.ndarray, fan: int
    ) -> tuple[np.ndarray, int, int, float]:
        """Run one codec-compressed block collective.

        Splits ``vertices`` into the blocks delimited by ``bounds``,
        encodes each block's message, ships ``fan`` copies of it (the
        sub-communicator's peer-pair count), and rebuilds the vertex
        set from the *decoded* messages. Returns
        ``(vertices_roundtripped, wire_bytes, raw_bytes, slowest_ms)``
        where ``slowest_ms`` is the busiest block's modelled message
        size (the concurrent sub-communicators run in parallel).
        """
        codec = self.codec
        pieces: list[np.ndarray] = []
        wire = raw = 0
        worst = 0
        for b in range(len(bounds) - 1):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            mine = vertices[(vertices >= lo) & (vertices < hi)]
            if fan == 0:
                pieces.append(mine)
                continue
            decoded: np.ndarray | None = None
            per_msg = 0
            for _ in range(fan):
                msg = codec.encode(mine, lo, hi)
                per_msg = msg.wire_bytes
                wire += msg.wire_bytes
                raw += msg.raw_bytes
                if decoded is None:
                    decoded = codec.decode(msg)
            worst = max(worst, per_msg)
            pieces.append(decoded)
        joined = (
            np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
        )
        return joined.astype(np.int64), wire, raw, float(worst)

    # ------------------------------------------------------------------
    def run_batch(self, sources: np.ndarray) -> DistributedBatchResult:
        """Serve a batch of sources back to back on this grid.

        See :meth:`~repro.multigcd.distributed_bfs.PodEngine._run_batch`.
        """
        return self._run_batch(sources)

    def _traverse(self, gcds: list[GCD], source: int) -> Grid2dResult:
        graph = self.graph
        n = graph.num_vertices
        tracer = self.tracer

        levels = np.full(n, -1, dtype=np.int32)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        elapsed = comm_total = compute_total = 0.0
        allgather_bytes = reduce_bytes = 0
        raw_total = 0
        overlap_saved = 0.0
        per_level: list[int] = []
        per_level_raw: list[int] = []
        formats_before = (
            self.codec.counters() if self.codec is not None else None
        )
        line = self.device.cache_line_bytes
        level_decisions: list[dict] = []

        def _fmt_counts():
            if self.codec is None:
                return None
            c = self.codec.counters()
            return (c["messages_sparse"], c["messages_bitmap"])

        while frontier.size:
            fmt_before = _fmt_counts()
            # Phase 1: column allgather of frontier bits — every tile
            # column shares the frontier slice of its vertex block.
            ag_fan = self.rows * (self.rows - 1)
            if self.codec is None:
                slice_bits = -(-n // self.cols) // 8
                ag_ms = self._subcomm_cost(self.rows, slice_bits)
                ag_bytes = slice_bits * ag_fan * self.cols
                ag_raw = ag_bytes
            else:
                slice_bits = -(-n // self.cols) // 8
                frontier, ag_bytes, ag_raw, worst = self._block_exchange(
                    frontier, self.col_bounds, ag_fan
                )
                ag_ms = self._subcomm_cost(self.rows, worst)
            ag_ms *= self._exchange_scale(level, "allgather")
            allgather_bytes += ag_bytes

            # Phase 2: local tile expansion. Tile (i, j) expands the
            # frontier vertices in column block j whose out-edges land
            # in row block i; we charge each tile its share of the
            # frontier's adjacency.
            neighbors, owner = gather_neighbors(graph, frontier)
            discovered = unique_vertices(neighbors, n, levels)
            tile_ms = 0.0
            col_of_frontier = np.searchsorted(
                self.col_bounds, frontier, side="right"
            ) - 1
            row_of_neighbor = np.searchsorted(
                self.row_bounds, neighbors, side="right"
            ) - 1
            for i in range(self.rows):
                for j in range(self.cols):
                    g = i * self.cols + j
                    in_tile = (row_of_neighbor == i) & (
                        col_of_frontier[owner] == j
                    )
                    e_tile = int(np.count_nonzero(in_tile))
                    if e_tile == 0:
                        continue
                    local_frontier = unique_vertices(frontier[owner[in_tile]], n)
                    before = gcds[g].elapsed_ms
                    adj_lines = segment_lines_touched(
                        graph.row_offsets[local_frontier],
                        graph.degrees[local_frontier],
                        element_bytes=4,
                        line_bytes=line,
                    )
                    gcds[g].launch(
                        "g2d_tile_expand",
                        strategy="grid2d",
                        level=level,
                        streams=[
                            seq_read("frontier_bits", slice_bits, 1),
                            rand_read(
                                "beg_pos",
                                2 * int(local_frontier.size),
                                2 * int(local_frontier.size),
                                8,
                            ),
                            segmented_read("tile_cols", e_tile, adj_lines, 4),
                            rand_write(
                                "discovery_bits", e_tile, -(-n // self.rows) // 8, 1
                            ),
                        ],
                        work=ComputeWork(flat_ops=float(e_tile + local_frontier.size)),
                        work_items=int(local_frontier.size),
                    )
                    gcds[g].sync()
                    tile_ms = max(tile_ms, gcds[g].elapsed_ms - before)

            # Phase 3: row reduce-scatter of discovery bits to owners.
            rs_fan = self.cols * (self.cols - 1)
            if self.codec is None:
                row_bits = -(-n // self.rows) // 8
                rs_ms = self._subcomm_cost(self.cols, row_bits)
                rs_bytes = row_bits * rs_fan * self.rows
                rs_raw = rs_bytes
            else:
                discovered, rs_bytes, rs_raw, worst = self._block_exchange(
                    discovered, self.row_bounds, rs_fan
                )
                rs_ms = self._subcomm_cost(self.cols, worst)
            rs_ms *= self._exchange_scale(level, "reduce_scatter")
            reduce_bytes += rs_bytes

            comm_ms = ag_ms + rs_ms
            comm_total += comm_ms
            compute_total += tile_ms
            if self.overlap:
                # The allgather gates the tiles, but the reduce-scatter
                # of early discovery bits hides behind the remaining
                # tile expansion.
                saved_ms = min(tile_ms, rs_ms)
                overlap_saved += saved_ms
                level_ms = ag_ms + max(tile_ms, rs_ms)
            else:
                saved_ms = 0.0
                level_ms = ag_ms + tile_ms + rs_ms
            elapsed += level_ms
            level_raw = ag_raw + rs_raw
            per_level.append(ag_bytes + rs_bytes)
            per_level_raw.append(level_raw)
            raw_total += level_raw

            extra = {}
            if self.codec is not None:
                extra["comm_raw_bytes"] = level_raw
            if self.overlap:
                extra["overlap_saved_ms"] = saved_ms
            tracer.complete(
                "dist.level",
                duration_ms=level_ms,
                level=level,
                strategy="grid2d",
                direction="top_down",
                kernel_ms=tile_ms,
                comm_ms=comm_ms,
                comm_bytes=ag_bytes + rs_bytes,
                frontier=int(frontier.size),
                **extra,
            )

            fmt_after = _fmt_counts()
            level_decisions.append(
                {
                    "level": level,
                    "direction": "top_down",
                    "reason": (
                        "2D tiles consume the column allgather; both "
                        "collectives are bitmap-width-bounded"
                    ),
                    "frontier": int(frontier.size),
                    "comm_bytes": ag_bytes + rs_bytes,
                    "formats": (
                        {
                            "sparse": fmt_after[0] - fmt_before[0],
                            "bitmap": fmt_after[1] - fmt_before[1],
                        }
                        if fmt_before is not None
                        else {}
                    ),
                }
            )
            levels[discovered] = level + 1
            frontier = discovered
            level += 1

        formats: dict[str, int] = {}
        if formats_before is not None:
            after = self.codec.counters()
            formats = {
                fmt: after[f"messages_{fmt}"] - formats_before[f"messages_{fmt}"]
                for fmt in ("sparse", "bitmap")
            }
        reached = levels >= 0
        result = Grid2dResult(
            source=source,
            levels=levels,
            elapsed_ms=elapsed,
            comm_ms=comm_total,
            compute_ms=compute_total,
            allgather_bytes=allgather_bytes,
            reduce_bytes=reduce_bytes,
            grid=(self.rows, self.cols),
            per_level_comm_bytes=per_level,
            bytes_raw=raw_total,
            per_level_raw_bytes=per_level_raw,
            exchange_formats=formats,
            overlap_saved_ms=overlap_saved,
            level_decisions=level_decisions,
        )
        result._traversed = int(graph.degrees[reached].sum())
        return result
