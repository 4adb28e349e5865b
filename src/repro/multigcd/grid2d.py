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
cost model charges each phase on its sub-communicator. It takes the
:class:`~repro.multigcd.exchange.ExchangeCodec` (per-block-message
bitmap/sparse selection, with frontier and discovery sets round-tripped
through ``decode`` so the codec provably cannot change the answer),
comm/compute ``overlap`` (the reduce-scatter of early discovery bits
hides behind the remaining tile expansion; the allgather stays
sequential — tiles consume it), a :class:`~repro.telemetry.tracer`
(pre-finished ``dist.level`` spans, ``strategy="grid2d"``), and the
``multigcd.exchange`` fault site on both collective phases.

:meth:`Grid2dBFS.run_batch`, the serving dispatcher's entry point, runs
the same three phases on the bitmap level loop
(:class:`~repro.xbfs.bitmap.BitmapBatchEngine`), every source at once:
the collectives carry (vertices × sources/64) bitmap rows — each block
whole, or its occupied rows' ids through the codec plus their words —
and a faulted level replays after every member quiesces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.faults.recovery import RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.distributed_bfs import (
    TOP_DOWN,
    PodBatchResult,
    PodEngine,
    PodRunRates,
)
from repro.multigcd.exchange import ExchangeCodec
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import Decision
from repro.xbfs.common import (
    gather_neighbors,
    segment_lines_touched,
    unique_vertices,
)
from repro.xbfs.concurrent import validate_batch_sources

__all__ = ["Grid2dBFS", "Grid2dResult"]


@dataclass
class Grid2dResult(PodRunRates):
    """Outcome of one 2D-partitioned BFS run.

    Exposes the same surface as
    :class:`~repro.multigcd.distributed_bfs.DistributedResult`
    (``bytes_exchanged``, ``traversed_edges`` and the
    :class:`~repro.multigcd.distributed_bfs.PodRunRates`), so callers
    treat the two engines' runs interchangeably.
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

    ENGINE = "grid2d"

    #: Why every level is top-down, on each level's audit row.
    _REASON = (
        "2D tiles consume the column allgather; both collectives are "
        "bitmap-width-bounded"
    )

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
        recovery: RecoveryPolicy | None = None,
        codec: ExchangeCodec | None = None,
        overlap: bool = False,
    ) -> None:
        # The ``multigcd.exchange`` fault site covers both collective
        # phases (detail ``level<k>.allgather`` /
        # ``level<k>.reduce_scatter``); ``overlap`` hides the row
        # reduce-scatter behind tile expansion.
        super().__init__(
            graph, num_gcds, device=device, config=config,
            interconnect=interconnect, tracer=tracer, injector=injector,
            recovery=recovery, codec=codec, overlap=overlap,
        )
        self.rows, self.cols = _square_grid(num_gcds)
        n = graph.num_vertices
        #: Vertex block boundaries along each grid dimension.
        self.row_bounds = np.linspace(0, n, self.rows + 1).astype(np.int64)
        self.col_bounds = np.linspace(0, n, self.cols + 1).astype(np.int64)
        self._block_deg: np.ndarray | None = None

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
        self, vertices: np.ndarray, bounds: np.ndarray, fan: int,
        row_bytes: int = 0,
    ) -> tuple[np.ndarray, int, int, float]:
        """Run one codec-compressed block collective.

        Splits ``vertices`` into the blocks delimited by ``bounds``,
        encodes each block's message (plus ``row_bytes`` of bitmap
        words per vertex for a batch), ships ``fan`` copies of it (the
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
            words = int(mine.size) * row_bytes
            for _ in range(fan):
                msg = codec.encode(mine, lo, hi)
                per_msg = msg.wire_bytes + words
                wire += per_msg
                raw += msg.raw_bytes + words
                if decoded is None:
                    decoded = codec.decode(msg)
            worst = max(worst, per_msg)
            pieces.append(decoded)
        joined = (
            np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
        )
        return joined.astype(np.int64), wire, raw, float(worst)

    # ------------------------------------------------------------------
    def run_batch(self, sources: np.ndarray) -> PodBatchResult:
        """One bit-parallel traversal of a batch of distinct sources.

        See the module docstring. Batches are validated up front with a
        typed :class:`~repro.errors.BatchSourceError`."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(sources, self.graph.num_vertices, max_batch=None,
                               engine=self.ENGINE)
        return self._traverse(sources)

    def _plan(self, level, active, frontier_edges, missing, prev_active, prev):
        return Decision(TOP_DOWN, self._REASON, (("frontier", int(active.size)),)), None

    def _block_degrees(self) -> np.ndarray:
        """``(vertices, rows)``: each vertex's out-edges into each row
        block, counted once per engine."""
        if self._block_deg is None:
            graph = self.graph
            n = graph.num_vertices
            src = np.repeat(np.arange(n), graph.degrees)
            block = np.searchsorted(self.row_bounds, graph.col_indices, side="right") - 1
            self._block_deg = np.bincount(
                src * self.rows + block, minlength=n * self.rows
            ).reshape(n, self.rows)
        return self._block_deg

    def _product(self, frontier, active, cand, missing):
        """The three phases' host side: the column allgather of the
        frontier rows, one product over the rows received, with its
        edges binned per tile, and the row reduce-scatter of the rows it
        filled.

        Without a codec each collective ships whole bitmap blocks; with
        one, a block's occupied rows go through the codec and the
        product reads only rows that were decoded."""
        graph = self.graph
        n = graph.num_vertices
        row_bytes = 8 * frontier.shape[1]
        before = self._format_counts()
        ag_fan = self.rows * (self.rows - 1)
        rs_fan = self.cols * (self.cols - 1)
        # Phase 1: the column allgather of frontier rows.
        if self.codec is None:
            ag_worst = -(-n // self.cols) * row_bytes
            ag_wire = ag_raw = ag_worst * ag_fan * self.cols
            seen, rows = frontier, active
        else:
            rows, ag_wire, ag_raw, ag_worst = self._block_exchange(
                active, self.col_bounds, ag_fan, row_bytes
            )
            seen = np.zeros_like(frontier)
            seen[rows] = np.take(frontier, rows, axis=0)
        # Phase 2: the tiles' product over the received rows (the host
        # pulls when that scans fewer edges). edges[r, i] counts the
        # out-edges of rows[r] landing in row block i, the edges of
        # tile (i, column block of rows[r]).
        pull, pull_edges = bm.pull_candidates(graph, missing)
        if pull_edges >= int(graph.degrees[rows].sum()):
            pull = None
        filled = super()._product(seen, rows, pull, missing)
        edges = self._block_degrees()[rows]
        col_block = np.searchsorted(self.col_bounds, rows, side="right") - 1
        # Phase 3: the row reduce-scatter of the rows filled.
        if self.codec is None:
            rs_worst = -(-n // self.rows) * row_bytes
            rs_wire = rs_raw = rs_worst * rs_fan * self.rows
            fresh = filled
        else:
            got, rs_wire, rs_raw, rs_worst = self._block_exchange(
                bm.occupied_rows(filled), self.row_bounds, rs_fan, row_bytes
            )
            fresh = np.zeros_like(frontier)
            fresh[got] = np.take(filled, got, axis=0)
        self._pod.exchange = (rows, edges, col_block, ag_worst, rs_worst)
        self._pod.record(ag_wire + rs_wire, ag_raw + rs_raw,
                         self._formats_since(before))
        return fresh

    def _charge(self, pod, level, active, frontier_edges, cand, fresh, newly):
        """Every tile's expand, then the two collectives: the
        allgather before the tiles, the reduce-scatter hideable behind
        them under ``overlap``."""
        graph = self.graph
        n = graph.num_vertices
        words = fresh.shape[1]
        line = self.device.cache_line_bytes
        rows, edges, col_block, ag_worst, rs_worst = pod.exchange
        ag_ms = self._subcomm_cost(self.rows, ag_worst) * self._exchange_scale(
            level, "allgather"
        )
        for i in range(self.rows):
            for j in range(self.cols):
                local = (col_block == j) & (edges[:, i] > 0)
                e_tile = int(edges[local, i].sum())
                if e_tile == 0:
                    continue
                mine = rows[local]
                adj_lines = segment_lines_touched(
                    graph.row_offsets[mine], graph.degrees[mine],
                    element_bytes=4, line_bytes=line,
                )
                pod.gcds[i * self.cols + j].launch(
                    "g2d_tile_expand",
                    strategy=self.ENGINE,
                    level=level,
                    streams=[
                        seq_read("frontier_bitmap", -(-n // self.cols) * words, 8),
                        rand_read("beg_pos", 2 * int(mine.size), 2 * int(mine.size), 8),
                        segmented_read("tile_cols", e_tile, adj_lines, 4),
                        rand_write("discovery_bitmap", e_tile * words,
                                   -(-n // self.rows) * words, 8),
                    ],
                    work=ComputeWork(flat_ops=float((e_tile + mine.size) * words)),
                    work_items=int(mine.size),
                )
        tile_ms = pod.step()
        rs_ms = self._subcomm_cost(self.cols, rs_worst) * self._exchange_scale(
            level, "reduce_scatter"
        )
        self._settle(pod, level, int(active.size), tile_ms, ag_ms + rs_ms,
                     hideable_ms=rs_ms, direction=TOP_DOWN)
        return frontier_edges

    def _traverse_source(self, gcds: list[GCD], source: int) -> Grid2dResult:
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
        formats_before = self._format_counts()
        line = self.device.cache_line_bytes
        level_decisions: list[dict] = []

        while frontier.size:
            fmt_before = self._format_counts()
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

            level_decisions.append(
                {
                    "level": level,
                    "direction": TOP_DOWN,
                    "reason": self._REASON,
                    "frontier": int(frontier.size),
                    "comm_bytes": ag_bytes + rs_bytes,
                    "formats": self._formats_since(fmt_before),
                }
            )
            levels[discovered] = level + 1
            frontier = discovered
            level += 1

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
            exchange_formats=self._formats_since(formats_before),
            overlap_saved_ms=overlap_saved,
            level_decisions=level_decisions,
        )
        result._traversed = int(graph.degrees[reached].sum())
        return result
