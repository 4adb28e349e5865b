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

:meth:`Grid2dBFS.run_batch` runs the three phases on the bitmap level
loop (:class:`~repro.xbfs.bitmap.BitmapBatchEngine`), every source at
once: the collectives carry (vertices × sources/64) bitmap rows — each
block whole, or its occupied rows' ids priced by the codec plus their
words — and a faulted level replays after every member quiesces. A
one-source batch is the per-vertex BFS: its rows' words are the bits
their ids imply, so a whole block ships as a ``ceil(rows / 8)``-byte
bitmap and a coded row costs only its id
(:func:`~repro.xbfs.bitmap.row_bytes`). Each tile's launch reads the
block messages it received under the same rule.

Functionally the engine is exact (validated against the oracle); the
cost model charges each phase on its sub-communicator. It takes
``codec`` (each block message's ids priced as the smaller of an id list
and a bitmap by :func:`~repro.multigcd.exchange.price`; the phases read
the frontier and the tiles' filled rows directly, so the codec cannot
change the answer),
comm/compute ``overlap`` (the reduce-scatter of early discovery rows
hides behind the remaining tile expansion; the allgather stays
sequential — tiles consume it), a :class:`~repro.telemetry.tracer`
(pre-finished ``dist.level`` spans, ``strategy="grid2d"``), and the
``multigcd.exchange`` fault site on both collective phases.
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.recovery import RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ExecConfig
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.distributed_bfs import TOP_DOWN, PodBatchResult, PodEngine
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import Decision

__all__ = ["Grid2dBFS"]


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
        codec: bool = False,
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
        #: Discovery ownership after the reduce-scatter: GCD (i, j)
        #: owns the (i·C + j)-th of P equal slices, inside row block i.
        self.owner_bounds = np.linspace(0, n, num_gcds + 1).astype(np.int64)
        #: GCD (i, j) is pod GCD i·C + j: row i of this grid is
        #: processor row i's members, and its column j processor
        #: column j's (GCDs j, j + C, ...).
        self.grid = np.arange(num_gcds).reshape(self.rows, self.cols)
        self._tile_degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _subcomm_cost(self, groups: np.ndarray, bytes_per_peer: float) -> float:
        """α-β cost of one allgather/reduce-scatter phase.

        Each row of ``groups`` is one sub-communicator, as the pod GCD
        ids of its members; each member sends ``bytes_per_peer`` to
        every peer. The sub-communicators run concurrently, so the
        slowest one (priced on its members' real GCD ids, which decide
        the tier under a two-tier interconnect) sets the phase time."""
        peers = groups.shape[1]
        if peers <= 1 or bytes_per_peer <= 0:
            return 0.0
        m = np.full((peers, peers), bytes_per_peer, dtype=np.float64)
        np.fill_diagonal(m, 0.0)
        return max(self.interconnect.alltoall_ms(m, ranks=g) for g in groups)

    def _exchange_scale(self, level: int, phase: str) -> float:
        """Latency multiplier for one collective (1.0 without faults)."""
        if self.injector is None:
            return 1.0
        return self.injector.visit("multigcd.exchange", f"level{level}.{phase}")

    def _block_exchange(
        self, rows: np.ndarray, bounds: np.ndarray, fan: int,
    ) -> tuple[int, float, np.ndarray, dict]:
        """Price one block collective under the codec.

        Block *b*'s message holds the ascending ``rows`` inside
        ``[bounds[b], bounds[b + 1])`` (empty blocks ship too): it is
        priced once and shipped ``fan`` times (the sub-communicator's
        peer-pair count). Returns ``(wire_bytes, slowest, raw,
        formats)``: ``slowest`` is the busiest block's modelled message
        size (the concurrent sub-communicators run in parallel),
        ``raw[b]`` block *b*'s message uncompressed and ``formats`` its
        messages per wire format.
        """
        wire, raw, formats = self._price(
            np.diff(np.searchsorted(rows, bounds)), np.diff(bounds)
        )
        fanned = {f: fan * n for f, n in formats.items()}
        return fan * int(wire.sum()), float(wire.max()), raw, fanned

    # ------------------------------------------------------------------
    def run_batch(self, sources: np.ndarray) -> PodBatchResult:
        """One bit-parallel traversal of a batch of distinct sources.

        See the module docstring. Batches are validated up front with a
        typed :class:`~repro.errors.BatchSourceError`."""
        return self._traverse(sources)

    def _plan(self, level, active, frontier_edges, missing, prev_active, prev):
        return Decision(TOP_DOWN, self._REASON, (("frontier", int(active.size)),)), None

    def _tiles(self) -> np.ndarray:
        """``(vertices, rows)``, counted once per engine: each vertex's
        out-edges into each row block."""
        if self._tile_degrees is None:
            graph = self.graph
            n = graph.num_vertices
            src = np.repeat(np.arange(n), graph.degrees)
            block = np.searchsorted(self.row_bounds, graph.col_indices, side="right") - 1
            self._tile_degrees = np.bincount(
                src * self.rows + block, minlength=n * self.rows
            ).reshape(n, self.rows)
        return self._tile_degrees

    def _product(self, frontier, active, cand, missing):
        """The three phases' host side: one product over the frontier
        rows the column allgather delivers, with its edges binned per
        tile, and the books of both collectives.

        Without a codec each collective ships whole bitmap blocks; with
        one, each block's message carries its occupied rows, priced by
        :meth:`_block_exchange`."""
        graph = self.graph
        n = graph.num_vertices
        ag_fan = self.rows * (self.rows - 1)
        rs_fan = self.cols * (self.cols - 1)
        # Phase 2: the tiles' product over the frontier rows (the host
        # pulls when that scans fewer edges). deg[r, i] counts the
        # out-edges of active[r] landing in row block i, the edges of
        # tile (i, column block of active[r]), and first[r, i] is where
        # they start: a block's edges are charged as one run of the
        # row's adjacency list, which they are when it is sorted by id.
        pull, pull_edges = bm.pull_candidates(graph, missing)
        if pull_edges >= int(graph.degrees[active].sum()):
            pull = None
        fresh = super()._product(frontier, active, pull, missing)
        deg = self._tiles()[active]
        first = graph.row_offsets[active, np.newaxis] + np.cumsum(deg, axis=1) - deg
        # Phase 1, the column allgather of the frontier rows, and phase
        # 3, the row reduce-scatter of the rows filled.
        if not self.codec:
            ag_worst = bm.row_bytes(-(-n // self.cols), self._width, block=True)
            ag_wire = ag_worst * ag_fan * self.cols
            ag_raw = np.full(self.cols, ag_worst, dtype=np.int64)
            rs_worst = bm.row_bytes(-(-n // self.rows), self._width, block=True)
            rs_wire = rs_worst * rs_fan * self.rows
            rs_raw = np.full(self.rows, rs_worst, dtype=np.int64)
            formats = {}
        else:
            ag_wire, ag_worst, ag_raw, formats = self._block_exchange(
                active, self.col_bounds, ag_fan
            )
            rs_wire, rs_worst, rs_raw, rs_formats = self._block_exchange(
                bm.occupied_rows(fresh), self.row_bounds, rs_fan
            )
            formats = {f: formats[f] + rs_formats[f] for f in formats}
        # Tile (i, j) receives R - 1 messages of column block j and
        # C - 1 of row block i.
        recv = (self.rows - 1) * ag_raw + (self.cols - 1) * rs_raw[:, np.newaxis]
        self._pod.exchange = (deg, first, ag_worst, rs_worst, recv)
        raw = int(ag_fan * ag_raw.sum() + rs_fan * rs_raw.sum())
        self._pod.record(ag_wire + rs_wire, raw, formats)
        return fresh

    def _charge(self, pod, level, active, cand, fresh, newly, counts):
        """Every tile's launch, then the two collectives: the
        allgather before the tiles, the reduce-scatter hideable behind
        them under ``overlap``.

        Tile (i, j)'s launch
        (:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`) pushes
        column block j's frontier rows along their edges into row block
        i, masked by row block i's status words; writes the output of
        the discovered rows it owns after the reduce-scatter; and reads
        every message it received."""
        edges, first, ag_worst, rs_worst, recv = pod.exchange
        ag_ms = self._subcomm_cost(self.grid.T, ag_worst) * self._exchange_scale(
            level, "allgather"
        )
        col_block = np.searchsorted(self.col_bounds, active, side="right") - 1
        own = np.searchsorted(newly, self.owner_bounds)
        examined = 0
        for i in range(self.rows):
            for j in range(self.cols):
                g = i * self.cols + j
                local = (col_block == j) & (edges[:, i] > 0)
                mine, lo, hi = active[local], own[g], own[g + 1]
                if not (mine.size or hi > lo or recv[i, j]):
                    continue
                examined += self._launch(
                    pod.gcds[g], "g2d_tile_expand", level, mine, fresh, newly[lo:hi],
                    counts[lo:hi],
                    span=int(self.row_bounds[i + 1] - self.row_bounds[i]),
                    runs=(first[local, i], edges[local, i]),
                    recv_bytes=int(recv[i, j]),
                )
        tile_ms = pod.step()
        rs_ms = self._subcomm_cost(self.grid, rs_worst) * self._exchange_scale(
            level, "reduce_scatter"
        )
        self._settle(pod, level, int(active.size), tile_ms, ag_ms + rs_ms,
                     hideable_ms=rs_ms, direction=TOP_DOWN)
        return examined
