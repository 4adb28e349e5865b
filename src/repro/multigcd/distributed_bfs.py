"""Level-synchronous distributed BFS over multiple simulated GCDs.

This is the extension the paper motivates ("a solid basis for
distributed BFS on AMD GPUs"): 1D-partitioned BFS in the Graph500
style, with each partition expanded on its own simulated GCD and
remote discoveries exchanged through the α–β interconnect model.

A pod serves a batch of sources as **one bit-parallel traversal**
(:meth:`MultiGcdBFS.run_batch`) on the level loop of the single-GCD
bitmap engines (:class:`~repro.xbfs.bitmap.BitmapBatchEngine`): the
(vertices × sources/64) frontier and visited bitmaps are split into the
partition's row blocks, one per member GCD, and one level expands every
source at once, the sharing of Pan/Pearce/Owens' bitmap frontiers and
of BLEST (PAPERS.md). On a top-down level each GCD pushes its own
frontier rows along their out-edges, and the rows it newly filled in
other GCDs' blocks go all-to-all: 4 B of row id plus the row's words
each. A level ends bulk-synchronously: the slowest member's launch
(times its straggler factor), plus the exchange, plus one sync. Levels
commit only after that sync, so a device or exchange fault replays the
level (:func:`~repro.xbfs.common.replay_on_fault`) after quiescing
every member. On the host, a top-down level computes each member's
filled rows with a push per member, or — when that scans fewer edges,
as :class:`~repro.xbfs.concurrent.ConcurrentBFS` decides — with one
pull split by the member owning each in-edge; the modelled charge is
the top-down one either way.

:meth:`MultiGcdBFS.run` traverses one source the per-vertex way. Per
level, on every GCD: expand the locally-owned slice of the frontier
(one top-down kernel, costed by the same substrate XBFS uses), claim
the unvisited neighbours with a |V| flag scan
(:func:`~repro.xbfs.common.unique_vertices`), bucket them by owner,
all-to-all, then owners claim the merged discoveries the same way and
update their status slice. Claims are ascending and owned ranges
contiguous, so each per-owner bucket is a ``searchsorted`` slice.
Its levels are bulk-synchronous the same way, but it has no checkpoint
layer: an injected device fault surfaces as the typed error.

With ``direction_alpha`` set, peak levels run *bottom-up* the way
distributed Graph500 codes do: every GCD first contributes its owned
slice of the frontier bitmap to an allgather (a fixed-size exchange
instead of a frontier-proportional one), then scans its own unvisited
vertices' incoming edges against the replicated bitmap — discoveries
are locally owned by construction, so no second exchange is needed.

Two scalability levers are opt-in (both default off, keeping the
naive exchange bit-for-bit as committed):

* ``codec`` — an :class:`~repro.multigcd.exchange.ExchangeCodec` that
  compresses every peer-to-peer message, choosing per message between
  the sparse id-list and a bitmap over the receiver's owned range (a
  batch's message encodes its row ids that way; the row words ride
  along). Ids that cross the wire are round-tripped through the codec
  (``decode(encode(...))``), so a codec can change modelled bytes and
  exchange time but never the level array.
* ``overlap`` — charge each top-down level's exchange and its local
  expand to overlapping virtual-time intervals (``max`` instead of
  sum), the comm/compute pipelining of Pan/Pearce/Owens. Bottom-up
  levels stay sequential: the allgather is a data dependency of the
  scan. Overlap changes *accounting only* — the kernel launch stream
  is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError, TraversalError
from repro.faults.recovery import RecoveryPolicy
from repro.gcd.atomics import AtomicStats
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.exchange import ExchangeCodec, sparse_bytes
from repro.multigcd.partition import Partition1D, partition_by_edges
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import Decision
from repro.xbfs.common import (
    first_match_per_segment,
    gather_adjacency,
    segment_lines_touched,
    unique_vertices,
    wavefront_serialized_steps,
)
from repro.xbfs.concurrent import validate_batch_sources

__all__ = ["MultiGcdBFS", "PodEngine", "PodRunRates", "DistributedResult",
           "PodBatchResult"]

#: Bytes per exchanged frontier vertex id.
_ID_BYTES = 4

#: Per-level direction labels of the pods.
TOP_DOWN = "top_down"
BOTTOM_UP = "bottom_up"


class PodRunRates:
    """Rates both pods' results derive from their totals.

    Reads ``elapsed_ms``, ``comm_ms``, ``traversed_edges``,
    ``bytes_exchanged`` and ``bytes_raw``.
    """

    @property
    def gteps(self) -> float:
        if self.elapsed_ms <= 0:
            return 0.0
        return self.traversed_edges / (self.elapsed_ms * 1e-3) / 1e9

    @property
    def comm_fraction(self) -> float:
        return self.comm_ms / self.elapsed_ms if self.elapsed_ms > 0 else 0.0

    @property
    def compression_ratio(self) -> float:
        """Raw over wire exchange bytes (1.0 when nothing shipped)."""
        if self.bytes_exchanged <= 0:
            return 1.0
        return self.bytes_raw / self.bytes_exchanged


@dataclass
class DistributedResult(PodRunRates):
    """Outcome of one distributed BFS run."""

    source: int
    levels: np.ndarray
    elapsed_ms: float
    comm_ms: float
    compute_ms: float
    bytes_exchanged: int
    traversed_edges: int
    num_gcds: int
    per_level_comm_bytes: list[int] = field(default_factory=list)
    #: What the uncompressed id-list exchange would have shipped
    #: (equals ``bytes_exchanged`` when no codec is attached).
    bytes_raw: int = 0
    per_level_raw_bytes: list[int] = field(default_factory=list)
    #: Wire messages per format for this run (empty without a codec).
    exchange_formats: dict[str, int] = field(default_factory=dict)
    #: Virtual time hidden by comm/compute overlap (0 without overlap).
    overlap_saved_ms: float = 0.0
    #: Per-level decision records for the audit plane: the direction
    #: choice with its ratio/alpha signals plus the codec's wire-format
    #: picks for that level. Purely descriptive.
    level_decisions: list = field(default_factory=list)


@dataclass
class PodBatchResult(PodRunRates, bm.BitmapBatchResult):
    """Outcome of one bit-parallel pod batch.

    Every source traverses at once across the member GCDs, on the pod's
    bulk-synchronous clock. ``comm_ms`` and ``compute_ms`` are the
    exchange and slowest-member kernel time of every level attempt
    (replays included); ``bytes_exchanged`` and ``bytes_raw`` are the
    wire and uncompressed bytes of each level's exchange.
    """

    comm_ms: float = 0.0
    compute_ms: float = 0.0
    bytes_exchanged: int = 0
    bytes_raw: int = 0
    #: Virtual time hidden by comm/compute overlap (0 without overlap).
    overlap_saved_ms: float = 0.0
    num_gcds: int = 1
    #: Per level: the exchange's wire bytes, and the codec's messages
    #: per wire format (empty without a codec).
    level_comm_bytes: tuple = ()
    level_formats: tuple = ()

    def audit_rows(self, live):
        """Per level: a ``direction`` row, then any ``codec`` row.

        The direction row carries the level's exchange bytes; the codec
        row names the level's wire-format picks when the codec shipped
        messages. Each row lands on every query in ``live``."""
        qids = [q.qid for q in live]
        levels = zip(super().audit_rows(live), self.level_comm_bytes,
                     self.level_formats)
        for level, (row, comm_bytes, formats) in enumerate(levels):
            row[3]["comm_bytes"] = comm_bytes
            yield row
            if sum(formats.values()):
                picks = " ".join(f"{f}:{n}" for f, n in sorted(formats.items()) if n)
                yield "codec", qids, picks, dict(level=level, comm_bytes=comm_bytes)


class _BulkSyncPod:
    """A pod's member GCDs driven by the bitmap level loop as one
    device, plus the books of one batch.

    ``elapsed_ms`` is the pod's clock. :meth:`step` closes one
    bulk-synchronous phase: the slowest member's time since the
    previous step, each member's scaled by its straggler factor. A sync
    (or a recovery quiesce) settles every member and charges one step,
    so the partial work of a faulted level stays on the clock.
    """

    def __init__(self, gcds: list[GCD], slowdown: dict[int, float]) -> None:
        self.gcds = gcds
        self._factors = [slowdown.get(g, 1.0) for g in range(len(gcds))]
        self._marks = [g.elapsed_ms for g in gcds]
        self.elapsed_ms = 0.0
        self.comm_ms = 0.0
        self.compute_ms = 0.0
        self.saved_ms = 0.0
        self.bytes_wire = 0
        self.bytes_raw = 0
        self.level_bytes: list[int] = []
        self.level_formats: list[dict] = []
        #: The current level's exchange plan, from the engine's host
        #: product to its charge.
        self.exchange = None

    def step(self) -> float:
        ms = max(
            (g.elapsed_ms - mark) * f
            for g, mark, f in zip(self.gcds, self._marks, self._factors)
        )
        self._marks = [g.elapsed_ms for g in self.gcds]
        return ms

    def sync(self) -> None:
        for g in self.gcds:
            g.sync()
        self.elapsed_ms += self.step()

    def quiesce(self) -> None:
        for g in self.gcds:
            g.quiesce()
        self.elapsed_ms += self.step()

    def charge(self, kernel_ms: float, comm_ms: float, saved_ms: float) -> None:
        """One level attempt's kernels and exchange, ``saved_ms`` of
        which overlap hides."""
        self.compute_ms += kernel_ms
        self.comm_ms += comm_ms
        self.saved_ms += saved_ms
        self.elapsed_ms += kernel_ms + comm_ms - saved_ms

    def record(self, wire: int, raw: int, formats: dict) -> None:
        """One level's exchange bytes (once per level, replays aside)."""
        self.bytes_wire += wire
        self.bytes_raw += raw
        self.level_bytes.append(wire)
        self.level_formats.append(formats)


class PodEngine(bm.BitmapBatchEngine):
    """What both multi-GCD pods share around their traversals.

    The lazy pool of member GCDs (kept warm across runs), the traced
    per-vertex ``run``, the bitmap level loop's device and result for
    ``run_batch``, the codec's per-level format counts and the warm
    footprint. A subclass names itself in ``ENGINE`` and supplies
    ``_traverse_source(gcds, source)`` plus the level loop's plan,
    host product and charge. Each pod defines its own ``run_batch``,
    because ``benchmarks/e2e/layers.py`` times the method in each
    class's own body.
    """

    #: Per-GCD kernel-time multipliers (only the 1D pod sets any).
    straggler_slowdown: dict[int, float] = {}

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
        if num_gcds < 1:
            raise PartitionError(f"num_gcds must be >= 1, got {num_gcds}")
        # ``injector`` is shared by every member GCD; the
        # ``multigcd.exchange`` site lets plans degrade (or fault) the
        # interconnect itself. ``tracer`` gets ``bfs.run`` spans and
        # pre-finished ``dist.level`` spans carrying each level's
        # kernel/comm split (a batch's sit inside its ``bfs.level``
        # spans); member-GCD kernels stay untraced because they run
        # *in parallel* — flattening them onto the single cursor
        # timeline would misstate the bulk-synchronous overlap.
        super().__init__(graph, device=device, config=config, tracer=tracer,
                         injector=injector, recovery=recovery)
        self.num_gcds = num_gcds
        self.interconnect = interconnect
        #: Optional :class:`~repro.multigcd.exchange.ExchangeCodec`;
        #: when attached every peer-to-peer frontier message is encoded
        #: (and its ids round-tripped through ``decode``) so the cost
        #: model charges wire bytes instead of raw id-list bytes.
        self.codec = codec
        #: Overlap each level's hideable exchange with its kernels
        #: (virtual-time accounting only — launch order is unchanged).
        self.overlap = overlap
        #: Member GCDs, built on the first run.
        self._gcds: list[GCD] | None = None
        #: The books of the batch in flight.
        self._pod: _BulkSyncPod | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        pod: its members' copies of the CSR (partition rows or
        checkerboard tiles) plus ownership and frontier state."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    def _members(self) -> list[GCD]:
        """The member GCDs, reset for a run and kept warm across runs."""
        if self._gcds is None:
            self._gcds = [
                GCD(self.device, self.config, injector=self.injector)
                for _ in range(self.num_gcds)
            ]
        else:
            for g in self._gcds:
                g.reset(keep_warm=True)
        return self._gcds

    def run(self, source: int):
        """One traversal from ``source`` on the warm member GCDs."""
        if not 0 <= source < self.graph.num_vertices:
            raise TraversalError(f"source {source} out of range")
        gcds = self._members()
        with self.tracer.span(
            "bfs.run", engine=self.ENGINE, source=source, gcds=self.num_gcds
        ):
            return self._traverse_source(gcds, source)

    def _device(self):
        gcds = self._members()
        self._pod = _BulkSyncPod(gcds, self.straggler_slowdown)
        return self._pod, not all(g._warm for g in gcds)

    def _result(self, **fields) -> PodBatchResult:
        pod = self._pod
        return PodBatchResult(
            **fields,
            comm_ms=pod.comm_ms,
            compute_ms=pod.compute_ms,
            bytes_exchanged=pod.bytes_wire,
            bytes_raw=pod.bytes_raw,
            overlap_saved_ms=pod.saved_ms,
            num_gcds=self.num_gcds,
            level_comm_bytes=tuple(pod.level_bytes),
            level_formats=tuple(pod.level_formats),
        )

    def _settle(self, pod: _BulkSyncPod, level: int, frontier: int,
                kernel_ms: float, comm_ms: float, *, hideable_ms: float,
                direction: str) -> None:
        """Close one level attempt's bulk-synchronous step: trace it as
        a pre-finished ``dist.level`` span carrying the kernel/comm
        split, then charge it to the pod clock. Under ``overlap`` the
        ``hideable_ms`` part of the exchange hides behind the kernels."""
        saved_ms = min(kernel_ms, hideable_ms) if self.overlap else 0.0
        extra = {"overlap_saved_ms": saved_ms} if self.overlap else {}
        self.tracer.complete(
            "dist.level",
            duration_ms=kernel_ms + comm_ms - saved_ms,
            level=level,
            strategy=self.ENGINE,
            direction=direction,
            kernel_ms=kernel_ms,
            comm_ms=comm_ms,
            comm_bytes=pod.level_bytes[-1],
            frontier=frontier,
            **extra,
        )
        pod.charge(kernel_ms, comm_ms, saved_ms)

    def _format_counts(self) -> tuple[int, int] | None:
        if self.codec is None:
            return None
        c = self.codec.counters()
        return c["messages_sparse"], c["messages_bitmap"]

    def _formats_since(self, before) -> dict:
        """The codec's messages per wire format since ``before``."""
        if before is None:
            return {}
        after = self._format_counts()
        return {"sparse": after[0] - before[0], "bitmap": after[1] - before[1]}

    def _ship(self, rows: np.ndarray, lo: int, hi: int, row_bytes: int):
        """One message of bitmap rows to the owner of ``[lo, hi)``: the
        row ids (encoded when a codec is attached) plus ``row_bytes``
        of words per row. Returns ``(ids as received, wire, raw)``."""
        words = int(rows.size) * row_bytes
        if self.codec is None:
            raw = sparse_bytes(rows.size) + words
            return rows, raw, raw
        msg = self.codec.encode(rows, lo, hi)
        return self.codec.decode(msg), msg.wire_bytes + words, msg.raw_bytes + words


class MultiGcdBFS(PodEngine):
    """Bulk-synchronous 1D-partitioned BFS across N simulated GCDs."""

    ENGINE = "multigcd"

    def __init__(
        self,
        graph: CSRGraph,
        num_gcds: int,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        interconnect: InterconnectModel = INFINITY_FABRIC,
        partition: Partition1D | None = None,
        direction_alpha: float | None = None,
        straggler_slowdown: dict[int, float] | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
        codec: ExchangeCodec | None = None,
        overlap: bool = False,
    ) -> None:
        super().__init__(
            graph, num_gcds, device=device, config=config,
            interconnect=interconnect, tracer=tracer, injector=injector,
            recovery=recovery, codec=codec, overlap=overlap,
        )
        if direction_alpha is not None and not 0 < direction_alpha <= 1:
            raise PartitionError("direction_alpha must be in (0, 1]")
        if straggler_slowdown:
            for g, f in straggler_slowdown.items():
                if not 0 <= g < num_gcds:
                    raise PartitionError(f"straggler gcd {g} out of range")
                if f < 1.0:
                    raise PartitionError("straggler factors must be >= 1")
        #: Per-GCD kernel-time multipliers modelling degraded dies
        #: (thermal throttling, a flaky HBM stack): in a bulk-synchronous
        #: run every level waits for the slowest GCD, so a single
        #: straggler poisons the whole machine — the classic BSP
        #: sensitivity the Graph500 operations teams fight.
        self.straggler_slowdown = dict(straggler_slowdown or {})
        self.direction_alpha = direction_alpha
        self.partition = partition or partition_by_edges(graph, num_gcds)
        if self.partition.num_vertices != graph.num_vertices:
            raise PartitionError("partition does not cover the graph")
        #: See :meth:`_in_edges_by_owner` (built on the first pulled level).
        self._in_by_owner: np.ndarray | None = None

    def _exchange_scale(self, level: int) -> float:
        """Latency multiplier for one all-to-all (1.0 without faults)."""
        if self.injector is None:
            return 1.0
        return self.injector.visit("multigcd.exchange", f"level{level}")

    # ------------------------------------------------------------------
    def _bottom_up_level(
        self,
        gcds: list[GCD],
        levels: np.ndarray,
        frontier: np.ndarray,
        level: int,
    ) -> tuple[float, float, int, int, np.ndarray]:
        """One distributed bottom-up level.

        Phase 1: allgather the frontier bitmap — every GCD ships its
        owned slice (|owned|/8 bytes) to every peer; with a codec
        attached each slice message is encoded instead (sparse on
        near-empty slices), and the replicated bitmap is rebuilt from
        the *decoded* messages. Phase 2: each GCD scans its owned
        unvisited vertices' incoming edges against the replicated
        bitmap with early termination; discoveries are owned locally,
        so there is no discovery exchange.

        Returns (kernel_ms, comm_ms, comm_bytes, raw_bytes,
        claimed_vertices); ``frontier`` and the claim are ascending.
        """
        graph = self.graph
        incoming = graph.reverse()
        part = self.partition
        p = self.num_gcds
        line = self.device.cache_line_bytes
        wf = self.device.wavefront_size

        # Phase 1: bitmap allgather.
        bytes_matrix = np.zeros((p, p), dtype=np.int64)
        in_frontier = np.zeros(graph.num_vertices, dtype=bool)
        raw_bytes = 0
        if self.codec is None:
            for g in range(p):
                lo, hi = part.owned_range(g)
                slice_bytes = -(-(hi - lo) // 8)
                bytes_matrix[g, :] = slice_bytes
                np.fill_diagonal(bytes_matrix, 0)
            in_frontier[frontier] = True
            raw_bytes = int(bytes_matrix.sum())
        else:
            cut = np.searchsorted(frontier, part.boundaries)
            for g in range(p):
                lo, hi = part.owned_range(g)
                mine = frontier[cut[g]:cut[g + 1]]
                if p == 1:
                    in_frontier[mine] = True
                    continue
                # The allgather ships the same encoded slice to every
                # peer; one round-trip feeds the replicated bitmap.
                decoded: np.ndarray | None = None
                for d in range(p):
                    if d == g:
                        continue
                    msg = self.codec.encode(mine, lo, hi)
                    bytes_matrix[g, d] = msg.wire_bytes
                    raw_bytes += msg.raw_bytes
                    if decoded is None:
                        decoded = self.codec.decode(msg)
                in_frontier[decoded] = True
        comm_ms = self.interconnect.alltoall_ms(bytes_matrix)
        comm_ms *= self._exchange_scale(level)
        comm_bytes = int(bytes_matrix.sum())

        # Phase 2: local bottom-up expands.
        kernel_ms = 0.0
        claimed: list[np.ndarray] = []
        for g in range(p):
            lo, hi = part.owned_range(g)
            local_unvisited = (lo + np.flatnonzero(levels[lo:hi] == -1)).astype(
                np.int64
            )
            before = gcds[g].elapsed_ms
            if local_unvisited.size:
                degs = incoming.degrees[local_unvisited]
                nbrs = gather_adjacency(incoming, local_unvisited)
                match = in_frontier[nbrs]
                first = first_match_per_segment(match, degs)
                found = first >= 0
                scan_len = np.where(found, first + 1, degs)
                edges = int(scan_len.sum())
                adj_lines = segment_lines_touched(
                    incoming.row_offsets[local_unvisited], scan_len,
                    element_bytes=4, line_bytes=line,
                )
                gcds[g].launch(
                    "dist_bu_expand",
                    strategy="multigcd",
                    level=level,
                    streams=[
                        seq_read("status", hi - lo, 4),
                        segmented_read("adj_list", edges, adj_lines, 4),
                        rand_read(
                            "frontier_bitmap",
                            edges,
                            -(-graph.num_vertices // 8),
                            1,
                        ),
                        rand_write("status", int(found.sum()), int(found.sum()), 4),
                    ],
                    work=ComputeWork(
                        flat_ops=float(local_unvisited.size),
                        divergent_probes=float(
                            wavefront_serialized_steps(scan_len, wf)
                        ),
                    ),
                    work_items=int(local_unvisited.size),
                    bottom_up=True,
                )
                gcds[g].sync()
                claimed.append(local_unvisited[found])
            factor = self.straggler_slowdown.get(g, 1.0)
            kernel_ms = max(kernel_ms, (gcds[g].elapsed_ms - before) * factor)

        claim = (
            np.concatenate(claimed) if claimed else np.zeros(0, dtype=np.int64)
        )
        return kernel_ms, comm_ms, comm_bytes, raw_bytes, claim

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
        """Top-down, or bottom-up once the frontier's edge ratio passes
        ``direction_alpha``: then every row some source has not reached
        pulls."""
        ratio = frontier_edges / max(1, self.graph.num_edges)
        alpha = self.direction_alpha
        signals = (("ratio", ratio), ("frontier", int(active.size)))
        if alpha is None:
            return Decision(TOP_DOWN, "direction switching disabled", signals), None
        signals += (("alpha", alpha),)
        if ratio > alpha:
            reason = f"ratio {ratio:.3g} > direction_alpha {alpha:g}"
            return Decision(BOTTOM_UP, reason, signals), bm.occupied_rows(missing)
        reason = f"ratio {ratio:.3g} <= direction_alpha {alpha:g}"
        return Decision(TOP_DOWN, reason, signals), None

    def _in_edges_by_owner(self) -> np.ndarray:
        """``(vertices, num_gcds)``: each vertex's in-edges per member
        owning their tail, counted once per engine.

        Reverse adjacency lists are sorted by neighbour id and owned
        ranges are contiguous, so each row's in-edges fall into one run
        per owner: the counts below each partition boundary give the
        runs."""
        if self._in_by_owner is None:
            rev = self.graph.reverse()
            bounds = self.partition.boundaries
            rows = np.flatnonzero(rev.degrees)
            below = np.zeros((rev.num_vertices, bounds.size), dtype=np.int64)
            below[:, -1] = rev.degrees
            for q in range(1, bounds.size - 1):
                below[rows, q] = np.add.reduceat(
                    rev.col_indices < bounds[q], rev.row_offsets[rows], dtype=np.int64
                )
            self._in_by_owner = np.diff(below, axis=1)
        return self._in_by_owner

    def _pull_by_member(self, frontier, cand, missing) -> np.ndarray:
        """The pull product on rows ``cand``, split by the member owning
        each in-neighbour: ``(len(cand), num_gcds, words)`` new bits
        (:func:`~repro.xbfs.bitmap.pull_runs`, one run per candidate
        row and owner)."""
        parts = bm.pull_runs(
            self.graph.reverse(), frontier, cand, self._in_edges_by_owner()[cand]
        )
        parts &= np.take(missing, cand, axis=0)[:, np.newaxis]
        return parts

    def _product(self, frontier, active, cand, missing):
        """The level's discoveries, built from what crosses the wire.

        Top-down: each GCD pushes its own frontier rows, and the rows
        it newly filled in another GCD's block reach that owner
        through :meth:`~PodEngine._ship`. Bottom-up: each GCD ships its
        owned frontier rows to every peer (the whole row block without
        a codec), and the candidates pull from the rows received."""
        graph = self.graph
        p = self.num_gcds
        bounds = self.partition.boundaries
        row_bytes = 8 * frontier.shape[1]
        before = self._format_counts()
        wire = np.zeros((p, p), dtype=np.int64)
        raw = 0
        cut = np.searchsorted(active, bounds)
        if cand is None:
            # The host pulls instead when that scans fewer edges, one
            # segment per candidate row and owning member.
            pull, pull_edges = bm.pull_candidates(graph, missing)
            parts = (
                self._pull_by_member(frontier, pull, missing)
                if pull_edges < int(graph.degrees[active].sum())
                else None
            )
            fresh = np.zeros_like(frontier)
            found = np.zeros(p, dtype=np.int64)
            received = np.zeros(p, dtype=np.int64)
            for g in range(p):
                mine = active[cut[g]:cut[g + 1]]
                if not mine.size:
                    continue
                if parts is None:
                    filled = bm.push_product(graph, frontier, mine) & missing
                    rows = bm.occupied_rows(filled)
                    words = np.take(filled, rows, axis=0)
                else:
                    hit = bm.occupied_rows(parts[:, g])
                    rows, words = pull[hit], np.take(parts[:, g], hit, axis=0)
                found[g] = rows.size
                dest = np.searchsorted(rows, bounds)
                for d in range(p):
                    ids = rows[dest[d]:dest[d + 1]]
                    if d != g and ids.size:
                        lo, hi = self.partition.owned_range(d)
                        ids, wire[g, d], r = self._ship(ids, lo, hi, row_bytes)
                        raw += r
                        received[d] += ids.size
                    fresh[ids] |= words[dest[d]:dest[d + 1]]
            plan = (cut, found, received, wire)
        else:
            seen = frontier if self.codec is None else np.zeros_like(frontier)
            for g in range(p):
                lo, hi = self.partition.owned_range(g)
                rows = ids = active[cut[g]:cut[g + 1]]
                for d in range(p):
                    if d == g:
                        continue
                    if self.codec is None:
                        wire[g, d] = r = (hi - lo) * row_bytes
                    else:
                        # Every peer receives the same message; a
                        # decoded copy feeds the replicated rows.
                        ids, wire[g, d], r = self._ship(rows, lo, hi, row_bytes)
                    raw += r
                if self.codec is not None:
                    seen[ids] = frontier[ids]
            fresh = super()._product(seen, active, cand, missing)
            plan = (np.searchsorted(cand, bounds), wire)
        self._pod.exchange = plan
        self._pod.record(int(wire.sum()), raw, self._formats_since(before))
        return fresh

    def _charge(self, pod, level, active, frontier_edges, cand, fresh, newly):
        """Each member's launch, then the exchange.

        Top-down, a member expands its frontier rows (read-modify-OR of
        the destination rows' words, like the bitmap push) and merges
        the rows other members sent it; the exchange may hide behind
        the launches under ``overlap``. Bottom-up, a member gathers its
        own candidates' in-edges against the allgathered rows, after
        the allgather."""
        graph = self.graph
        n = graph.num_vertices
        words = fresh.shape[1]
        line = self.device.cache_line_bytes
        msg_row = _ID_BYTES + 8 * words
        if cand is None:
            cut, found, received, wire = pod.exchange
            examined = frontier_edges
            for g, gcd in enumerate(pod.gcds):
                mine = active[cut[g]:cut[g + 1]]
                a, r = int(mine.size), int(received[g])
                if not a and not r:
                    continue
                e = int(graph.degrees[mine].sum())
                adj_lines = segment_lines_touched(
                    graph.row_offsets[mine], graph.degrees[mine],
                    element_bytes=4, line_bytes=line,
                )
                gcd.launch(
                    "dist_bm_expand",
                    strategy=self.ENGINE,
                    level=level,
                    streams=[
                        seq_read("frontier_bitmap", a * words, 8),
                        rand_read("beg_pos", 2 * a, 2 * a, 8),
                        segmented_read("adj_list", e, adj_lines, 4),
                        rand_read("bit_status", e * words, n * words, 8),
                        rand_write("bit_status", int(found[g]) * words,
                                   int(found[g]) * words, 8),
                        seq_read("recv_buffers", r, msg_row),
                        rand_write("bit_status", r * words, r * words, 8),
                    ],
                    work=ComputeWork(flat_ops=float((e + a + r) * words)),
                    work_items=a + r,
                )
        else:
            cut, wire = pod.exchange
            rev = graph.reverse()
            found = np.diff(np.searchsorted(newly, self.partition.boundaries))
            examined = 0
            for g, gcd in enumerate(pod.gcds):
                mine = cand[cut[g]:cut[g + 1]]
                if not mine.size:
                    continue
                c, f = int(mine.size), int(found[g])
                e = int(rev.degrees[mine].sum())
                examined += e
                lo, hi = self.partition.owned_range(g)
                adj_lines = segment_lines_touched(
                    rev.row_offsets[mine], rev.degrees[mine],
                    element_bytes=4, line_bytes=line,
                )
                gcd.launch(
                    "dist_bm_pull",
                    strategy=self.ENGINE,
                    level=level,
                    streams=[
                        seq_read("visited_bitmap", (hi - lo) * words, 8),
                        rand_read("beg_pos", 2 * c, 2 * c, 8),
                        segmented_read("col_idx_rev", e, adj_lines, 4),
                        rand_read("frontier_bitmap", e * words, n * words, 8),
                        rand_write("bit_status", f * words, f * words, 8),
                    ],
                    work=ComputeWork(flat_ops=float((e + c) * words)),
                    work_items=c,
                    bottom_up=True,
                )
        kernel_ms = pod.step()
        comm_ms = self.interconnect.alltoall_ms(wire) * self._exchange_scale(level)
        self._settle(pod, level, int(active.size), kernel_ms, comm_ms,
                     hideable_ms=comm_ms if cand is None else 0.0,
                     direction=TOP_DOWN if cand is None else BOTTOM_UP)
        return examined

    def _traverse_source(self, gcds: list[GCD], source: int) -> DistributedResult:
        graph = self.graph
        part = self.partition
        p = self.num_gcds
        tracer = self.tracer

        levels = np.full(graph.num_vertices, -1, dtype=np.int32)
        levels[source] = 0
        frontier = np.array([source], dtype=np.int64)
        level = 0
        elapsed = 0.0
        comm_total = 0.0
        compute_total = 0.0
        bytes_total = 0
        raw_total = 0
        overlap_saved = 0.0
        per_level_bytes: list[int] = []
        per_level_raw: list[int] = []
        formats_before = self._format_counts()
        line = self.device.cache_line_bytes
        wf = self.device.wavefront_size
        level_decisions: list[dict] = []

        while frontier.size:
            frontier_edges = int(graph.degrees[frontier].sum())
            ratio = frontier_edges / max(1, graph.num_edges)
            fmt_before = self._format_counts()
            if (
                self.direction_alpha is not None
                and ratio > self.direction_alpha
            ):
                bu_ms, bu_comm_ms, bu_bytes, bu_raw, claim = (
                    self._bottom_up_level(gcds, levels, frontier, level)
                )
                per_level_bytes.append(bu_bytes)
                per_level_raw.append(bu_raw)
                bytes_total += bu_bytes
                raw_total += bu_raw
                comm_total += bu_comm_ms
                compute_total += bu_ms
                # Bottom-up stays sequential even under ``overlap``:
                # the scan consumes the allgathered bitmap, so the
                # exchange cannot hide behind it.
                elapsed += bu_ms + bu_comm_ms
                extra = (
                    {"comm_raw_bytes": bu_raw} if self.codec is not None else {}
                )
                tracer.complete(
                    "dist.level",
                    duration_ms=bu_ms + bu_comm_ms,
                    level=level,
                    strategy="multigcd",
                    direction="bottom_up",
                    kernel_ms=bu_ms,
                    comm_ms=bu_comm_ms,
                    comm_bytes=bu_bytes,
                    frontier=int(frontier.size),
                    **extra,
                )
                level_decisions.append(
                    {
                        "level": level,
                        "direction": "bottom_up",
                        "reason": (
                            f"ratio {ratio:.3g} > direction_alpha "
                            f"{self.direction_alpha:g}"
                        ),
                        "ratio": ratio,
                        "alpha": self.direction_alpha,
                        "frontier": int(frontier.size),
                        "comm_bytes": bu_bytes,
                        "formats": self._formats_since(fmt_before),
                    }
                )
                levels[claim] = level + 1
                frontier = claim
                level += 1
                continue
            cut = np.searchsorted(frontier, part.boundaries)
            level_kernel_ms = 0.0
            level_raw = 0
            bytes_matrix = np.zeros((p, p), dtype=np.int64)
            discoveries: list[np.ndarray] = []
            for g in range(p):
                local = frontier[cut[g]:cut[g + 1]]
                before = gcds[g].elapsed_ms
                if local.size:
                    neighbors = gather_adjacency(graph, local)
                    e_f = int(neighbors.size)
                    fresh = unique_vertices(
                        neighbors, graph.num_vertices, levels
                    )
                    adj_lines = segment_lines_touched(
                        graph.row_offsets[local], graph.degrees[local],
                        element_bytes=4, line_bytes=line,
                    )
                    append_ops = -(-int(fresh.size) // wf) if fresh.size else 0
                    gcds[g].launch(
                        "dist_expand",
                        strategy="multigcd",
                        level=level,
                        streams=[
                            seq_read("frontier", int(local.size), 4),
                            rand_read("beg_pos", 2 * int(local.size), 2 * int(local.size), 8),
                            segmented_read("adj_list", e_f, adj_lines, 4),
                            rand_read("status", e_f, graph.num_vertices, 4),
                            seq_write("send_buffers", int(fresh.size), _ID_BYTES),
                        ],
                        work=ComputeWork(
                            flat_ops=float(e_f + local.size),
                            atomics=AtomicStats(
                                operations=append_ops,
                                conflicts=max(0, append_ops - 1),
                                distinct_addresses=min(p, append_ops) if append_ops else 0,
                            ),
                        ),
                        work_items=int(local.size),
                    )
                    gcds[g].sync()
                    dest = np.searchsorted(fresh, part.boundaries)
                    if self.codec is None:
                        bytes_matrix[g, :] = np.diff(dest) * _ID_BYTES
                        discoveries.append(fresh)
                    else:
                        # Encode one message per remote owner; locally
                        # owned discoveries never touch the wire.
                        # Remote discoveries feed the claim through a
                        # decode round-trip, so the codec provably
                        # cannot change the answer.
                        for d in range(p):
                            mine = fresh[dest[d]:dest[d + 1]]
                            if d == g:
                                discoveries.append(mine)
                                continue
                            if not mine.size:
                                continue
                            d_lo, d_hi = part.owned_range(d)
                            msg = self.codec.encode(mine, d_lo, d_hi)
                            bytes_matrix[g, d] = msg.wire_bytes
                            level_raw += msg.raw_bytes
                            discoveries.append(self.codec.decode(msg))
                factor = self.straggler_slowdown.get(g, 1.0)
                level_kernel_ms = max(
                    level_kernel_ms, (gcds[g].elapsed_ms - before) * factor
                )

            comm_ms = self.interconnect.alltoall_ms(bytes_matrix)
            comm_ms *= self._exchange_scale(level)
            level_bytes = int(bytes_matrix.sum() - np.trace(bytes_matrix))
            if self.codec is None:
                level_raw = level_bytes
            per_level_bytes.append(level_bytes)
            per_level_raw.append(level_raw)
            bytes_total += level_bytes
            raw_total += level_raw
            comm_total += comm_ms
            compute_total += level_kernel_ms
            if self.overlap:
                # Pipelined exchange: sub-frontier buckets ship while
                # the remaining expand work runs, so the level's
                # expand+exchange interval is the longer of the two.
                saved_ms = min(level_kernel_ms, comm_ms)
                overlap_saved += saved_ms
                elapsed += max(level_kernel_ms, comm_ms)
            else:
                saved_ms = 0.0
                elapsed += level_kernel_ms + comm_ms

            # Every GCD holding part of the (non-empty) frontier keeps
            # its own discoveries, so there is always one to merge.
            claim = unique_vertices(
                np.concatenate(discoveries), graph.num_vertices, levels
            )
            # Owners claim their discoveries: a small scatter on each GCD.
            update_ms = 0.0
            if claim.size:
                cut = np.searchsorted(claim, part.boundaries)
                for g in range(p):
                    mine = claim[cut[g]:cut[g + 1]]
                    if not mine.size:
                        continue
                    before = gcds[g].elapsed_ms
                    gcds[g].launch(
                        "dist_update",
                        strategy="multigcd",
                        level=level,
                        streams=[
                            seq_read("recv_buffers", int(mine.size), _ID_BYTES),
                            rand_write("status", int(mine.size), int(mine.size), 4),
                        ],
                        work=ComputeWork(flat_ops=float(mine.size)),
                        work_items=int(mine.size),
                    )
                    gcds[g].sync()
                    factor = self.straggler_slowdown.get(g, 1.0)
                    update_ms = max(
                        update_ms, (gcds[g].elapsed_ms - before) * factor
                    )
                compute_total += update_ms
                elapsed += update_ms
            extra = {}
            if self.codec is not None:
                extra["comm_raw_bytes"] = level_raw
            if self.overlap:
                extra["overlap_saved_ms"] = saved_ms
            duration_ms = (
                max(level_kernel_ms, comm_ms) + update_ms
                if self.overlap
                else level_kernel_ms + comm_ms + update_ms
            )
            tracer.complete(
                "dist.level",
                duration_ms=duration_ms,
                level=level,
                strategy="multigcd",
                direction="top_down",
                kernel_ms=level_kernel_ms + update_ms,
                comm_ms=comm_ms,
                comm_bytes=level_bytes,
                frontier=int(frontier.size),
                **extra,
            )
            level_decisions.append(
                {
                    "level": level,
                    "direction": "top_down",
                    "reason": (
                        "direction switching disabled"
                        if self.direction_alpha is None
                        else (
                            f"ratio {ratio:.3g} <= direction_alpha "
                            f"{self.direction_alpha:g}"
                        )
                    ),
                    "ratio": ratio,
                    "alpha": self.direction_alpha,
                    "frontier": int(frontier.size),
                    "comm_bytes": level_bytes,
                    "formats": self._formats_since(fmt_before),
                }
            )
            levels[claim] = level + 1
            frontier = claim
            level += 1

        reached = levels >= 0
        return DistributedResult(
            source=source,
            levels=levels,
            elapsed_ms=elapsed,
            comm_ms=comm_total,
            compute_ms=compute_total,
            bytes_exchanged=bytes_total,
            traversed_edges=int(graph.degrees[reached].sum()),
            num_gcds=p,
            per_level_comm_bytes=per_level_bytes,
            bytes_raw=raw_total,
            per_level_raw_bytes=per_level_raw,
            exchange_formats=self._formats_since(formats_before),
            overlap_saved_ms=overlap_saved,
            level_decisions=level_decisions,
        )
