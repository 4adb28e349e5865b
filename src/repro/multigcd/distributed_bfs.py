"""Level-synchronous distributed BFS over multiple simulated GCDs.

This is the extension the paper motivates ("a solid basis for
distributed BFS on AMD GPUs"): 1D-partitioned BFS in the Graph500
style, with each partition expanded on its own simulated GCD and
remote discoveries exchanged through the α–β interconnect model.

Per level, on every GCD: expand the locally-owned slice of the frontier
(one top-down kernel, costed by the same substrate XBFS uses), claim
the unvisited neighbours with a |V| flag scan
(:func:`~repro.xbfs.common.unique_vertices`), bucket them by owner,
all-to-all, then owners claim the merged discoveries the same way and
update their status slice. Claims are ascending and owned ranges
contiguous, so each per-owner bucket is a ``searchsorted`` slice.
Wall-clock per level is the *slowest* GCD's kernel time
(bulk-synchronous) plus the exchange plus one sync.

With ``direction_alpha`` set, peak levels run *bottom-up* the way
distributed Graph500 codes do: every GCD first contributes its owned
slice of the frontier bitmap to an allgather (a fixed ``|V|/8``-byte
exchange instead of a frontier-proportional one), then scans its own
unvisited vertices' incoming edges against the replicated bitmap —
discoveries are locally owned by construction, so no second exchange
is needed.

Two scalability levers are opt-in (both default off, keeping the
naive exchange bit-for-bit as committed):

* ``codec`` — an :class:`~repro.multigcd.exchange.ExchangeCodec` that
  compresses every peer-to-peer message, choosing per message between
  the sparse id-list and a bitmap over the receiver's owned range.
  Discoveries that cross the wire are round-tripped through the codec
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
from functools import cached_property

import numpy as np

from repro.errors import PartitionError, TraversalError
from repro.gcd.atomics import AtomicStats
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.exchange import ExchangeCodec
from repro.multigcd.partition import Partition1D, partition_by_edges
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.common import (
    first_match_per_segment,
    gather_adjacency,
    segment_lines_touched,
    unique_vertices,
    wavefront_serialized_steps,
)
from repro.xbfs.concurrent import validate_batch_sources

__all__ = ["MultiGcdBFS", "PodEngine", "PodRunRates", "DistributedResult",
           "DistributedBatchResult"]

#: Bytes per exchanged frontier vertex id.
_ID_BYTES = 4


class PodRunRates:
    """Rates both pods' per-run results derive from their totals.

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
class DistributedBatchResult:
    """Outcome of one batched distributed dispatch.

    The serving layer's batch entry point: ``sources`` traversed back
    to back on one multi-GCD pod, each run bulk-synchronous across
    every member GCD, with the pod's virtual clock accumulating across
    the whole batch. Per-source provenance stays available through
    ``runs``.
    """

    sources: np.ndarray
    runs: list[DistributedResult]
    num_gcds: int

    @property
    def elapsed_ms(self) -> float:
        return sum(r.elapsed_ms for r in self.runs)

    @property
    def comm_ms(self) -> float:
        return sum(r.comm_ms for r in self.runs)

    @property
    def compute_ms(self) -> float:
        return sum(r.compute_ms for r in self.runs)

    @property
    def bytes_exchanged(self) -> int:
        return sum(r.bytes_exchanged for r in self.runs)

    @property
    def bytes_raw(self) -> int:
        return sum(r.bytes_raw for r in self.runs)

    @property
    def overlap_saved_ms(self) -> float:
        return sum(r.overlap_saved_ms for r in self.runs)

    @property
    def traversed_edges(self) -> int:
        return sum(r.traversed_edges for r in self.runs)

    @property
    def sharing_factor(self) -> float:
        """1.0: the pod traverses every source on its own."""
        return 1.0

    @property
    def level_restarts(self) -> int:
        """0: the pod has no checkpoint layer, so a device fault
        surfaces as the typed error instead of a replayed level."""
        return 0

    @cached_property
    def _slot_of(self) -> dict[int, int]:
        return {s: i for i, s in enumerate(self.sources.tolist())}

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of one batched ``source`` (equal to a solo
        run — distributed answers are bit-identical by contract)."""
        slot = self._slot_of.get(source)
        if slot is None:
            raise TraversalError(f"source {source} is not in this batch")
        return self.runs[slot].levels

    def audit_rows(self, live):
        """Each query's audit rows, from the run of its own source.

        Rows are ``(stage, qid, decision, detail)``: a ``direction`` row
        per level, plus a ``codec`` row naming the level's wire-format
        picks when the exchange codec shipped messages.
        """
        for q in live:
            for rec in self.runs[self._slot_of[q.source]].level_decisions:
                detail = {k: v for k, v in rec.items()
                          if k not in ("direction", "formats") and v is not None}
                yield "direction", q.qid, rec["direction"], detail
                formats = rec.get("formats") or {}
                if sum(formats.values()):
                    picks = " ".join(
                        f"{f}:{n}" for f, n in sorted(formats.items()) if n
                    )
                    yield "codec", q.qid, picks, dict(
                        level=rec["level"], comm_bytes=rec.get("comm_bytes", 0)
                    )


class PodEngine:
    """The scaffold both multi-GCD pods share around their traversal.

    The lazy pool of member GCDs (kept warm across runs), the traced
    ``run``, the back-to-back batch and the warm footprint. A subclass
    names itself in ``engine_name`` and supplies
    ``_traverse(gcds, source)``.
    """

    #: Engine name on ``bfs.run`` spans and batch-validation errors.
    engine_name: str
    #: Member GCDs, built on the first run.
    _gcds: list[GCD] | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        pod: its members' copies of the CSR (partition rows or
        checkerboard tiles) plus ownership and frontier state."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    def run(self, source: int):
        """One traversal from ``source`` on the warm member GCDs."""
        if not 0 <= source < self.graph.num_vertices:
            raise TraversalError(f"source {source} out of range")
        if self._gcds is None:
            self._gcds = [
                GCD(self.device, self.config, injector=self.injector)
                for _ in range(self.num_gcds)
            ]
        else:
            for g in self._gcds:
                g.reset(keep_warm=True)
        with self.tracer.span(
            "bfs.run", engine=self.engine_name, source=source, gcds=self.num_gcds
        ):
            return self._traverse(self._gcds, source)

    def _run_batch(self, sources: np.ndarray) -> DistributedBatchResult:
        """Serve a batch of sources back to back on this pod.

        Each source runs a full bulk-synchronous traversal (there is no
        bit-parallel sharing across a partitioned machine — the status
        slices live on different GCDs), so the batch's modelled cost is
        the sum of its member runs. Batches are validated up front with
        a typed :class:`~repro.errors.BatchSourceError`; an injected
        device or exchange fault fails the *whole* batch, which the
        scheduler's dispatch-retry ladder replays. Each pod still
        defines its own ``run_batch`` calling this one, because
        ``benchmarks/e2e/layers.py`` times the method in each class's
        own body.
        """
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(sources, self.graph.num_vertices, max_batch=None,
                               engine=self.engine_name)
        runs = [self.run(int(s)) for s in sources]
        return DistributedBatchResult(sources=sources, runs=runs, num_gcds=self.num_gcds)


class MultiGcdBFS(PodEngine):
    """Bulk-synchronous 1D-partitioned BFS across N simulated GCDs."""

    engine_name = "multigcd"

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
        codec: ExchangeCodec | None = None,
        overlap: bool = False,
    ) -> None:
        if num_gcds < 1:
            raise PartitionError(f"num_gcds must be >= 1, got {num_gcds}")
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
        self.graph = graph
        self.num_gcds = num_gcds
        self.device = device
        self.config = config or ExecConfig()
        self.interconnect = interconnect
        self.partition = partition or partition_by_edges(graph, num_gcds)
        if self.partition.num_vertices != graph.num_vertices:
            raise PartitionError("partition does not cover the graph")
        #: Optional :class:`~repro.faults.injector.FaultInjector`; every
        #: member GCD shares it, and the ``multigcd.exchange`` site lets
        #: plans degrade (or fault) the interconnect itself. This engine
        #: has no checkpoint layer — an injected device fault surfaces
        #: as the typed error, never as a wrong level array.
        self.injector = injector
        #: Optional :class:`~repro.telemetry.tracer.Tracer`. Levels are
        #: recorded as pre-finished ``dist.level`` spans carrying the
        #: kernel/comm split; member-GCD kernels stay untraced because
        #: they run *in parallel* — flattening them onto the single
        #: cursor timeline would misstate the bulk-synchronous overlap.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        #: Optional :class:`~repro.multigcd.exchange.ExchangeCodec`;
        #: when attached every peer-to-peer frontier message is encoded
        #: (and discoveries round-tripped through ``decode``) so the
        #: cost model charges wire bytes instead of raw id-list bytes.
        self.codec = codec
        #: Overlap each top-down level's exchange with its local expand
        #: (virtual-time accounting only — launch order is unchanged).
        self.overlap = overlap

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
    def run_batch(self, sources: np.ndarray) -> DistributedBatchResult:
        """Serve a batch of sources back to back on this pod.

        See :meth:`PodEngine._run_batch`.
        """
        return self._run_batch(sources)

    def _traverse(self, gcds: list[GCD], source: int) -> DistributedResult:
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
        formats_before = (
            self.codec.counters() if self.codec is not None else None
        )
        line = self.device.cache_line_bytes
        wf = self.device.wavefront_size
        level_decisions: list[dict] = []

        def _fmt_counts():
            if self.codec is None:
                return None
            c = self.codec.counters()
            return (c["messages_sparse"], c["messages_bitmap"])

        def _fmt_delta(before, after):
            if before is None:
                return {}
            return {
                "sparse": after[0] - before[0],
                "bitmap": after[1] - before[1],
            }

        while frontier.size:
            frontier_edges = int(graph.degrees[frontier].sum())
            ratio = frontier_edges / max(1, graph.num_edges)
            fmt_before = _fmt_counts()
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
                        "formats": _fmt_delta(fmt_before, _fmt_counts()),
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
                    "formats": _fmt_delta(fmt_before, _fmt_counts()),
                }
            )
            levels[claim] = level + 1
            frontier = claim
            level += 1

        formats: dict[str, int] = {}
        if formats_before is not None:
            after = self.codec.counters()
            formats = {
                fmt: after[f"messages_{fmt}"] - formats_before[f"messages_{fmt}"]
                for fmt in ("sparse", "bitmap")
            }
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
            exchange_formats=formats,
            overlap_saved_ms=overlap_saved,
            level_decisions=level_decisions,
        )
