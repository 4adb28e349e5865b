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
each. A level ends bulk-synchronously: the slowest member's launch,
plus the exchange, plus one sync. Levels commit only after that sync,
so a device or exchange fault replays the level
(:func:`~repro.xbfs.common.replay_on_fault`) after quiescing every
member. On the host, a top-down level computes each member's
filled rows with a push per member, or — when that scans fewer edges,
as :class:`~repro.xbfs.concurrent.ConcurrentBFS` decides — with one
pull split by the member owning each in-edge; the modelled charge is
the top-down one either way.

A one-source batch is the per-vertex BFS: its row carries a single
bit, which the row id already implies. So a row shipped by id costs
only its id, and an uncompressed block of rows ships as a bitmap of
``ceil(rows / 8)`` bytes (:func:`~repro.xbfs.bitmap.row_bytes`, which
also prices what member launches read back); wider batches pay 8 B per
word of every row.

With ``direction_alpha`` set, peak levels run *bottom-up* the way
distributed Graph500 codes do: every GCD first ships its owned
frontier rows to every peer (an allgather — without a codec the whole
row block, a fixed-size exchange instead of a frontier-proportional
one), then pulls its own unvisited rows' in-edges against the
replicated rows; discoveries are locally owned by construction, so no
second exchange is needed.

Two scalability levers are opt-in (both default off, keeping the
naive exchange bit-for-bit as committed):

* ``codec`` — price every peer-to-peer message with
  :func:`~repro.multigcd.exchange.price`, which ships its row ids as
  the smaller of a sparse id list and a bitmap over the receiver's
  owned range (the row words ride along). The rows themselves are
  never encoded, so the codec can change modelled bytes and exchange
  time but never the level array.
* ``overlap`` — charge each top-down level's exchange and its local
  expand to overlapping virtual-time intervals (``max`` instead of
  sum), the comm/compute pipelining of Pan/Pearce/Owens. Bottom-up
  levels stay sequential: the allgather is a data dependency of the
  scan. Overlap changes *accounting only* — the kernel launch stream
  is identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.faults.recovery import RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ExecConfig
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel
from repro.multigcd.exchange import FORMAT_BITMAP, FORMAT_SPARSE, price, sparse_bytes
from repro.multigcd.partition import partition_by_edges
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import Decision

__all__ = ["MultiGcdBFS", "PodEngine", "PodBatchResult"]

#: Per-level direction labels of the pods.
TOP_DOWN = "top_down"
BOTTOM_UP = "bottom_up"


@dataclass
class PodBatchResult(bm.BitmapBatchResult):
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
    #: Per level: the exchange's wire and uncompressed bytes, and the
    #: codec's messages per wire format (empty without a codec).
    level_comm_bytes: tuple = ()
    level_raw_bytes: tuple = ()
    level_formats: tuple = ()

    @property
    def comm_fraction(self) -> float:
        """Exchange time over elapsed time."""
        return self.comm_ms / self.elapsed_ms if self.elapsed_ms > 0 else 0.0

    @property
    def compression_ratio(self) -> float:
        """Raw over wire exchange bytes (1.0 when nothing shipped)."""
        if self.bytes_exchanged <= 0:
            return 1.0
        return self.bytes_raw / self.bytes_exchanged

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
    previous step. A sync (or a recovery quiesce) settles every member
    and charges one step, so the partial work of a faulted level stays
    on the clock. A step after which some member is warm warms them
    all, so a pod pays one first-launch warm-up (MODEL.md §6).
    """

    def __init__(self, gcds: list[GCD]) -> None:
        self.gcds = gcds
        self._marks = [g.elapsed_ms for g in gcds]
        self.elapsed_ms = 0.0
        self.comm_ms = 0.0
        self.compute_ms = 0.0
        self.saved_ms = 0.0
        self.bytes_wire = 0
        self.bytes_raw = 0
        self.level_bytes: list[int] = []
        self.level_raw: list[int] = []
        self.level_formats: list[dict] = []
        #: The current level's exchange plan, from the engine's host
        #: product to its charge.
        self.exchange = None

    def step(self) -> float:
        ms = max(g.elapsed_ms - mark for g, mark in zip(self.gcds, self._marks))
        self._marks = [g.elapsed_ms for g in self.gcds]
        # One warm-up per pod: the members warm up in parallel, so once
        # any member has paid it within a step, every member is warm.
        if any(g._warm for g in self.gcds):
            for g in self.gcds:
                g._warm = True
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
        self.level_raw.append(raw)
        self.level_formats.append(formats)


class PodEngine(bm.BitmapBatchEngine):
    """What both multi-GCD pods share around their traversals.

    The lazy pool of member GCDs (warm as one: :attr:`warm`), the bitmap
    level loop's device and result, pricing messages of rows
    (:meth:`_price`) and the warm footprint. A
    subclass names itself in ``ENGINE`` and supplies the level loop's
    plan, host product and charge. Each pod defines
    its own ``run_batch`` (a one-source batch is the per-vertex BFS),
    because ``benchmarks/e2e/layers.py`` times the method in each
    class's own body.
    """

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
        if num_gcds < 1:
            raise PartitionError(f"num_gcds must be >= 1, got {num_gcds}")
        # ``injector`` is shared by every member GCD; the
        # ``multigcd.exchange`` site lets plans degrade (or fault) the
        # interconnect itself. ``tracer`` gets ``bfs.run`` spans and
        # pre-finished ``dist.level`` spans carrying each level's
        # kernel/comm split, inside the ``bfs.level`` spans; member-GCD
        # kernels stay untraced because they run *in parallel* —
        # flattening them onto the single cursor timeline would
        # misstate the bulk-synchronous overlap.
        super().__init__(graph, device=device, config=config, tracer=tracer,
                         injector=injector, recovery=recovery)
        self.num_gcds = num_gcds
        self.interconnect = interconnect
        #: Price every peer-to-peer frontier message with
        #: :func:`~repro.multigcd.exchange.price`, so the cost model
        #: charges wire bytes instead of raw id-list bytes.
        self.codec = codec
        #: Overlap each level's hideable exchange with its kernels
        #: (virtual-time accounting only — launch order is unchanged).
        self.overlap = overlap
        #: Member GCDs, built on first use.
        self._gcds: list[GCD] | None = None
        #: The books of the batch in flight.
        self._pod: _BulkSyncPod | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        pod: its members' copies of the CSR (partition rows or
        checkerboard tiles) plus ownership and frontier state."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    def _pool(self) -> list[GCD]:
        """The member GCDs, built on first use."""
        if self._gcds is None:
            self._gcds = [
                GCD(self.device, self.config, injector=self.injector)
                for _ in range(self.num_gcds)
            ]
        return self._gcds

    def _device(self):
        gcds = self._pool()
        for g in gcds:
            g.reset(keep_warm=True)
        self._pod = _BulkSyncPod(gcds)
        return self._pod, not self.warm

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
            level_raw_bytes=tuple(pod.level_raw),
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

    def _price(self, counts: np.ndarray, spans: np.ndarray):
        """Price messages of ``counts`` bitmap rows, each to the owner
        of a ``spans``-vertex range: the row ids (in the cheaper wire
        format under ``codec``) plus the rows' words
        (:func:`~repro.xbfs.bitmap.row_bytes`). Returns ``(wire, raw,
        formats)``: per-message wire and uncompressed bytes, and the
        messages per wire format (empty without the codec)."""
        words = bm.row_bytes(counts, self._width)
        raw = sparse_bytes(counts) + words
        if not self.codec:
            return raw, raw, {}
        wire, bitmap = price(counts, spans)
        n = int(np.count_nonzero(bitmap))
        return wire + words, raw, {FORMAT_SPARSE: int(bitmap.size) - n, FORMAT_BITMAP: n}


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
        direction_alpha: float | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
        codec: bool = False,
        overlap: bool = False,
    ) -> None:
        super().__init__(
            graph, num_gcds, device=device, config=config,
            interconnect=interconnect, tracer=tracer, injector=injector,
            recovery=recovery, codec=codec, overlap=overlap,
        )
        if direction_alpha is not None and not 0 < direction_alpha <= 1:
            raise PartitionError("direction_alpha must be in (0, 1]")
        self.direction_alpha = direction_alpha
        #: Edge-balanced ownership: member ``g`` owns vertices
        #: ``[bounds[g], bounds[g + 1])``.
        self.bounds = partition_by_edges(graph, num_gcds)
        #: See :meth:`_in_edges_by_owner` (built on the first pulled level).
        self._in_by_owner: np.ndarray | None = None

    def _exchange_scale(self, level: int) -> float:
        """Latency multiplier for one all-to-all (1.0 without faults)."""
        if self.injector is None:
            return 1.0
        return self.injector.visit("multigcd.exchange", f"level{level}")

    # ------------------------------------------------------------------
    def run_batch(self, sources: np.ndarray) -> PodBatchResult:
        """One bit-parallel traversal of a batch of distinct sources.

        See the module docstring. Batches are validated up front with a
        typed :class:`~repro.errors.BatchSourceError`."""
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
            bounds = self.bounds
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
        """The level's discoveries and its exchange books.

        Top-down: each GCD pushes its own frontier rows, and the rows
        it newly filled in another GCD's block go to that owner, one
        message per non-empty (member, owner) pair. Bottom-up: each GCD
        ships its owned frontier rows to every peer (the whole row
        block without a codec), and the candidates pull from the
        replicated rows. The level's messages are priced in one
        :meth:`~PodEngine._price` call, except a bottom-up level's
        without a codec, which ship whole row blocks."""
        graph = self.graph
        p = self.num_gcds
        bounds = self.bounds
        spans = np.diff(bounds)
        if cand is None:
            # counts[g, d]: rows member g filled in owner d's block.
            # The host pulls instead when that scans fewer edges, one
            # segment per candidate row and owning member.
            pull, pull_edges = bm.pull_candidates(graph, missing)
            fresh = np.zeros_like(frontier)
            if pull_edges < int(graph.degrees[active].sum()):
                parts = self._pull_by_member(frontier, pull, missing)
                fresh[pull] = np.bitwise_or.reduce(parts, axis=1)
                # below[r, g]: the first r pull rows that member g filled.
                below = np.zeros((pull.size + 1, p), dtype=np.int64)
                np.cumsum(parts.any(axis=2), axis=0, out=below[1:])
                at = np.searchsorted(pull, bounds)
                counts = (below[at[1:]] - below[at[:-1]]).T
            else:
                counts = np.zeros((p, p), dtype=np.int64)
                cut = np.searchsorted(active, bounds)
                for g in range(p):
                    mine = active[cut[g]:cut[g + 1]]
                    if mine.size:
                        filled = bm.push_product(graph, frontier, mine) & missing
                        fresh |= filled
                        counts[g] = np.diff(np.searchsorted(bm.occupied_rows(filled), bounds))
            np.fill_diagonal(counts, 0)
            ship = counts > 0
            wire = np.zeros((p, p), dtype=np.int64)
            raw = np.zeros((p, p), dtype=np.int64)
            wire[ship], raw[ship], formats = self._price(
                counts[ship], np.broadcast_to(spans, (p, p))[ship]
            )
        else:
            # Every peer receives the same message from each member.
            if not self.codec:
                sent = sent_raw = bm.row_bytes(spans, self._width, block=True)
                formats = {}
            else:
                sent, sent_raw, formats = self._price(
                    np.diff(np.searchsorted(active, bounds)), spans
                )
                formats = {f: n * (p - 1) for f, n in formats.items()}
            wire = np.repeat(sent[:, np.newaxis], p, axis=1)
            raw = np.repeat(sent_raw[:, np.newaxis], p, axis=1)
            np.fill_diagonal(wire, 0)
            np.fill_diagonal(raw, 0)
            fresh = super()._product(frontier, active, cand, missing)
        self._pod.exchange = (wire, raw)
        self._pod.record(int(wire.sum()), int(raw.sum()), formats)
        return fresh

    def _charge(self, pod, level, active, cand, fresh, newly, counts):
        """One launch per member, then the exchange.

        Each member's launch
        (:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`) runs the
        level's product on its own rows — top-down, a push of its
        frontier rows; bottom-up, a pull of its candidates masked by
        its owned block — writes the output of the discovered rows it
        owns, and reads every message it received this level. The
        top-down exchange may hide behind the launches under
        ``overlap``; bottom-up, the allgather comes first."""
        wire, raw = pod.exchange
        bounds = self.bounds
        rows = active if cand is None else cand
        cut = np.searchsorted(rows, bounds)
        own = np.searchsorted(newly, bounds)
        recv = raw.sum(axis=0)
        examined = 0
        for g, gcd in enumerate(pod.gcds):
            mine, lo, hi = rows[cut[g]:cut[g + 1]], own[g], own[g + 1]
            if not (mine.size or hi > lo or recv[g]):
                continue
            examined += self._launch(
                gcd,
                "dist_bm_expand" if cand is None else "dist_bm_pull",
                level, mine, fresh, newly[lo:hi], counts[lo:hi],
                pull=cand is not None,
                span=None if cand is None else int(bounds[g + 1] - bounds[g]),
                recv_bytes=int(recv[g]),
            )
        kernel_ms = pod.step()
        comm_ms = self.interconnect.alltoall_ms(wire) * self._exchange_scale(level)
        self._settle(pod, level, int(active.size), kernel_ms, comm_ms,
                     hideable_ms=comm_ms if cand is None else 0.0,
                     direction=TOP_DOWN if cand is None else BOTTOM_UP)
        return examined
