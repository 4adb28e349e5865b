"""Concurrent multi-source BFS (iBFS-style, Liu et al. SIGMOD'16).

The paper's Graph500 framing runs *many* BFS traversals back to back;
its citation [22] (iBFS) batches them: up to 64 sources traverse
together, with a 64-bit status word per vertex — bit *i* set means
"visited by source *i*". A level expands the **union** frontier once,
so adjacency lists shared by several concurrent traversals are fetched
a single time; the win over 64 sequential runs is exactly the sharing
factor of the batch. The 64-bit word is also a natural fit for the
MI250X's 64-lane wavefronts (and exercises ``__popcll``).

On the host the status words are one-word rows of the
:mod:`repro.xbfs.bitmap` frontier matrix, the representation
:class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS` uses for wider
batches. Each level runs whichever product scans fewer edges: push
(scatter-OR along the frontier's out-edges) or pull (OR-gather over
the in-edges of every vertex some source has not reached, via the
graph's memoized :meth:`~repro.graph.csr.CSRGraph.reverse`). Levels
live in bit-sliced counter planes, decoded once at the end. The
modelled ``cb_expand`` launch is the top-down iBFS kernel whichever
product ran: its cost is computed from the frontier and its
discoveries only.

A level is committed (visited, frontier, counters) only after its
launch syncs, so an injected device fault leaves nothing to roll back:
the launch is replayed, up to ``recovery.max_level_restarts`` times.

This is the library's optional extension of the paper's n-to-n
measurement loop; :class:`ConcurrentBFS` produces per-source level
arrays identical to running :class:`~repro.xbfs.driver.XBFS` once per
source, plus the modelled cost of the shared traversal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BatchSourceError,
    DeviceFaultError,
    RecoveryExhaustedError,
    TraversalError,
)
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.perf import NULL_PROFILER, HostProfiler
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.common import segment_lines_touched

__all__ = [
    "ConcurrentBFS",
    "ConcurrentResult",
    "MAX_CONCURRENT",
    "coalescing_key",
    "validate_batch_sources",
]

#: One status bit per source in a 64-bit word.
MAX_CONCURRENT = 64


def validate_batch_sources(
    sources: np.ndarray,
    num_vertices: int,
    *,
    max_batch: int | None = MAX_CONCURRENT,
    engine: str = "concurrent",
) -> None:
    """Reject malformed multi-source batches with a typed error.

    A duplicate source would alias one status bit (two queries sharing
    a level array is fine — two *slots* sharing a bit is a silent
    wrong-cost answer), and an out-of-range source would index the
    status planes out of bounds. Both raise
    :class:`~repro.errors.BatchSourceError` before any modelled cost is
    charged. ``max_batch=None`` skips the capacity check (engines that
    serve sources back to back have no slot limit).
    """
    k = int(sources.size)
    if k < 1 or (max_batch is not None and k > max_batch):
        cap = "1.." + (str(max_batch) if max_batch is not None else "n")
        raise BatchSourceError(
            f"{engine} batch must hold {cap} sources, got {k}"
        )
    if sources.min() < 0 or sources.max() >= num_vertices:
        raise BatchSourceError(
            f"{engine} batch source out of range [0, {num_vertices})"
        )
    if np.unique(sources).size != k:
        raise BatchSourceError(
            f"{engine} batch sources must be distinct (got {k} slots, "
            f"{int(np.unique(sources).size)} distinct)"
        )


def coalescing_key(
    *,
    force_strategy: str | None = None,
    record_parents: bool = False,
    max_levels: int | None = None,
) -> tuple | None:
    """Batch-compatibility hook for the serving layer.

    Two queries against the same graph may share one
    :class:`ConcurrentBFS` traversal only when neither asks for
    anything the bit-parallel engine cannot honour: a pinned per-level
    strategy, a Graph500 parent array, or a truncated run. Returns a
    hashable key — queries with equal keys coalesce — or ``None`` when
    the request must fall back to a solo
    :class:`~repro.xbfs.driver.XBFS` run.
    """
    if force_strategy is not None or record_parents or max_levels is not None:
        return None
    return ("concurrent",)


@dataclass
class ConcurrentResult:
    """Outcome of one batched run."""

    sources: np.ndarray
    #: ``levels[i]`` is source *i*'s level array (-1 unreachable).
    levels: np.ndarray
    elapsed_ms: float
    #: Union-frontier edges actually expanded.
    union_edges: int
    #: Σ over sources of the edges a solo run would expand.
    solo_edges: int
    depth: int
    paid_warmup: bool = False
    #: Levels replayed from their checkpoint after injected device
    #: faults (0 on a fault-free run).
    level_restarts: int = 0

    @property
    def sharing_factor(self) -> float:
        """How many solo edge-expansions each shared expansion stood in
        for (>= 1; higher = more sharing)."""
        return self.solo_edges / self.union_edges if self.union_edges else 1.0

    @property
    def traversed_edges(self) -> int:
        return self.solo_edges

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of one batched ``source`` (equal to what a
        solo :meth:`XBFS.run` from it would produce)."""
        hits = np.flatnonzero(self.sources == source)
        if hits.size == 0:
            raise TraversalError(f"source {source} is not in this batch")
        return self.levels[int(hits[0])]

    @property
    def gteps(self) -> float:
        """Aggregate throughput credited the Graph500 way: every
        source's traversal counts, over the shared wall time."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.solo_edges / (self.elapsed_ms * 1e-3) / 1e9


class ConcurrentBFS:
    """Bit-parallel batched BFS over one simulated GCD."""

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        profiler: HostProfiler | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        self.graph = graph
        self.device = device
        self.config = config or ExecConfig()
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        #: Optional :class:`~repro.telemetry.tracer.Tracer`; runs emit
        #: ``bfs.run``/``bfs.level`` spans like the solo driver, tagged
        #: ``engine="concurrent"``.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional fault injector; a faulted level replays its launch
        #: (nothing is committed before the launch syncs).
        self.injector = injector
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        self.recovery = recovery or DEFAULT_RECOVERY
        self._gcd: GCD | None = None

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the 64-bit visited/frontier status words per vertex."""
        return 16 * self.graph.num_vertices

    def run(self, sources: np.ndarray) -> ConcurrentResult:
        """Traverse from up to 64 sources simultaneously."""
        graph = self.graph
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(
            sources, graph.num_vertices, max_batch=MAX_CONCURRENT,
            engine="concurrent",
        )
        k = int(sources.size)

        if self._gcd is None:
            self._gcd = GCD(
                self.device,
                self.config,
                injector=self.injector,
                tracer=self.tracer if self.tracer.enabled else None,
            )
        else:
            self._gcd.reset(keep_warm=True)
        gcd = self._gcd
        paid_warmup = not gcd._warm
        with self.tracer.span(
            "bfs.run",
            clock=lambda: gcd.elapsed_ms,
            engine="concurrent",
            sources=k,
        ):
            return self._traverse(
                gcd, sources, k, paid_warmup=paid_warmup
            )

    def _traverse(
        self,
        gcd: GCD,
        sources: np.ndarray,
        k: int,
        *,
        paid_warmup: bool,
    ) -> ConcurrentResult:
        graph = self.graph
        tracer = self.tracer
        prof = self.profiler

        n = graph.num_vertices
        degs = graph.degrees
        line = gcd.device.cache_line_bytes
        full = bm.full_row_mask(k)[np.newaxis, :]
        frontier = bm.make_bitmap(n, k)
        visited = bm.make_bitmap(n, k)
        bm.set_source_bits(frontier, sources)
        visited |= frontier
        #: Bit-sliced level counter, fed ¬visited as each level commits
        #: and decoded once at the end (see :func:`bm.counter_levels`).
        planes: list[np.ndarray] = []

        level = 0
        union_edges = 0
        solo_edges = 0
        level_restarts = 0
        while True:
            active = bm.occupied_rows(frontier)
            if active.size == 0:
                break
            missing = bm.fresh_mask(full, visited)
            frontier_edges = int(degs[active].sum())
            with tracer.span(
                "bfs.level",
                clock=lambda: gcd.elapsed_ms,
                level=level,
                strategy="concurrent",
                frontier=int(active.size),
            ):
                with prof.timer("cb_expand"):
                    fresh, pulled = self._expand(
                        frontier, missing, active, frontier_edges
                    )
                    newly = bm.occupied_rows(fresh)
                if pulled:
                    prof.count("levels/concurrent_pull")
                # The modelled kernel is the top-down iBFS expand whichever
                # product ran on the host: its cost depends only on the
                # frontier and on what it discovered.
                adj_lines = segment_lines_touched(
                    graph.row_offsets[active], degs[active],
                    element_bytes=4, line_bytes=line,
                )
                streams = [
                    seq_read("frontier", int(active.size), 8),
                    rand_read("beg_pos", 2 * int(active.size), 2 * int(active.size), 8),
                    segmented_read("adj_list", frontier_edges, adj_lines, 4),
                    # 8-byte bit-status words, read per edge, OR-written
                    # per fresh discovery.
                    rand_read("bit_status", frontier_edges, n, 8),
                    rand_write("bit_status", int(newly.size), int(newly.size), 8),
                    seq_write("next_frontier", int(newly.size), 8),
                ]
                attempts = 0
                while True:
                    try:
                        gcd.launch(
                            "cb_expand",
                            strategy="concurrent",
                            level=level,
                            streams=streams,
                            work=ComputeWork(
                                flat_ops=float(frontier_edges + active.size)
                            ),
                            work_items=int(active.size),
                        )
                        gcd.sync()
                    except DeviceFaultError as exc:
                        # Nothing was committed yet: replay the launch.
                        attempts += 1
                        level_restarts += 1
                        tracer.event(
                            "recovery.level_restart",
                            level=level,
                            attempt=attempts,
                        )
                        if attempts > self.recovery.max_level_restarts:
                            raise RecoveryExhaustedError(
                                f"concurrent level {level} still faulting after "
                                f"{self.recovery.max_level_restarts} checkpoint "
                                f"restarts: {exc}"
                            ) from exc
                        gcd.quiesce()
                    else:
                        break
            # Commit the synced level. A solo run would expand each
            # (source, vertex) pair of the frontier separately.
            bm.counter_add(planes, missing)
            visited |= fresh
            union_edges += frontier_edges
            solo_edges += int(
                (bm.popcount_rows(frontier[active]) * degs[active]).sum()
            )
            frontier = fresh
            prof.count("levels/concurrent")
            level += 1

        levels = bm.counter_levels(planes, n, k, depth=level)
        return ConcurrentResult(
            sources=sources,
            levels=levels,
            elapsed_ms=gcd.elapsed_ms,
            union_edges=union_edges,
            solo_edges=solo_edges,
            depth=level,
            paid_warmup=paid_warmup,
            level_restarts=level_restarts,
        )

    def _expand(
        self,
        frontier: np.ndarray,
        missing: np.ndarray,
        active: np.ndarray,
        frontier_edges: int,
    ) -> tuple[np.ndarray, bool]:
        """One level's fresh bits, ``(Aᵀ · F) ⊙ ¬visited``, by whichever
        host product scans fewer edges: push scatters the frontier rows
        along their ``frontier_edges`` out-edges; pull OR-gathers the
        in-edges of every vertex some source has not reached yet.
        Returns ``(fresh, pulled)``."""
        graph = self.graph
        rev = graph.reverse()
        cand = bm.occupied_rows(missing)
        if int(rev.degrees[cand].sum()) < frontier_edges:
            fresh = np.zeros_like(frontier)
            fresh[cand] = bm.pull_product(rev, frontier, cand) & missing[cand]
            return fresh, True
        return bm.push_product(graph, frontier, active) & missing, False
