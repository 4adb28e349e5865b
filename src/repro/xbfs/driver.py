"""The XBFS end-to-end driver.

Runs a full BFS on one simulated GCD: per level it computes the edge
ratio, asks the adaptive classifier (or a forced override) for a
strategy, dispatches the matching kernel module, and synchronises the
device — accumulating both the functional result (the status array,
validated against the oracle in tests) and the modelled cost (the
profiler's kernel records plus sync gaps).

``XBFS(graph).run(source)`` is the package's primary public entry
point; ``run_many`` (from :class:`~repro.xbfs.common.SoloEngine`) is the
paper's "n to n" measurement loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraversalError
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig, KernelRecord
from repro.gcd.memory import seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.graph.rearrange import rearrange_by_degree
from repro.metrics.gteps import gteps
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs import bottom_up, scan_free, single_scan
from repro.xbfs.classifier import (
    BOTTOM_UP,
    SCAN_FREE,
    SINGLE_SCAN,
    AdaptiveClassifier,
    Decision,
    DecisionAudit,
)
from repro.xbfs.common import DEFAULT_PROBE_BLOCK, SoloEngine, replay_on_fault
from repro.xbfs.level import LevelResult
from repro.xbfs.scratch import ScratchPool
from repro.xbfs.status import StatusArray

__all__ = ["XBFS", "XBFSResult"]


@dataclass
class XBFSResult(DecisionAudit):
    """Outcome of one BFS run."""

    source: int
    levels: np.ndarray
    strategies: list[str]
    decisions: list[Decision]
    level_results: list[LevelResult]
    records: list[KernelRecord]
    elapsed_ms: float
    sync_ms: float
    traversed_edges: int
    #: True when this run paid the device's first-launch warm-up charge.
    paid_warmup: bool = False
    #: Graph500-style parent array (present when ``record_parents``);
    #: ``parent[source] == source``, -1 for unreachable vertices.
    parents: np.ndarray | None = None
    #: Levels replayed from their checkpoint after an injected device
    #: fault (0 on a fault-free run). The replays' kernel time is in
    #: ``elapsed_ms`` — recovery is paid for, never hidden.
    level_restarts: int = 0

    @property
    def depth(self) -> int:
        """Number of BFS levels executed."""
        return len(self.strategies)

    @property
    def reached(self) -> int:
        return int(np.count_nonzero(self.levels >= 0))

    @property
    def sharing_factor(self) -> float:
        """1.0: one traversal answers one source."""
        return 1.0

    def levels_of(self, source: int) -> np.ndarray:
        """The level array of ``source``, which must be this run's."""
        if source != self.source:
            raise TraversalError(f"source {source} is not this run's source {self.source}")
        return self.levels

    @property
    def gteps(self) -> float:
        """Giga traversed edges per second, modeled time."""
        return gteps(self.traversed_edges, self.elapsed_ms)


class XBFS(SoloEngine):
    """Adaptive BFS engine on one simulated GCD.

    Parameters
    ----------
    graph:
        The CSR graph to traverse.
    device:
        Simulated device profile (default: one MI250X GCD).
    config:
        Execution configuration (streams, compiler, balancing flags).
    classifier:
        Adaptive strategy chooser; ignored when ``force_strategy`` is
        given to :meth:`run`.
    rearrange:
        Apply the degree-aware neighbour re-arrangement up front
        (Section IV-B). The transform cost is off the BFS clock, like
        the paper's preprocessing.
    proactive:
        Enable the bottom-up proactive next-level update.
    tracer:
        Optional :class:`repro.telemetry.tracer.Tracer`; each run
        becomes a ``bfs.run`` span containing per-level ``bfs.level``
        spans, the simulated kernel/sync spans underneath, and any
        fault/recovery point events — all dual-clocked (virtual +
        host) on one correlated timeline.
    bottom_up_impl:
        Host implementation of the bottom-up expand: ``"blocked"``
        (early-terminating blocked probe loop, the default) or
        ``"reference"`` (full-gather oracle) — bit-identical results.
    probe_block:
        Column-block width of the blocked probe loop.
    injector:
        Optional :class:`~repro.faults.injector.FaultInjector`; when
        set, the simulated die faults on the plan's schedule and every
        level runs under checkpoint/restart: status and parents are
        snapshotted at level entry, a :class:`~repro.errors.
        DeviceFaultError` rolls them back and replays *only the failed
        level* (never the whole traversal), within the ``recovery``
        restart budget before raising
        :class:`~repro.errors.RecoveryExhaustedError`.
    recovery:
        Restart budget policy (default :data:`repro.faults.recovery.
        DEFAULT_RECOVERY`); only consulted when ``injector`` is set.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        classifier: AdaptiveClassifier | None = None,
        rearrange: bool = False,
        proactive: bool = True,
        tracer: Tracer | None = None,
        bottom_up_impl: str = "blocked",
        probe_block: int = DEFAULT_PROBE_BLOCK,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if bottom_up_impl not in bottom_up.IMPLS:
            raise TraversalError(
                f"unknown bottom_up_impl {bottom_up_impl!r}; "
                f"use one of {bottom_up.IMPLS}"
            )
        super().__init__(
            rearrange_by_degree(graph) if rearrange else graph,
            device=device,
            config=(config or ExecConfig()).with_overrides(rearranged=rearrange),
        )
        self._base_graph = graph
        self._rearranged = rearrange
        self.classifier = classifier or AdaptiveClassifier()
        self.proactive = proactive
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.bottom_up_impl = bottom_up_impl
        self.probe_block = probe_block
        self.injector = injector
        if injector is not None and self.tracer.enabled:
            injector.bind_tracer(self.tracer)
        self.recovery = recovery or DEFAULT_RECOVERY
        self._scratch = ScratchPool()
        #: The re-arranged transpose (``rearrange=True`` only); a plain
        #: transpose is the graph's own memoized :meth:`CSRGraph.reverse`.
        self._rearranged_reverse: CSRGraph | None = None

    @property
    def reverse_graph(self) -> CSRGraph:
        """Transpose adjacency (CSC) for the bottom-up kernels, built
        lazily and re-arranged with the same policy as the forward
        graph. For symmetric inputs it equals the forward graph."""
        if not self._rearranged:
            return self._base_graph.reverse()
        if self._rearranged_reverse is None:
            self._rearranged_reverse = rearrange_by_degree(self._base_graph.reverse())
        return self._rearranged_reverse

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the (eventual) reverse CSR plus the int32 status array.
        Frozen at attach time on purpose — a lazily-built reverse graph
        must not desync the registry's running byte total."""
        return self.graph.memory_bytes + 4 * self.graph.num_vertices

    # ------------------------------------------------------------------
    def run(
        self,
        source: int,
        *,
        force_strategy: str | None = None,
        max_levels: int | None = None,
        record_parents: bool = False,
    ) -> XBFSResult:
        """One BFS from ``source``.

        ``force_strategy`` pins every level to one strategy (the
        forced-mode runs behind Tables III–V and Fig 7);
        ``max_levels`` truncates the run (Fig 7 measures only the
        levels up to the ratio peak); ``record_parents`` additionally
        produces the Graph500 parent array (checkable with
        :func:`repro.baselines.serial.validate_parents`).
        """
        if force_strategy is not None and force_strategy not in (
            SCAN_FREE,
            SINGLE_SCAN,
            BOTTOM_UP,
        ):
            raise TraversalError(f"unknown strategy {force_strategy!r}")
        gcd, paid_warmup = self._start(source)
        with self.tracer.span(
            "bfs.run",
            clock=lambda: gcd.elapsed_ms,
            engine="xbfs",
            source=source,
            forced=force_strategy or "",
        ):
            return self._traverse(
                gcd,
                source,
                paid_warmup=paid_warmup,
                force_strategy=force_strategy,
                max_levels=max_levels,
                record_parents=record_parents,
            )

    def _traverse(
        self,
        gcd: GCD,
        source: int,
        *,
        paid_warmup: bool,
        force_strategy: str | None,
        max_levels: int | None,
        record_parents: bool,
    ) -> XBFSResult:
        """The traversal body of :meth:`run`, inside its trace span."""
        graph = self.graph
        tracer = self.tracer
        status = StatusArray(graph.num_vertices)
        status.set_source(source)
        parents: np.ndarray | None = None
        if record_parents:
            parents = np.full(graph.num_vertices, -1, dtype=np.int64)
            parents[source] = source
        # The status init is idempotent: re-issue it like a faulted
        # level, against the same restart budget.
        _, init_restarts = replay_on_fault(
            lambda: gcd.launch(
                "init_status",
                strategy="setup",
                level=-1,
                streams=[seq_write("status", graph.num_vertices, 4)],
                work=ComputeWork(flat_ops=float(graph.num_vertices)),
                work_items=graph.num_vertices,
                setup=True,
            ),
            gcd,
            self.recovery,
            tracer,
            what="status init",
            event="recovery.init_restart",
        )

        total_edges = max(1, graph.num_edges)
        level = 0
        prev_strategy: str | None = None
        prev_frontier_size = 0
        handoff_queue: np.ndarray | None = np.array([source], dtype=np.int64)
        handoff_exact = True
        carry_proactive = np.zeros(0, dtype=np.int64)
        strategies: list[str] = []
        decisions: list[Decision] = []
        level_results: list[LevelResult] = []
        level_restarts = init_restarts

        # The frontier at level L+1 is exactly the vertices this level
        # promoted (``new_vertices``) plus the proactive carries from
        # level L-1 (already holding status L+1) — the sets are disjoint
        # because every strategy only claims UNVISITED vertices. Tracking
        # it incrementally avoids the O(|V|) ``status.at_level`` rescan
        # per level; only its size and degree sum feed the classifier,
        # so ordering differences are immaterial.
        frontier = np.array([source], dtype=np.int64)
        while True:
            if frontier.size == 0:
                break
            if max_levels is not None and level >= max_levels:
                break
            frontier_edges = int(graph.degrees[frontier].sum())
            ratio = frontier_edges / total_edges

            if force_strategy is not None:
                decision = Decision(force_strategy, "forced")
            else:
                decision = self.classifier.choose(
                    ratio=ratio,
                    frontier_size=int(frontier.size),
                    prev_frontier_size=prev_frontier_size,
                    prev_strategy=prev_strategy,
                    level=level,
                    frontier_edges=frontier_edges,
                )
            strategy = decision.strategy

            def attempt_level(
                strategy=strategy, ratio=ratio,
                handoff_queue=handoff_queue, handoff_exact=handoff_exact,
            ):
                if strategy == BOTTOM_UP:
                    result = bottom_up.run_level(
                        graph,
                        status,
                        level,
                        gcd,
                        ratio=ratio,
                        proactive=self.proactive,
                        reverse_graph=self.reverse_graph,
                        parents=parents,
                        impl=self.bottom_up_impl,
                        probe_block=self.probe_block,
                        scratch=self._scratch,
                    )
                elif strategy == SINGLE_SCAN:
                    reusable = (
                        handoff_queue
                        if (self.classifier.use_no_gen and force_strategy is None)
                        else None
                    )
                    result = single_scan.run_level(
                        graph,
                        status,
                        None,
                        level,
                        gcd,
                        ratio=ratio,
                        reusable_queue=reusable,
                        queue_exact=handoff_exact,
                        parents=parents,
                        scratch=self._scratch,
                    )
                else:  # scan-free
                    if handoff_queue is not None and handoff_exact:
                        queue = handoff_queue
                    else:
                        # No usable queue (e.g. after single-scan): one
                        # status sweep rebuilds it, then scan-free
                        # self-sustains. The generation record lands in
                        # the profiler via the shared kernel helper.
                        queue, _gen_records = single_scan._queue_gen(
                            status, level, gcd, ratio
                        )
                    result = scan_free.run_level(
                        graph, status, queue, level, gcd, ratio=ratio,
                        parents=parents,
                        scratch=self._scratch,
                    )
                gcd.sync()
                return result

            with tracer.span(
                "bfs.level",
                clock=lambda: gcd.elapsed_ms,
                level=level,
                strategy=strategy,
                ratio=ratio,
                frontier=int(frontier.size),
            ):
                if self.injector is None:
                    result = attempt_level()
                else:
                    result, restarts = self._checkpointed_level(
                        attempt_level, status, parents, level, gcd
                    )
                    level_restarts += restarts

            strategies.append(strategy)
            decisions.append(decision)
            level_results.append(result)
            handoff_queue = result.queue_for_next
            handoff_exact = result.queue_exact
            # Vertices promoted proactively at level-1 hold status
            # level+1: they belong to the next frontier but cannot be in
            # this level's product queue (they were already visited when
            # it was built). The proactive update enqueues them for the
            # next layer, which this carry reproduces.
            if handoff_queue is not None and carry_proactive.size:
                handoff_queue = np.concatenate([handoff_queue, carry_proactive])
            next_frontier = result.new_vertices
            if carry_proactive.size:
                next_frontier = np.concatenate([next_frontier, carry_proactive])
            carry_proactive = result.proactive_vertices
            prev_strategy = strategy
            prev_frontier_size = int(frontier.size)
            frontier = next_frontier
            level += 1

        reached = status.levels >= 0
        traversed = int(graph.degrees[reached].sum())
        return XBFSResult(
            source=source,
            levels=status.levels.copy(),
            strategies=strategies,
            decisions=decisions,
            level_results=level_results,
            records=list(gcd.profiler.records),
            elapsed_ms=gcd.elapsed_ms,
            sync_ms=gcd.sync_ms,
            traversed_edges=traversed,
            paid_warmup=paid_warmup,
            parents=parents,
            level_restarts=level_restarts,
        )

    # ------------------------------------------------------------------
    def _checkpointed_level(
        self,
        attempt_level,
        status: StatusArray,
        parents: np.ndarray | None,
        level: int,
        gcd: GCD,
    ):
        """Run one level under checkpoint/restart.

        Snapshots the mutable traversal state (status levels + visited
        count, parents) at level entry; an injected
        :class:`~repro.errors.DeviceFaultError` rolls back to the
        snapshot and re-runs the level under the shared replay policy
        (:func:`~repro.xbfs.common.replay_on_fault`).
        """
        snap_levels = status.levels.copy()
        snap_visited = status.visited_count()
        snap_parents = parents.copy() if parents is not None else None

        def rollback() -> None:
            status.levels[:] = snap_levels
            status.note_visited(snap_visited - status.visited_count())
            if parents is not None:
                parents[:] = snap_parents

        return replay_on_fault(
            attempt_level,
            gcd,
            self.recovery,
            self.tracer,
            what=f"level {level}",
            rollback=rollback,
            level=level,
        )
