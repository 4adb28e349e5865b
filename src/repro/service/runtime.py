""":class:`BFSService` — the serving facade.

Wires the registry, admission controller, execution engine,
coalescing scheduler and metrics into one object with two entry
points:

* :meth:`BFSService.submit` — online use: admit one query (raises a
  typed :class:`~repro.errors.AdmissionError` under backpressure).
* :meth:`BFSService.replay` — offline use: drive a whole arrival-
  ordered trace through the service, recording rejections instead of
  raising, and return a :class:`ServiceReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import AdmissionError
from repro.faults.recovery import RecoveryPolicy
from repro.graph.csr import CSRGraph
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.execution import ExecutionEngine
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.request import Query, QueryOutcome
from repro.service.scheduler import CoalescingScheduler
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["BFSService", "ServiceReport"]


@dataclass
class ServiceReport:
    """Everything a replay produced."""

    outcomes: list[QueryOutcome]
    metrics: ServiceMetrics
    registry_stats: dict
    worker_stats: list[dict]
    #: Injector counters (by kind/site/rule), or ``None`` when the
    #: service ran without a fault plan.
    fault_stats: dict | None = None

    @property
    def served(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.served]

    @property
    def rejections(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if not o.served]

    def summary(self, name: str = "service") -> dict:
        """JSON-able summary for :mod:`repro.metrics.results_io`."""
        return self.metrics.summary(name, registry_stats=self.registry_stats)

    def render(self) -> str:
        return self.metrics.render(registry_stats=self.registry_stats)


class BFSService:
    """A deterministic, synchronous BFS query service.

    The service builds each component once and hands it down: a
    :class:`~repro.service.registry.GraphRegistry`
    (``memory_budget_mb``, ``builder``, ``scale_factor``, ``seed`` —
    one spec string → one graph for the service's lifetime), an
    :class:`~repro.service.admission.AdmissionPolicy`
    (``max_queue_depth``, ``default_deadline_ms``), the
    :class:`~repro.service.execution.ExecutionEngine` that holds the
    registry, metrics, fault injector, tracer and audit log, and the
    :class:`~repro.service.scheduler.CoalescingScheduler`
    (``workers``, ``max_batch``, ``window_ms``) that dispatches onto
    that executor and reads those shared parts from it.

    ``distributed_threshold_mb``/``num_gcds`` set the engine-routing
    policy: dispatches against graphs whose CSR footprint exceeds the
    threshold are served by the multi-GCD distributed engine (a
    simulated 2/4/8-GCD pod) instead of a single simulated GCD; the
    partition is computed once per cached graph and answers stay
    bit-identical to solo XBFS. ``None`` (the default) keeps every
    dispatch on the single-GCD engines. ``partition`` selects the
    pod's decomposition: ``"1d"`` (default) is the edge-balanced row
    partition with the naive exchange, ``"2d"`` the checkerboard
    :class:`~repro.multigcd.grid2d.Grid2dBFS` grid with the compressed
    frontier-exchange codec and comm/compute overlap enabled
    (dispatches count under the ``grid2d`` engine).

    ``linalg_batch_threshold`` enables the third routing tier: a
    same-graph dispatch of that many distinct sources (or more) runs
    as one masked CSR×matrix product on
    :class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS` instead of a
    stream of ≤64-source concurrent batches, and the scheduler's batch
    cap lifts from 64 to the bitmap engine's
    :data:`~repro.xbfs.linalg_batch.MAX_LINALG_BATCH`. ``max_batch=None``
    (the default) adopts whichever cap is active; an explicit value is
    validated against it with a typed
    :class:`~repro.errors.BatchLimitError`.

    ``fault_injector`` is a :class:`~repro.faults.injector.FaultInjector`
    (``FaultPlan.injector()``); a cluster hands one shared injector to
    every replica — one RNG stream, one deterministic global fault
    schedule.
    """

    def __init__(
        self,
        *,
        memory_budget_mb: float = 256.0,
        workers: int = 2,
        max_batch: int | None = None,
        window_ms: float = 5.0,
        max_queue_depth: int = 256,
        default_deadline_ms: float | None = None,
        scale_factor: int = 64,
        seed: int = 0,
        num_gcds: int = 4,
        distributed_threshold_mb: float | None = None,
        linalg_batch_threshold: int | None = None,
        partition: str = "1d",
        builder: Callable[[str], CSRGraph] | None = None,
        fault_injector=None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        track_prefix: str = "",
        audit=None,
        slo=None,
        bounded_metrics: bool = False,
    ) -> None:
        self.registry = GraphRegistry(
            memory_budget_bytes=int(memory_budget_mb * 1024 * 1024),
            builder=builder,
            scale_factor=scale_factor,
            seed=seed,
        )
        #: The obs sinks the admission controller, scheduler and executor
        #: fold their decisions into (``None`` disables each).
        self.audit = audit
        self.slo = slo
        self.admission = AdmissionController(
            AdmissionPolicy(
                max_queue_depth=max_queue_depth,
                default_deadline_ms=default_deadline_ms,
            ),
            audit=audit,
        )
        # bounded_metrics=True swaps exact per-class latency lists for
        # the mergeable log-bucket sketches (O(buckets) memory); the
        # default keeps exact percentiles so summaries stay
        # byte-identical.
        self.metrics = ServiceMetrics(exact_percentiles=not bounded_metrics)
        self.fault_injector = fault_injector
        #: One tracer for the whole service: dispatch spans, engine
        #: level spans, kernel spans and fault/recovery events all land
        #: on its correlated timeline (see :mod:`repro.telemetry`).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The execution plane (engine routing + fault recovery) — the
        #: third concern of the placement / dispatch / execution split.
        self.executor = ExecutionEngine(
            self.registry,
            metrics=self.metrics,
            num_gcds=num_gcds,
            distributed_threshold_bytes=(
                int(distributed_threshold_mb * 1024 * 1024)
                if distributed_threshold_mb is not None
                else None
            ),
            linalg_batch_threshold=linalg_batch_threshold,
            partition=partition,
            fault_injector=fault_injector,
            recovery=recovery,
            tracer=self.tracer,
            audit=audit,
        )
        self.scheduler = CoalescingScheduler(
            self.executor,
            workers=workers,
            max_batch=max_batch,
            window_ms=window_ms,
            admission=self.admission,
            track_prefix=track_prefix,
            slo=slo,
        )

    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Admit one query; raises on typed rejection."""
        self.scheduler.submit(query)

    def drain(self) -> list[QueryOutcome]:
        """Dispatch everything still pending."""
        return self.scheduler.run_until_idle()

    def replay(
        self, queries: Iterable[Query] | Sequence[Query], *, strict: bool = False
    ) -> ServiceReport:
        """Drive an arrival-ordered trace end to end.

        Queue-full rejections are recorded in the report (the open-loop
        client keeps sending); with ``strict=True`` they re-raise
        instead.
        """
        for query in queries:
            try:
                self.scheduler.submit(query)
            except AdmissionError:
                if strict:
                    raise
        self.scheduler.run_until_idle()
        return self.report()

    def report(self) -> ServiceReport:
        fault_stats = None
        if self.fault_injector is not None:
            self.scheduler.stream.faults(self.fault_injector.faults_injected)
            fault_stats = self.fault_injector.stats()
        return ServiceReport(
            outcomes=list(self.scheduler.outcomes),
            metrics=self.metrics,
            registry_stats=self.registry.stats(),
            worker_stats=self.scheduler.worker_stats(),
            fault_stats=fault_stats,
        )
