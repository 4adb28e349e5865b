"""The coalescing scheduler: bounded queue → batches → GCD workers.

The scheduler is the *dispatch* third of the serving stack's
placement / dispatch / execution split (see
:mod:`repro.service.execution` for execution and
:mod:`repro.cluster.placement` for placement). It runs in *virtual
time*. Queries arrive with millisecond stamps; the scheduler holds
them in a bounded pending queue for at most ``window_ms`` (the
coalescing window), then groups every compatible same-graph query —
same spec string, equal :func:`~repro.xbfs.concurrent.coalescing_key`
— into one batched dispatch of up to ``max_batch`` distinct sources.
The cap is *engine-aware*: it defaults to (and is validated against)
the executor's :attr:`~repro.service.execution.ExecutionEngine.batch_cap`
— 64 sources on the bit-parallel
:class:`~repro.xbfs.concurrent.ConcurrentBFS` path, lifted to the
:class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS` bitmap engine's cap
when the linalg tier is enabled. Duplicate sources ride along for
free: they map onto one status bit and share its level array.
Singleton groups and solo-only options fall back to a plain
:class:`~repro.xbfs.driver.XBFS` run.

Dispatches land on the least-loaded of ``workers`` simulated GCDs
(earliest ``busy_until``, ties to the lowest index), so the virtual
clock models real queueing delay: a batch starts when both its window
has closed *and* its worker is free, and a registry miss additionally
pays the modelled CSR build charge before the traversal.

Which engine serves a ready batch — solo XBFS, the concurrent iBFS
batch engine, the size-routed multi-GCD pod or the circuit breaker's
serial fallback — is the :class:`~repro.service.execution.ExecutionEngine`'s
concern; the scheduler charges whatever virtual elapsed time the
executor returns and stamps the outcome with the engine that served
it. Routed answers are bit-identical to solo XBFS by contract,
including under fault plans.

Everything — grouping, worker choice, timing — is a pure function of
the submitted queries, so a replayed trace is bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    AdmissionError,
    BatchLimitError,
    DeadlineExceededError,
    ServiceError,
)
from repro.faults.recovery import RecoveryPolicy
from repro.obs.audit import NULL_AUDIT
from repro.service.admission import AdmissionController
from repro.service.execution import (
    SERIAL_FALLBACK_MS_PER_MEDGE,
    ExecutionEngine,
)
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.request import Query, QueryOutcome
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["CoalescingScheduler", "WorkerState", "SERIAL_FALLBACK_MS_PER_MEDGE"]


@dataclass
class WorkerState:
    """One simulated GCD in the dispatch pool."""

    index: int
    busy_until_ms: float = 0.0
    dispatches: int = 0
    busy_ms: float = 0.0


class CoalescingScheduler:
    """Drains a bounded queue into batched BFS dispatches."""

    def __init__(
        self,
        registry: GraphRegistry,
        *,
        workers: int = 2,
        max_batch: int | None = None,
        window_ms: float = 5.0,
        admission: AdmissionController | None = None,
        metrics: ServiceMetrics | None = None,
        scaled_cache: bool = True,
        fault_injector=None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        num_gcds: int = 4,
        distributed_threshold_bytes: int | None = None,
        linalg_batch_threshold: int | None = None,
        partition: str = "1d",
        executor: ExecutionEngine | None = None,
        track_prefix: str = "",
        audit=None,
        slo=None,
    ) -> None:
        if workers < 1:
            raise ServiceError("scheduler needs at least one worker")
        if window_ms < 0:
            raise ServiceError("window_ms must be >= 0")
        self.registry = registry
        self.window_ms = window_ms
        #: Decision-audit log (observer-only; NULL_AUDIT = disabled).
        self.audit = audit if audit is not None else NULL_AUDIT
        #: Optional :class:`~repro.obs.slo.SloEngine` fed one
        #: observation per terminal outcome (served or rejected).
        self.slo = slo
        self.admission = admission or AdmissionController(audit=self.audit)
        self.metrics = metrics or ServiceMetrics()
        self.workers = [WorkerState(i) for i in range(workers)]
        self.outcomes: list[QueryOutcome] = []
        self.now_ms = 0.0
        self._pending: list[Query] = []
        #: Optional :class:`~repro.faults.injector.FaultInjector`;
        #: threaded into every engine the executor builds and visited
        #: at the service's own sites (queue, registry, worker).
        self.fault_injector = fault_injector
        #: Optional :class:`~repro.telemetry.tracer.Tracer`. Every
        #: dispatch opens a top-level ``service.dispatch`` span (one
        #: trace per dispatch), threads the tracer into the engines it
        #: builds, and tags recovery decisions as point events.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if fault_injector is not None and self.tracer.enabled:
            fault_injector.bind_tracer(self.tracer)
        #: Span-track namespace, e.g. ``"replica3."`` in a cluster —
        #: dispatch spans land on ``"<prefix>worker<i>"`` so every
        #: replica's workers get their own telemetry tracks.
        self.track_prefix = track_prefix
        #: The execution plane this scheduler dispatches onto. Built
        #: here unless the caller composes one explicitly (the cluster
        #: layer does, to share pieces across replicas).
        self.executor = executor or ExecutionEngine(
            metrics=self.metrics,
            scaled_cache=scaled_cache,
            num_gcds=num_gcds,
            distributed_threshold_bytes=distributed_threshold_bytes,
            linalg_batch_threshold=linalg_batch_threshold,
            partition=partition,
            fault_injector=fault_injector,
            recovery=recovery,
            tracer=self.tracer,
            audit=self.audit,
        )
        # The batch cap is engine-aware: ``None`` adopts the executor's
        # cap (64 on the concurrent path, the bitmap engine's cap with
        # the linalg tier enabled); an explicit value is validated
        # against it with a typed error naming the active engine.
        cap = self.executor.batch_cap
        if max_batch is None:
            max_batch = cap
        elif not 1 <= max_batch <= cap:
            raise BatchLimitError(
                f"max_batch must be in 1..{cap} (the {self.executor.batch_cap_engine} "
                f"engine's batch capacity), got {max_batch}"
            )
        self.max_batch = max_batch
        #: Dispatches issued so far (batch id in traces).
        self._batch_seq = 0

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    def take_pending(self) -> list[Query]:
        """Remove and return every admitted-but-undispatched query.

        The cluster layer uses this on replica death: in-flight work is
        pulled back from the dead replica and re-dispatched to the
        survivors, so no admitted query is silently lost.
        """
        pending, self._pending = self._pending, []
        return pending

    def submit(self, query: Query) -> None:
        """Admit one query at its arrival stamp.

        Raises a typed :class:`~repro.errors.AdmissionError` (after
        recording the rejection under the error's ``kind``) when the
        bounded queue is full or the deadline has already elapsed.
        Arrivals must be submitted in non-decreasing time order.
        ``op="mutate"`` queries route to :meth:`apply_mutation` —
        they bypass admission and produce no outcome.
        """
        if query.is_mutation:
            self.apply_mutation(query)
            return
        if query.arrival_ms < self.now_ms:
            raise ServiceError(
                f"query {query.qid} arrives at {query.arrival_ms} ms, "
                f"before the clock ({self.now_ms} ms); submit in order"
            )
        self._advance(query.arrival_ms)
        self.now_ms = query.arrival_ms
        depth = self.queue_depth
        if self.fault_injector is not None:
            # Queue-pressure spike: phantom slots shrink the effective
            # headroom, shedding load early — a typed rejection the
            # client sees, never a silent drop.
            for event in self.fault_injector.pulse("service.queue", query.graph):
                if event.kind == "queue_pressure":
                    depth += int(event.magnitude)
            self.metrics.sync_faults(self.fault_injector.faults_injected)
        try:
            self.admission.admit(query, depth)
        except AdmissionError as exc:
            outcome = QueryOutcome(
                query=query, levels=None, rejected=exc.kind
            )
            self.outcomes.append(outcome)
            self.metrics.record_outcome(outcome)
            self._observe_outcome(outcome, query.arrival_ms)
            raise
        self._pending.append(query)
        self._dispatch_full_groups(query)

    def apply_mutation(self, query: Query) -> None:
        """Apply one ``op="mutate"`` query as a barrier at its stamp.

        Every pending query on the same graph is dispatched first (a
        pre-mutation arrival must traverse the pre-mutation graph),
        then the delta lands in the registry, bumping the spec's
        version and retiring the resident entry — so a post-mutation
        dispatch can only ever see the new version. Mutations bypass
        admission and the coalescing queue and never produce a
        :class:`~repro.service.request.QueryOutcome`.
        """
        if not query.is_mutation or query.delta is None:
            raise ServiceError(
                f"apply_mutation needs an op='mutate' query with a "
                f"delta, got op={query.op!r}"
            )
        if query.arrival_ms < self.now_ms:
            raise ServiceError(
                f"mutation {query.qid} arrives at {query.arrival_ms} ms, "
                f"before the clock ({self.now_ms} ms); submit in order"
            )
        self._advance(query.arrival_ms)
        self.now_ms = query.arrival_ms
        # Barrier: flush every pending group on the mutated graph.
        while True:
            anchor = next(
                (q for q in self._pending if q.graph == query.graph), None
            )
            if anchor is None:
                break
            self._dispatch_group(anchor, max(self.now_ms, anchor.arrival_ms))
        entry = self.registry.mutate(query.graph, query.delta)
        version = self.registry.graph_version(query.graph)
        self.tracer.event(
            "registry.mutate",
            graph=query.graph,
            version=version,
            inserts=query.delta.num_inserts,
            deletes=query.delta.num_deletes,
        )
        if self.audit.enabled:
            self.audit.record(
                "mutation",
                query.qid,
                f"v{version}",
                at_ms=query.arrival_ms,
                graph=query.graph,
                inserts=query.delta.num_inserts,
                deletes=query.delta.num_deletes,
                resident=entry is not None,
            )

    def run_until_idle(self) -> list[QueryOutcome]:
        """Flush every pending query and return all outcomes so far."""
        while self._pending:
            anchor = self._pending[0]
            close = max(self.now_ms, anchor.arrival_ms)
            self._dispatch_group(anchor, close)
        return self.outcomes

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Dispatch every group whose coalescing window closed by ``now``."""
        while self._pending:
            anchor = self._pending[0]
            close = anchor.arrival_ms + self.window_ms
            if close > now:
                break
            self._dispatch_group(anchor, close)

    def _dispatch_full_groups(self, query: Query) -> None:
        """Dispatch early when the new arrival fills its group."""
        members, key = self._group_of(query)
        if key is None:
            return
        distinct = len({q.source for q in members})
        if distinct >= self.max_batch:
            self._dispatch_group(members[0], query.arrival_ms)

    def _group_of(self, anchor: Query) -> tuple[list[Query], tuple | None]:
        """Pending queries that may share ``anchor``'s dispatch, in
        arrival order, capped at ``max_batch`` distinct sources."""
        key = anchor.options.coalescing_key()
        if key is None:
            return [anchor], None
        members: list[Query] = []
        sources: set[int] = set()
        for q in self._pending:
            if q.graph != anchor.graph or q.options.coalescing_key() != key:
                continue
            if q.source not in sources and len(sources) >= self.max_batch:
                continue
            sources.add(q.source)
            members.append(q)
        return members, key

    # ------------------------------------------------------------------
    def _dispatch_group(self, anchor: Query, close_ms: float) -> None:
        members, key = self._group_of(anchor)
        pending_ids = {q.qid for q in members}
        self._pending = [q for q in self._pending if q.qid not in pending_ids]

        worker = min(self.workers, key=lambda w: (w.busy_until_ms, w.index))
        ready = max(close_ms, max(q.arrival_ms for q in members))
        start = max(worker.busy_until_ms, ready)

        # Deadline gate: drop members whose start slot already misses
        # their deadline — they never charge kernel time.
        live: list[Query] = []
        for q in members:
            try:
                self.admission.check_deadline(q, start)
            except DeadlineExceededError:
                outcome = QueryOutcome(query=q, levels=None, rejected="deadline")
                self.outcomes.append(outcome)
                self.metrics.record_outcome(outcome)
                self._observe_outcome(outcome, start)
            else:
                live.append(q)
        if not live:
            return

        self._batch_seq += 1
        with self.tracer.span(
            "service.dispatch",
            at=start,
            track=f"{self.track_prefix}worker{worker.index}",
            batch=self._batch_seq,
            graph=anchor.graph,
            queries=len(live),
            worker=worker.index,
            tenant=",".join(sorted({q.tenant for q in live})),
            qos=",".join(sorted({q.qos for q in live})),
        ) as sp:
            inj = self.fault_injector
            if inj is not None:
                # Eviction storm: warm graphs (and their engines) vanish
                # before the lookup, so this dispatch may re-pay the
                # build.
                for event in inj.pulse("service.registry", anchor.graph):
                    if event.kind == "evict_storm":
                        self.registry.evict(int(event.magnitude))
            entry, hit = self.registry.get(anchor.graph)
            build_ms = 0.0 if hit else entry.build_ms
            if not hit:
                self.tracer.event(
                    "registry.miss", graph=anchor.graph, build_ms=build_ms
                )
            sources = list(dict.fromkeys(q.source for q in live))
            batched = key is not None and len(sources) > 1
            sp.set(sources=len(sources), cache_hit=hit)
            # The engines inside rebase their own clocks onto the slot
            # *after* the modelled CSR build charge.
            sp.advance_to(start + build_ms)

            elapsed, sharing, levels_of, engine = self.executor.run(
                entry, live, sources, batched, graph_key=anchor.graph,
                now_ms=start, registry=self.registry,
            )
            sp.set(engine=engine)
            self.metrics.record_engine(engine)
            if inj is not None:
                self.metrics.sync_faults(inj.faults_injected)

            finish = start + build_ms + elapsed
            sp.end_at(finish)
            worker.busy_until_ms = finish
            worker.busy_ms += build_ms + elapsed
            worker.dispatches += 1

            degrees = entry.graph.degrees
            self.metrics.record_batch(len(live), sharing)
            for q in live:
                levels = levels_of(q.source)
                outcome = QueryOutcome(
                    query=q,
                    levels=levels,
                    start_ms=start,
                    finish_ms=finish,
                    worker=worker.index,
                    batch_size=len(live),
                    batch_sources=len(sources),
                    sharing_factor=sharing,
                    cache_hit=hit,
                    traversed_edges=int(degrees[levels >= 0].sum()),
                    engine=engine,
                    graph_version=entry.version,
                )
                self.outcomes.append(outcome)
                self.metrics.record_outcome(outcome)
                self._observe_outcome(outcome, finish)

    # ------------------------------------------------------------------
    def _observe_outcome(self, outcome: QueryOutcome, at_ms: float) -> None:
        """Feed one terminal outcome to the audit and SLO observers.

        Pure observation — called after the outcome is already recorded
        in metrics, so enabling either plane never changes an answer.
        """
        q = outcome.query
        if self.audit.enabled:
            if outcome.served:
                self.audit.record(
                    "outcome",
                    q.qid,
                    "served",
                    at_ms=at_ms,
                    latency_ms=outcome.latency_ms,
                    engine=outcome.engine,
                    worker=outcome.worker,
                    batch_size=outcome.batch_size,
                    qos=q.qos,
                    tenant=q.tenant,
                )
            else:
                self.audit.record(
                    "outcome",
                    q.qid,
                    f"rejected:{outcome.rejected}",
                    at_ms=at_ms,
                    qos=q.qos,
                    tenant=q.tenant,
                )
        if self.slo is not None and self.slo.enabled:
            self.slo.observe(
                at_ms=at_ms,
                latency_ms=outcome.latency_ms if outcome.served else 0.0,
                served=outcome.served,
                qos=q.qos,
                tenant=q.tenant,
                qid=q.qid,
            )

    def worker_stats(self) -> list[dict]:
        """Per-worker utilisation snapshot (JSON-able)."""
        return [
            {
                "worker": w.index,
                "dispatches": w.dispatches,
                "busy_ms": w.busy_ms,
                "busy_until_ms": w.busy_until_ms,
            }
            for w in self.workers
        ]
