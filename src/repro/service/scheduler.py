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
:class:`~repro.xbfs.driver.XBFS` run. The pending queue is indexed by
``(graph, coalescing key)``, so admitting a query and forming its
dispatch cost O(1) and O(group), whatever the queue depth.

Dispatches land on the least-loaded of ``workers`` simulated GCDs
(earliest ``busy_until``, ties to the lowest index), so the virtual
clock models real queueing delay: a batch starts when both its window
has closed *and* its worker is free, and a registry miss additionally
pays the modelled CSR build charge before the traversal. Each worker
pays the first-launch warm-up once, on the first traversal kernel it
runs; an engine starts as warm as the worker it lands on.

Which engine serves a ready batch — solo XBFS, the concurrent iBFS
batch engine, the size-routed multi-GCD pod or the circuit breaker's
serial fallback — is the :class:`~repro.service.execution.ExecutionEngine`'s
concern; the scheduler charges whatever virtual elapsed time the
executor returns and stamps the outcome with the engine that served
it. Routed answers are bit-identical to solo XBFS by contract,
including under fault plans. The scheduler is handed that executor
ready-made and reads the registry, fault injector, tracer, metrics
and audit log it shares with it from it, so no routing option ever
reaches the scheduler.

Everything — grouping, worker choice, timing — is a pure function of
the submitted queries, so a replayed trace is bit-for-bit
reproducible.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import (
    AdmissionError,
    BatchLimitError,
    DeadlineExceededError,
    ServiceError,
)
from repro.obs.stream import DecisionStream
from repro.service.admission import AdmissionController
from repro.service.execution import (
    SERIAL_FALLBACK_MS_PER_MEDGE,
    ExecutionEngine,
)
from repro.service.request import Query, QueryOutcome

__all__ = ["CoalescingScheduler", "WorkerState", "SERIAL_FALLBACK_MS_PER_MEDGE"]


@dataclass
class WorkerState:
    """One simulated GCD in the dispatch pool."""

    index: int
    busy_until_ms: float = 0.0
    dispatches: int = 0
    busy_ms: float = 0.0
    #: Whether the GCD has paid its first-launch warm-up: every
    #: single-GCD engine the executor runs on it afterwards starts warm,
    #: whichever graph version or registry entry built it.
    warm: bool = False


@dataclass
class _Group:
    """The pending queries of one ``(graph, coalescing key)``."""

    #: ``(arrival seq, query)`` in arrival order.
    members: deque = field(default_factory=deque)
    #: Distinct sources among ``members`` (coalescable groups only).
    sources: set = field(default_factory=set)


class _PendingIndex:
    """Admitted-but-undispatched queries in arrival order, indexed by
    ``(graph, coalescing key)`` so every step of a dispatch walks one
    group, never the whole queue.

    Each query's coalescing key is computed once, on :meth:`push`.
    Solo-only queries (key ``None``) share one group per graph but
    leave it one at a time.
    """

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max_batch
        #: seq -> (query, key), in arrival order.
        self._order: OrderedDict[int, tuple[Query, tuple | None]] = OrderedDict()
        #: graph -> key -> group.
        self._groups: dict[str, dict[tuple | None, _Group]] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self._order)

    def push(self, query: Query) -> tuple | None:
        """Queue ``query``; return its coalescing key."""
        key = query.options.coalescing_key()
        self._seq += 1
        self._order[self._seq] = (query, key)
        groups = self._groups.setdefault(query.graph, {})
        group = groups.get(key)
        if group is None:
            group = groups[key] = _Group()
        group.members.append((self._seq, query))
        if key is not None:
            group.sources.add(query.source)
        return key

    def is_full(self, graph: str, key: tuple) -> bool:
        """Whether the coalescable ``(graph, key)`` group holds
        ``max_batch`` distinct sources."""
        return len(self._groups[graph][key].sources) >= self.max_batch

    def head(self, graph: str | None = None) -> tuple[Query, tuple | None] | None:
        """The oldest pending query — on ``graph`` when given — and its
        key, or ``None`` when there is none."""
        if graph is None:
            return next(iter(self._order.values()), None)
        groups = self._groups.get(graph)
        if not groups:
            return None
        key, group = min(groups.items(), key=lambda kv: kv[1].members[0][0])
        return group.members[0][1], key

    def take(self, graph: str, key: tuple | None) -> list[Query]:
        """Remove and return one dispatch of the ``(graph, key)`` group:
        its oldest query when solo-only, else the whole group in
        arrival order. A coalescable group never holds more than
        ``max_batch`` distinct sources: the scheduler dispatches it as
        soon as :meth:`is_full`, and duplicates of its sources ride
        along."""
        groups = self._groups[graph]
        if key is None:
            solo = groups[None].members
            taken = [solo.popleft()]
            if not solo:
                del groups[None]
        else:
            taken = groups.pop(key).members
        if not groups:
            del self._groups[graph]
        for seq, _query in taken:
            del self._order[seq]
        return [query for _seq, query in taken]

    def drain(self) -> list[Query]:
        """Remove and return every pending query, in arrival order."""
        pending = [q for q, _key in self._order.values()]
        self._order.clear()
        self._groups.clear()
        return pending


class CoalescingScheduler:
    """Drains a bounded queue into batched BFS dispatches."""

    def __init__(
        self,
        executor: ExecutionEngine,
        *,
        workers: int = 2,
        max_batch: int | None = None,
        window_ms: float = 5.0,
        admission: AdmissionController | None = None,
        track_prefix: str = "",
        slo=None,
    ) -> None:
        if workers < 1:
            raise ServiceError("scheduler needs at least one worker")
        if window_ms < 0:
            raise ServiceError("window_ms must be >= 0")
        #: The execution plane this scheduler dispatches onto. The
        #: registry, the fault injector (also visited at the queue,
        #: registry and worker sites), the tracer (one
        #: ``service.dispatch`` span per dispatch), the metrics and the
        #: audit log are the executor's: one of each per service.
        self.executor = executor
        self.registry = executor.registry
        self.fault_injector = executor.fault_injector
        self.tracer = executor.tracer
        self.metrics = executor.stream.metrics
        audit = executor.stream.audit
        self.window_ms = window_ms
        self.admission = admission or AdmissionController(audit=audit)
        self.workers = [WorkerState(i) for i in range(workers)]
        self.outcomes: list[QueryOutcome] = []
        self.now_ms = 0.0
        #: The decisions this scheduler makes — outcomes, dispatches,
        #: mutations — folded into its outcome log, metrics, the audit
        #: log, the SLO engine and the tracer.
        self.stream = DecisionStream(metrics=self.metrics, audit=audit, slo=slo,
                                     tracer=self.tracer, outcomes=self.outcomes)
        #: Span-track namespace, e.g. ``"replica3."`` in a cluster —
        #: dispatch spans land on ``"<prefix>worker<i>"`` so every
        #: replica's workers get their own telemetry tracks.
        self.track_prefix = track_prefix
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
        self._pending = _PendingIndex(max_batch)
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
        return self._pending.drain()

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
            self.stream.faults(self.fault_injector.faults_injected)
        try:
            self.admission.admit(query, depth)
        except AdmissionError as exc:
            self.stream.outcome(
                QueryOutcome(query=query, levels=None, rejected=exc.kind),
                query.arrival_ms,
            )
            raise
        key = self._pending.push(query)
        # Dispatch early when the new arrival fills its group.
        if key is not None and self._pending.is_full(query.graph, key):
            self._dispatch_group(query.graph, key, query.arrival_ms)

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
        # Barrier: flush every pending group on the mutated graph,
        # oldest first.
        while (head := self._pending.head(query.graph)) is not None:
            anchor, key = head
            self._dispatch_group(
                query.graph, key, max(self.now_ms, anchor.arrival_ms)
            )
        entry = self.registry.mutate(query.graph, query.delta)
        self.stream.mutation(
            query, self.registry.graph_version(query.graph), entry is not None
        )

    def run_until_idle(self) -> list[QueryOutcome]:
        """Flush every pending query and return all outcomes so far."""
        while (head := self._pending.head()) is not None:
            anchor, key = head
            close = max(self.now_ms, anchor.arrival_ms)
            self._dispatch_group(anchor.graph, key, close)
        return self.outcomes

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Dispatch every group whose coalescing window closed by ``now``."""
        while (head := self._pending.head()) is not None:
            anchor, key = head
            close = anchor.arrival_ms + self.window_ms
            if close > now:
                break
            self._dispatch_group(anchor.graph, key, close)

    # ------------------------------------------------------------------
    def _dispatch_group(self, graph: str, key: tuple | None,
                        close_ms: float) -> None:
        members = self._pending.take(graph, key)

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
                self.stream.outcome(
                    QueryOutcome(query=q, levels=None, rejected="deadline"), start
                )
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
            graph=graph,
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
                for event in inj.pulse("service.registry", graph):
                    if event.kind == "evict_storm":
                        self.registry.evict(int(event.magnitude))
            entry, hit = self.registry.get(graph)
            build_ms = 0.0 if hit else entry.build_ms
            if not hit:
                self.stream.registry_miss(graph, build_ms)
            sources = list(dict.fromkeys(q.source for q in live))
            batched = key is not None and len(sources) > 1
            sp.set(sources=len(sources), cache_hit=hit)
            # The engines inside rebase their own clocks onto the slot
            # *after* the modelled CSR build charge.
            sp.advance_to(start + build_ms)

            elapsed, sharing, levels_of, engine = self.executor.run(
                entry, live, sources, batched, graph_key=graph, now_ms=start,
                worker=worker,
            )
            sp.set(engine=engine)
            finish = start + build_ms + elapsed
            sp.end_at(finish)
            worker.busy_until_ms = finish
            worker.busy_ms += build_ms + elapsed
            worker.dispatches += 1

            # Duplicate sources share one level array: count each
            # distinct source's reached edges once.
            degrees = entry.graph.degrees
            reached = {s: int(np.dot(levels_of(s) >= 0, degrees)) for s in sources}
            self.stream.dispatch(engine, len(live), sharing,
                                 None if inj is None else inj.faults_injected)
            for q in live:
                outcome = QueryOutcome(
                    query=q,
                    levels=levels_of(q.source),
                    start_ms=start,
                    finish_ms=finish,
                    worker=worker.index,
                    batch_size=len(live),
                    batch_sources=len(sources),
                    sharing_factor=sharing,
                    cache_hit=hit,
                    traversed_edges=reached[q.source],
                    engine=engine,
                    graph_version=entry.version,
                )
                self.stream.outcome(outcome, finish)

    # ------------------------------------------------------------------
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
