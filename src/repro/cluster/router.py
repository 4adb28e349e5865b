"""The cluster front door: quotas → QoS → placement → forward.

:class:`ClusterRouter` is the one entry point of the sharded serving
cluster. Per arriving query, in order:

1. **Liveness** — process due revivals, then pulse the shared fault
   injector at the ``cluster.replica`` site once per live replica (in
   id order). A fired ``replica_death`` event kills that replica:
   its graphs are orphaned and re-placed on the survivors, and its
   admitted-but-undispatched queries are re-dispatched to the new
   owners (re-stamped to the death instant — queueing starts over on
   the survivor, while latency is still charged from the client's
   arrival, :attr:`~repro.service.request.Query.first_arrival_ms`).
   The last live replica never dies (the event is counted as
   suppressed): a cluster that can lose every replica has no
   availability story to measure.
2. **QoS** — resolve the query's class; apply the class's default
   deadline when the query carries none.
3. **Quota** — charge the tenant's token bucket at the arrival stamp;
   an empty bucket is a typed :class:`~repro.errors.QuotaExceededError`
   (recorded as a ``"quota"`` outcome), distinct from any replica
   queue state.
4. **Placement** — sticky consistent-hash owner with the size-aware
   override (:mod:`repro.cluster.placement`).
5. **Stealing** — when the owner's pending queue is ``steal_threshold``
   deeper than the shallowest live replica's, the query is stolen by
   that least-loaded replica: its registry builds the graph too (the
   modelled cost of stealing), but the hot owner's queue stops
   growing.
6. **Forward** — a ``cluster.route`` span on the chosen replica's
   track, then the replica's own admission/dispatch stack takes over.

Determinism: one shared injector RNG, crc32 placement, virtual-time
quotas and the replicas' own deterministic schedulers make the whole
cluster a pure function of the submitted trace — a replay is
bit-for-bit identical, and (by the differential contract) every
served answer is bit-identical to a solo ``XBFS.run``.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, partial
from typing import Iterable, Mapping, Sequence

from repro.errors import AdmissionError, ClusterError, QuotaExceededError
from repro.faults.plan import FaultPlan
from repro.obs.stream import DecisionStream
from repro.service.request import Query, QueryOutcome
from repro.service.runtime import BFSService
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.cluster.placement import PlacementMap
from repro.cluster.qos import DEFAULT_QOS_CLASSES, QuotaLedger, TenantQuota
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport

__all__ = ["ClusterRouter"]


class ClusterRouter:
    """Front door over ``replicas`` sharded :class:`Replica` services."""

    def __init__(
        self,
        *,
        replicas: int = 2,
        quotas: Mapping[str, TenantQuota] | None = None,
        steal_threshold: int | None = 8,
        memory_budget_mb: float = 256.0,
        workers: int = 2,
        max_batch: int | None = None,
        window_ms: float = 5.0,
        max_queue_depth: int = 256,
        scale_factor: int = 64,
        seed: int = 0,
        num_gcds: int = 4,
        distributed_threshold_mb: float | None = None,
        linalg_batch_threshold: int | None = None,
        partition: str = "1d",
        builder=None,
        fault_plan: FaultPlan | None = None,
        recovery=None,
        tracer: Tracer | None = None,
        audit=None,
        slo=None,
        bounded_metrics: bool = False,
    ) -> None:
        if replicas < 1:
            raise ClusterError(f"cluster needs >= 1 replica, got {replicas}")
        if steal_threshold is not None and steal_threshold < 1:
            raise ClusterError(
                f"steal_threshold must be >= 1 or None, got {steal_threshold}"
            )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_injector = (
            fault_plan.injector() if fault_plan is not None else None
        )
        self.steal_threshold = steal_threshold

        # One host-side graph per spec, shared across replicas; each
        # replica's registry still charges its own virtual build time.
        if builder is None:
            from repro.cli import parse_graph_spec

            builder = partial(parse_graph_spec, scale_factor=scale_factor, seed=seed)
        self._builder = cache(builder)

        #: The options every replica's :class:`BFSService` is built
        #: from — the only copy of them below the front door.
        self.service_options = dict(
            memory_budget_mb=memory_budget_mb,
            workers=workers,
            max_batch=max_batch,
            window_ms=window_ms,
            max_queue_depth=max_queue_depth,
            scale_factor=scale_factor,
            seed=seed,
            num_gcds=num_gcds,
            distributed_threshold_mb=distributed_threshold_mb,
            linalg_batch_threshold=linalg_batch_threshold,
            partition=partition,
            recovery=recovery,
            bounded_metrics=bounded_metrics,
        )
        self.replicas = [
            Replica(rid, BFSService(
                builder=self._builder,
                fault_injector=self.fault_injector,
                tracer=self.tracer,
                track_prefix=f"replica{rid}.",
                audit=audit,
                slo=slo,
                **self.service_options,
            ))
            for rid in range(replicas)
        ]
        self.placement = PlacementMap(
            range(replicas),
            size_of=lambda spec: self._builder(spec).memory_bytes,
        )
        self.quotas = QuotaLedger(quotas)
        #: Front-door rejections (quota) — replica-level rejections live
        #: in each replica's own outcome log.
        self.rejected_outcomes: list[QueryOutcome] = []
        #: The front door's decisions — quota rejections, placements,
        #: steals, replica deaths and revivals — folded into the audit
        #: log and SLO engine it shares with every replica, the tracer
        #: and :meth:`counters`.
        self.stream = DecisionStream(audit=audit, slo=slo, tracer=self.tracer,
                                     outcomes=self.rejected_outcomes)
        self.now_ms = 0.0

    # ------------------------------------------------------------------
    @property
    def live_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.alive]

    def num_vertices_of(self, spec: str) -> int:
        """Vertex count of ``spec`` via the shared builder (cached)."""
        return int(self._builder(spec).num_vertices)

    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        """Admit one query at its arrival stamp (arrival order).

        Raises the typed :class:`~repro.errors.AdmissionError` on
        rejection — :class:`~repro.errors.QuotaExceededError` from the
        front door itself, queue/deadline errors from the owning
        replica — after recording the outcome.
        """
        if query.arrival_ms < self.now_ms:
            raise ClusterError(
                f"query {query.qid} arrives at {query.arrival_ms} ms, "
                f"before the cluster clock ({self.now_ms} ms); "
                f"submit in order"
            )
        self.now_ms = query.arrival_ms
        self._tick(query.arrival_ms)

        if query.is_mutation:
            self._broadcast_mutation(query)
            return

        qos = DEFAULT_QOS_CLASSES.get(query.qos)
        if qos is None:
            raise ClusterError(
                f"query {query.qid}: unknown QoS class {query.qos!r}; "
                f"known: {sorted(DEFAULT_QOS_CLASSES)}"
            )
        if query.deadline_ms is None and qos.default_deadline_ms is not None:
            query = replace(query, deadline_ms=qos.default_deadline_ms)

        if not self.quotas.admit(query.tenant, query.arrival_ms):
            self.stream.quota_reject(
                QueryOutcome(query=query, levels=None, rejected="quota"),
                self.quotas.tokens(query.tenant),
            )
            raise QuotaExceededError(
                f"query {query.qid}: tenant {query.tenant!r} over quota "
                f"at {query.arrival_ms} ms"
            )

        rid = self._route(query)
        self._forward(query, rid)

    def submit_batch(
        self,
        graph: str,
        sources: Sequence[int],
        *,
        t_ms: float,
        start_qid: int = 0,
        tenant: str = "default",
        qos: str = "interactive",
        deadline_ms: float | None = None,
    ) -> list[Query]:
        """Validate and submit one multi-source batch through the
        front door.

        The batch is validated up front with the engines' own
        :func:`~repro.xbfs.bitmap.validate_batch_sources` — empty,
        oversized, out-of-range and duplicate-source batches raise a
        typed :class:`~repro.errors.BatchSourceError` before any query
        is admitted or any quota charged. Valid batches fan out into
        one query per source (shared arrival stamp: the coalescing
        opportunity).
        """
        import numpy as np

        from repro.xbfs.bitmap import validate_batch_sources

        max_batch = min(r.scheduler.max_batch for r in self.replicas)
        validate_batch_sources(
            np.asarray(sources, dtype=np.int64),
            self.num_vertices_of(graph),
            max_batch=max_batch,
            engine="cluster",
        )
        queries = [
            Query(
                qid=start_qid + i,
                graph=graph,
                source=int(s),
                arrival_ms=t_ms,
                deadline_ms=deadline_ms,
                tenant=tenant,
                qos=qos,
            )
            for i, s in enumerate(sources)
        ]
        for q in queries:
            self.submit(q)
        return queries

    # ------------------------------------------------------------------
    def _tick(self, now: float) -> None:
        """Advance cluster liveness to ``now``: revive due replicas,
        then probe the fault plane once per live replica."""
        for r in self.replicas:
            if not r.alive and r.revive_at_ms is not None and r.revive_at_ms <= now:
                r.revive(now)
                self.placement.add_replica(r.rid)
                self.stream.revival(r.rid, now)
        if self.fault_injector is None:
            return
        for r in self.replicas:
            if not r.alive:
                continue
            for event in self.fault_injector.pulse(
                "cluster.replica", f"replica{r.rid}"
            ):
                if event.kind == "replica_death" and r.alive:
                    self._kill_replica(r, now, restart_ms=event.magnitude)

    def _kill_replica(self, replica: Replica, now: float, *, restart_ms: float) -> None:
        if len(self.live_replicas) <= 1:
            self.stream.suppressed_death(replica.rid, now)
            return
        with self.tracer.span(
            "cluster.recovery",
            at=now,
            track=f"replica{replica.rid}",
            replica=replica.rid,
        ) as sp:
            pending = replica.take_pending()
            replica.kill(now, restart_ms)
            orphans = self.placement.remove_replica(replica.rid)
            for spec in orphans:
                self.placement.place(spec)
            self.stream.death(replica.rid, len(orphans), len(pending), restart_ms)
            # Re-dispatch in-flight work to the survivors. Queries are
            # re-stamped to the death instant (their queueing starts
            # over); latency still runs from the client's arrival.
            for q in pending:
                q2 = replace(q, arrival_ms=now, first_arrival_ms=q.client_arrival_ms)
                rid = self.placement.owner_of(q2.graph)
                if rid is None:
                    rid, _ = self.placement.place(q2.graph)
                try:
                    self._forward(q2, rid, redispatch=True)
                except AdmissionError:
                    pass  # recorded by the surviving replica
            sp.end_at(now)

    def _broadcast_mutation(self, query: Query) -> None:
        """Route one ``op="mutate"`` barrier to every replica.

        Each replica owns its own registry, so the delta lands on all
        of them: live replicas apply it through their scheduler (the
        per-replica barrier flushes their pending work on that graph
        first); dead replicas record it log-only on their registry, so
        a revived-cold rebuild replays the mutation and converges on
        the same graph version as the survivors. The router's shared
        host-side graph cache stays at the base version — registries
        replay their own delta logs on top of it.
        """
        if query.delta is None:
            raise ClusterError(
                f"mutation {query.qid} on {query.graph!r} has no delta"
            )
        # Validate endpoints once at the front door so a bad delta is
        # one typed error, not a per-replica divergence.
        query.delta.validate(self.num_vertices_of(query.graph))
        self.stream.broadcast(query)
        for r in self.replicas:
            if r.alive:
                r.scheduler.apply_mutation(query)
            else:
                r.registry.mutate(query.graph, query.delta)

    def _route(self, query: Query) -> int:
        """Owning replica for ``query``, possibly stolen when hot."""
        rid, _ = self.placement.place(query.graph)
        owner = self.replicas[rid]
        self.stream.placement(query, rid, owner.queue_depth)
        if self.steal_threshold is not None:
            live = self.live_replicas
            if len(live) > 1:
                least = min(live, key=lambda r: (r.queue_depth, r.rid))
                if (
                    least.rid != rid
                    and owner.queue_depth
                    >= least.queue_depth + self.steal_threshold
                ):
                    self.stream.steal(query, rid, least.rid, owner.queue_depth,
                                      least.queue_depth, self.steal_threshold)
                    return least.rid
        return rid

    def _forward(self, query: Query, rid: int, *, redispatch: bool = False) -> None:
        with self.tracer.span(
            "cluster.route",
            at=query.arrival_ms,
            track=f"replica{rid}",
            qid=query.qid,
            graph=query.graph,
            tenant=query.tenant,
            qos=query.qos,
            replica=rid,
            redispatch=redispatch,
        ) as sp:
            sp.end_at(query.arrival_ms)  # routing is instantaneous
            self.replicas[rid].submit(query)

    # ------------------------------------------------------------------
    def drain(self) -> list[QueryOutcome]:
        """Flush every replica and return merged outcomes (qid order)."""
        for r in self.replicas:
            r.service.scheduler.run_until_idle()
        return self.outcomes()

    def outcomes(self) -> list[QueryOutcome]:
        merged = list(self.rejected_outcomes)
        for r in self.replicas:
            merged.extend(r.outcomes)
        return sorted(merged, key=lambda o: o.query.qid)

    def replay(
        self,
        queries: Iterable[Query] | Sequence[Query],
        *,
        strict: bool = False,
    ) -> ClusterReport:
        """Drive an arrival-ordered multi-tenant trace end to end.

        Typed rejections (quota, queue-full, expired deadline) are
        recorded in the report; with ``strict=True`` they re-raise.
        """
        for query in queries:
            try:
                self.submit(query)
            except AdmissionError:
                if strict:
                    raise
        self.drain()
        return self.report()

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Cluster-level counters (JSON-able, deterministic): the front
        door's stream tallies plus the placement overrides."""
        names = ("steals", "deaths", "revivals", "suppressed_deaths",
                 "redispatched_queries", "replaced_graphs")
        out = {name: self.stream.counts[name] for name in names}
        out["placement_overrides"] = self.placement.overrides
        return out

    def _quota_stats(self) -> dict:
        """JSON-able quota verdicts per tenant, from the stream."""
        tallies = self.stream.quota
        tenants = {
            t: {"admitted": tallies[t, "admitted"], "rejected": tallies[t, "rejected"]}
            for t in sorted({t for t, _ in tallies})
        }
        return {
            "tenants": tenants,
            "admitted": sum(row["admitted"] for row in tenants.values()),
            "rejected": sum(row["rejected"] for row in tenants.values()),
        }

    def report(self) -> ClusterReport:
        fault_stats = None
        if self.fault_injector is not None:
            fault_stats = self.fault_injector.stats()
        return ClusterReport(
            outcomes=self.outcomes(),
            replicas=[
                {"stats": r.stats(), "report": r.report()}
                for r in self.replicas
            ],
            placement=self.placement.balance(),
            counters=self.counters(),
            quota_stats=self._quota_stats(),
            fault_stats=fault_stats,
            slo_status=None if self.stream.slo is None else self.stream.slo.status(),
        )
