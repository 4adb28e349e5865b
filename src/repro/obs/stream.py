"""The decision stream: each serving decision is recorded once.

A decision site in :mod:`repro.service` or :mod:`repro.cluster` calls
one method of :class:`DecisionStream`, once. Each method is one event
type: its signature holds the event's fields, its body folds the event
into every attached sink in one fixed order — the outcome log, the
stream's own tallies (``counts``), :class:`~repro.service.metrics.ServiceMetrics`,
:class:`~repro.obs.audit.AuditLog` rows, the
:class:`~repro.obs.slo.SloEngine` windows (which may raise ``slo.alert``
trace events) and tracer point events. No serving code writes a sink
itself, so no two sinks can disagree about a fact. A stream without an
audit log, SLO engine or tracer skips that fold; one that emits outcome,
dispatch or recovery events needs metrics. Folding only observes: it
never feeds a decision, draws no random number and charges no virtual
time.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.audit import NULL_AUDIT
from repro.telemetry.tracer import NULL_TRACER

__all__ = ["DecisionStream"]


class DecisionStream:
    """Folds each emitted decision into the attached sinks."""

    def __init__(self, *, metrics=None, audit=None, slo=None, tracer=None,
                 outcomes: list | None = None) -> None:
        self.metrics = metrics
        self.audit = audit if audit is not None else NULL_AUDIT
        self.slo = slo
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Terminal outcomes in emit order.
        self.outcomes = outcomes if outcomes is not None else []
        #: Per-kind tallies of the decisions only this stream counts.
        self.counts: Counter = Counter()
        #: The front door's quota verdicts per tenant, keyed
        #: ``(tenant, "admitted" | "rejected")``.
        self.quota: Counter = Counter()

    # --- admission and outcomes ----------------------------------------
    def admission(self, query, verdict: str, at_ms: float, **detail) -> None:
        """One admission verdict: ``admitted`` or ``rejected:<why>``."""
        self.counts[verdict] += 1
        if self.audit.enabled:
            self.audit.record("admission", query.qid, verdict, at_ms=at_ms, **detail)

    def outcome(self, outcome, at_ms: float) -> None:
        """A query that reached a replica was served or rejected."""
        self.outcomes.append(outcome)
        self.metrics.record_outcome(outcome)
        q = outcome.query
        if self.audit.enabled:
            if outcome.served:
                self.audit.record("outcome", q.qid, "served", at_ms=at_ms,
                                  latency_ms=outcome.latency_ms, engine=outcome.engine,
                                  worker=outcome.worker, batch_size=outcome.batch_size,
                                  qos=q.qos, tenant=q.tenant)
            else:
                self.audit.record("outcome", q.qid, f"rejected:{outcome.rejected}",
                                  at_ms=at_ms, qos=q.qos, tenant=q.tenant)
        self._observe(outcome, at_ms)

    def quota_reject(self, outcome, tokens: float | None) -> None:
        """The front door rejected a query over its tenant's quota."""
        q = outcome.query
        self.outcomes.append(outcome)
        self.quota[q.tenant, "rejected"] += 1
        self.admission(q, "rejected:quota", q.arrival_ms, tenant=q.tenant, tokens=tokens)
        self._observe(outcome, q.arrival_ms)
        self.tracer.event("cluster.quota_reject", tenant=q.tenant, qos=q.qos, qid=q.qid)

    def _observe(self, outcome, at_ms: float) -> None:
        slo = self.slo
        if slo is not None and slo.enabled:
            q = outcome.query
            slo.observe(at_ms=at_ms, latency_ms=outcome.latency_ms if outcome.served else 0.0,
                        served=outcome.served, qos=q.qos, tenant=q.tenant, qid=q.qid)

    # --- dispatch and execution ----------------------------------------
    def faults(self, injected: int) -> None:
        """The fault injector has fired ``injected`` events so far."""
        self.metrics.sync_faults(injected)

    def registry_miss(self, graph: str, build_ms: float) -> None:
        """A dispatch found ``graph`` cold and pays its CSR build."""
        self.tracer.event("registry.miss", graph=graph, build_ms=build_ms)

    def dispatch(self, engine: str, queries: int, sharing: float,
                 faults: int | None) -> None:
        """One dispatch of ``queries`` live queries ran on ``engine``."""
        m = self.metrics
        m.engine_dispatches[engine] = m.engine_dispatches.get(engine, 0) + 1
        if faults is not None:
            self.faults(faults)
        m.record_batch(queries, sharing)

    def tier_run(self, live, tier: str, stage: str, detail: dict, result,
                 at_ms: float) -> None:
        """A tier answered a dispatch (its pick, replays and result rows)."""
        if result.level_restarts:
            self.metrics.level_restarts += result.level_restarts
        if self.audit.enabled:
            self.audit.record(stage, [q.qid for q in live], tier, at_ms=at_ms, **detail)
            for row_stage, qids, decision, rec in result.audit_rows(live):
                self.audit.record(row_stage, qids, decision, at_ms=at_ms, **rec)

    def repair_declined(self, live, at_ms: float, **why) -> None:
        """A post-mutation dispatch recomputes instead of repairing."""
        if self.audit.enabled:
            self.audit.record("repair", [q.qid for q in live], "recompute", at_ms=at_ms, **why)

    def retry(self, graph: str, attempt: int, backoff_ms: float) -> None:
        """A faulted dispatch is retried after ``backoff_ms``."""
        self.metrics.retries += 1
        self.tracer.event("recovery.dispatch_retry", graph=graph, attempt=attempt,
                          backoff_ms=backoff_ms)

    def recovered(self, backoff_ms: float) -> None:
        """A dispatch succeeded after ``backoff_ms`` of retries."""
        self.metrics.record_recovery(backoff_ms)

    def breaker_trip(self, graph: str, streak: int) -> None:
        """The circuit breaker opens after ``streak`` exhausted dispatches."""
        self.metrics.breaker_trips += 1
        self.tracer.event("recovery.breaker_trip", graph=graph, streak=streak)

    def fallback(self, graph: str, reason: str) -> None:
        """A dispatch is served by the serial baseline."""
        self.metrics.fallbacks += 1
        self.tracer.event("recovery.serial_fallback", graph=graph, reason=reason)

    def mutation(self, query, version: int, resident: bool) -> None:
        """A replica's registry applied an edge delta."""
        delta = query.delta
        self.tracer.event("registry.mutate", graph=query.graph, version=version,
                          inserts=delta.num_inserts, deletes=delta.num_deletes)
        if self.audit.enabled:
            self.audit.record("mutation", query.qid, f"v{version}", at_ms=query.arrival_ms,
                              graph=query.graph, inserts=delta.num_inserts,
                              deletes=delta.num_deletes, resident=resident)

    # --- cluster -------------------------------------------------------
    def broadcast(self, query) -> None:
        """The front door sends an edge delta to every replica."""
        self.tracer.event("cluster.mutate", graph=query.graph, qid=query.qid,
                          inserts=query.delta.num_inserts, deletes=query.delta.num_deletes)

    def placement(self, query, replica: int, owner_depth: int) -> None:
        """The ring places ``query`` on its graph's owner ``replica``
        (so it passed its tenant's quota)."""
        self.quota[query.tenant, "admitted"] += 1
        if self.audit.enabled:
            self.audit.record("placement", query.qid, f"replica{replica}",
                              at_ms=query.arrival_ms, graph=query.graph,
                              owner_depth=owner_depth)

    def steal(self, query, owner: int, thief: int, owner_depth: int,
              thief_depth: int, threshold: int) -> None:
        """The least-loaded ``thief`` takes ``query`` from its hot owner."""
        self.counts["steals"] += 1
        self.tracer.event("cluster.steal", graph=query.graph, owner=owner, thief=thief,
                          owner_depth=owner_depth, thief_depth=thief_depth)
        if self.audit.enabled:
            self.audit.record("steal", query.qid, f"replica{thief}", at_ms=query.arrival_ms,
                              owner=owner, owner_depth=owner_depth,
                              thief_depth=thief_depth, steal_threshold=threshold)

    def death(self, replica: int, graphs_replaced: int, pending: int,
              restart_ms: float) -> None:
        """A replica died; its graphs and ``pending`` queries move on."""
        self.counts.update(deaths=1, replaced_graphs=graphs_replaced,
                           redispatched_queries=pending)
        self.tracer.event("cluster.replica_death", replica=replica,
                          graphs_replaced=graphs_replaced,
                          pending_redispatched=pending, restart_ms=restart_ms)

    def suppressed_death(self, replica: int, at_ms: float) -> None:
        """A death event spared the last live replica."""
        self.counts["suppressed_deaths"] += 1
        self.tracer.event("cluster.death_suppressed", replica=replica, at_ms=at_ms)

    def revival(self, replica: int, at_ms: float) -> None:
        """A dead replica restarts cold and re-joins the ring."""
        self.counts["revivals"] += 1
        self.tracer.event("cluster.replica_revive", replica=replica, at_ms=at_ms)
