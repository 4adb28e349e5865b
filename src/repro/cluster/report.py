"""Cluster-level reporting: merged outcomes + per-QoS tails + balance.

A :class:`ClusterReport` merges every replica's outcome log with the
front door's own quota rejections, then computes the numbers the
scale-out story is judged on:

* per-QoS-class latency percentiles (p50/p95/p99), charged from the
  client's *original* arrival — a query re-dispatched after a replica
  death pays its full end-to-end latency, not just the second leg;
* placement balance (placed CSR bytes per replica, max/mean ratio);
* steal / death / recovery counters;
* aggregate modelled GTEPS over the cluster makespan.

Everything is virtual-time and deterministic, so
:meth:`ClusterReport.summary` fingerprints the cluster layer the same
way :class:`~repro.service.metrics.ServiceMetrics` fingerprints one
service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.gteps import gteps
from repro.service.metrics import dispatch_counts, percentile
from repro.service.request import QueryOutcome

__all__ = ["ClusterReport"]


@dataclass
class ClusterReport:
    """Everything one cluster replay produced."""

    #: Merged outcomes (front-door rejections + every replica), qid order.
    outcomes: list[QueryOutcome]
    #: Per replica: ``{"stats": Replica.stats(), "report": ServiceReport}``.
    replicas: list[dict]
    #: :meth:`~repro.cluster.placement.PlacementMap.balance` snapshot.
    placement: dict
    #: :meth:`~repro.cluster.router.ClusterRouter.counters` snapshot.
    counters: dict
    #: Quota verdicts per tenant and in total, from the front door's
    #: decision stream.
    quota_stats: dict
    #: Shared injector counters, ``None`` without a fault plan.
    fault_stats: dict | None
    #: :meth:`~repro.obs.slo.SloEngine.status` snapshot when the router
    #: ran with an SLO engine attached, else ``None`` (not part of the
    #: fingerprinted summary).
    slo_status: list | None = None

    @property
    def served(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.served]

    @property
    def rejections(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if not o.served]

    @property
    def arrival0(self) -> dict:
        """qid → client arrival (ms) of each query with an outcome."""
        return {o.query.qid: o.query.client_arrival_ms for o in self.outcomes}

    # ------------------------------------------------------------------
    def latency_of(self, outcome: QueryOutcome) -> float:
        """End-to-end latency from the client's arrival."""
        return outcome.latency_ms

    def latencies_by_qos(self) -> dict:
        out: dict[str, list] = {}
        for o in self.served:
            out.setdefault(o.query.qos, []).append(self.latency_of(o))
        return out

    # ------------------------------------------------------------------
    def summary(self, name: str = "cluster") -> dict:
        """JSON-able summary, save/diff-able via
        :mod:`repro.metrics.results_io` (top-level numerics enter the
        fingerprint; nested per-replica sections do not)."""
        served = self.served
        lat = sorted(self.latency_of(o) for o in served)
        by_qos = self.latencies_by_qos()
        metrics = [rep["report"].metrics for rep in self.replicas]
        edges = sum(o.traversed_edges for o in served)
        t0 = min(self.arrival0.values(), default=0.0)
        t1 = max((o.finish_ms for o in served), default=t0)
        makespan = max(0.0, t1 - t0)
        engine_totals: dict[str, int] = {}
        for m in metrics:
            for eng, n in m.engine_dispatches.items():
                engine_totals[eng] = engine_totals.get(eng, 0) + n
        out: dict = {
            "name": name,
            "replicas": len(self.replicas),
            "queries_served": len(served),
            # Replica rejections are folds of each replica's metrics;
            # quota rejections happen at the front door, before any
            # replica sees the query.
            "rejected_queue_full": sum(m.rejected_queue_full for m in metrics),
            "rejected_deadline": sum(m.rejected_deadline for m in metrics),
            "rejected_quota": self.quota_stats["rejected"],
            "p50_ms": percentile(lat, 50),
            "p95_ms": percentile(lat, 95),
            "p99_ms": percentile(lat, 99),
            **dispatch_counts(engine_totals),
            "makespan_ms": makespan,
            "cluster_gteps": gteps(edges, makespan),
            "total_traversed_edges": edges,
            "balance_ratio": self.placement["balance_ratio"],
            "graphs_placed": self.placement["graphs_placed"],
            **self.counters,
        }
        for qos in sorted(by_qos):
            qlat = by_qos[qos]
            out[f"qos_{qos}_served"] = len(qlat)
            out[f"qos_{qos}_p50_ms"] = percentile(qlat, 50)
            out[f"qos_{qos}_p95_ms"] = percentile(qlat, 95)
            out[f"qos_{qos}_p99_ms"] = percentile(qlat, 99)
        # Nested (non-fingerprinted) detail: per-replica summaries, the
        # placement snapshot, per-tenant quota decisions.
        per_replica = []
        for rep in self.replicas:
            rsum = rep["report"].summary(f"replica{rep['stats']['replica']}")
            rsum.update(rep["stats"])
            per_replica.append(rsum)
        out["per_replica"] = per_replica
        out["placement"] = dict(self.placement)
        out["quota"] = dict(self.quota_stats)
        return out

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable one-screen cluster report."""
        s = self.summary()
        lines = [
            f"cluster:    {s['replicas']} replicas, "
            f"{s['queries_served']} served, "
            f"{len(self.rejections)} rejected "
            f"(queue_full={s['rejected_queue_full']}, "
            f"deadline={s['rejected_deadline']}, "
            f"quota={s['rejected_quota']})",
            f"latency:    p50 {s['p50_ms']:.3f} ms  "
            f"p95 {s['p95_ms']:.3f} ms  p99 {s['p99_ms']:.3f} ms",
        ]
        for qos in sorted(self.latencies_by_qos()):
            lines.append(
                f"  {qos + ':':<12}p50 {s[f'qos_{qos}_p50_ms']:.3f} ms  "
                f"p95 {s[f'qos_{qos}_p95_ms']:.3f} ms  "
                f"p99 {s[f'qos_{qos}_p99_ms']:.3f} ms  "
                f"({s[f'qos_{qos}_served']} served)"
            )
        lines.append(
            f"placement:  {s['graphs_placed']} graphs, balance ratio "
            f"{s['balance_ratio']:.2f}, {s['placement_overrides']} overrides"
        )
        lines.append(
            f"faults:     deaths={s['deaths']} revivals={s['revivals']} "
            f"redispatched={s['redispatched_queries']} "
            f"graphs_replaced={s['replaced_graphs']} steals={s['steals']}"
        )
        lines.append(
            f"throughput: {s['cluster_gteps']:.3f} GTEPS (modelled) over "
            f"{s['makespan_ms']:.3f} ms makespan"
        )
        return "\n".join(lines)
