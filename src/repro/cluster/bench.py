"""Cluster benchmarking: replica-death plans and the scale-out sweep.

Two pieces, both deterministic:

* :func:`death_plan` — a seeded :class:`~repro.faults.plan.FaultPlan`
  firing ``replica_death`` events at the ``cluster.replica`` site
  (magnitude = virtual ms until the cold restart).
* :func:`run_scaleout_sweep` — replay one multi-tenant
  :func:`~repro.service.trace.synthetic_trace` through clusters of
  increasing replica count, check every served answer bit-identical
  to a fault-free single :class:`~repro.service.runtime.BFSService`
  replay of the same trace, and return the per-point summaries that
  land in ``BENCH_cluster_scaleout.json``.
"""

from __future__ import annotations

import zlib
from typing import Mapping, Sequence

from repro.faults import FaultPlan, FaultRule, levels_fingerprint
from repro.service.runtime import BFSService
from repro.service.trace import synthetic_trace

__all__ = ["death_plan", "run_scaleout_sweep"]


def death_plan(
    seed: int = 0,
    *,
    probability: float = 0.01,
    restart_ms: float = 200.0,
    max_triggers: int | None = 2,
    after: int = 0,
) -> FaultPlan:
    """A seeded replica-death storm for the ``cluster.replica`` site."""
    return FaultPlan(
        seed=seed,
        name="replica-death",
        rules=(
            FaultRule(
                site="cluster.replica",
                kind="replica_death",
                probability=probability,
                magnitude=restart_ms,
                max_triggers=max_triggers,
                after=after,
            ),
        ),
    )


def run_scaleout_sweep(
    replica_counts: Sequence[int],
    *,
    graphs: Sequence[str],
    num_vertices: Mapping[str, int],
    num_queries: int = 200,
    seed: int = 0,
    tenants: int = 4,
    mean_gap_ms: float = 1.0,
    burst: int = 8,
    fault_plan: FaultPlan | None = None,
    router_kwargs: dict | None = None,
) -> list[dict]:
    """Sweep replica count over one multi-tenant trace.

    Every sweep point replays the *same* trace; a fault-free
    single-service replay of that trace provides the answer oracle.
    Each summary gains:

    * ``bit_identical`` — 1 iff every query served by both the cluster
      and the baseline returned bit-identical levels;
    * ``common_served`` / ``levels_crc32`` — the compared set and the
      CRC of its level arrays (drifts exactly when any answer does).
    """
    from repro.cluster.router import ClusterRouter

    router_kwargs = dict(router_kwargs or {})
    trace = synthetic_trace(
        graphs,
        num_vertices,
        num_queries=num_queries,
        seed=seed,
        tenants=tenants,
        mean_gap_ms=mean_gap_ms,
        burst=burst,
    )
    summaries = []
    baseline = None
    for count in replica_counts:
        router = ClusterRouter(
            replicas=count,
            fault_plan=fault_plan,
            **router_kwargs,
        )
        if baseline is None:
            oracle = BFSService(builder=router_kwargs.get("builder"),
                                **router.service_options).replay(trace)
            baseline = {o.query.qid: levels_fingerprint(o.levels)
                        for o in oracle.served}
        report = router.replay(trace)
        summary = report.summary(f"cluster_r{count}")
        crc = 0
        identical = True
        compared = 0
        for o in report.served:
            expect = baseline.get(o.query.qid)
            if expect is None:
                continue
            compared += 1
            fp = levels_fingerprint(o.levels)
            crc = zlib.crc32(fp.to_bytes(8, "little"), crc)
            if fp != expect:
                identical = False
        summary["common_served"] = compared
        summary["levels_crc32"] = crc
        summary["bit_identical"] = int(identical)
        summaries.append(summary)
    return summaries
