"""Two seeded cluster replays with every obs sink attached.

``fingerprint_run`` is the replay of the ``obs`` regression fingerprint
(``tools/check_regression.py``) with a tracer added: quotas, two
replicas, the 2D grid tier, audit, SLO burn rules and sketch metrics.

``churn_run`` is a small churn replay that makes every serving decision
at least once: quota, queue-full and deadline rejections (at admission
and at dispatch), steals, one replica death and its revival, one edge
mutation with repair, dispatch retries, level restarts, a breaker trip
and serial fallbacks.

Both are session fixtures: the replays are deterministic and the tests
only read them.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.cluster import ClusterRouter, TenantQuota
from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.graph.delta import random_delta
from repro.graph.generators import rmat
from repro.obs import AuditLog, SloEngine, SloSpec
from repro.service import Query, synthetic_trace
from repro.telemetry import Tracer

CHURN_SPECS = ("7", "8", "9")


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


def _replay(router, trace, audit, slo, tracer):
    report = router.replay(trace)
    return SimpleNamespace(router=router, report=report, audit=audit, slo=slo,
                           tracer=tracer)


@pytest.fixture(scope="session")
def fingerprint_run():
    tracer = Tracer()
    audit = AuditLog()
    slo = SloEngine([
        SloSpec(name="interactive", latency_target_ms=30.0, objective=0.9,
                qos="interactive"),
        SloSpec(name="batch", latency_target_ms=200.0, objective=0.95, qos="batch"),
    ], tracer=tracer)
    sizes = {"rmat:10": 1024, "rmat:11": 2048}
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=64, seed=29, tenants=2,
        interactive_frac=0.6, mean_gap_ms=1.0, burst=6,
    )
    router = ClusterRouter(
        replicas=2, workers=2, window_ms=5.0, seed=0,
        quotas={"t0": TenantQuota(rate_per_s=400, burst=3)},
        audit=audit, slo=slo, bounded_metrics=True, tracer=tracer,
        distributed_threshold_mb=0.05, partition="2d",
    )
    return _replay(router, trace, audit, slo, tracer)


@pytest.fixture(scope="session")
def churn_run():
    tracer = Tracer()
    audit = AuditLog()
    slo = SloEngine([
        SloSpec("interactive", 25.0, objective=0.9, qos="interactive"),
        SloSpec("batch", 60.0, objective=0.95, qos="batch"),
    ], tracer=tracer)
    plan = FaultPlan(seed=4, rules=(
        FaultRule(site="cluster.replica", kind="replica_death", probability=0.05,
                  magnitude=10.0, max_triggers=1, after=10),
        FaultRule(site="service.worker", kind="kernel_launch", probability=0.3),
        FaultRule(site="gcd.sync", kind="memory_corruption", probability=0.05,
                  max_triggers=6),
        FaultRule(site="service.queue", kind="queue_pressure", probability=0.05,
                  magnitude=20.0),
    ))
    router = ClusterRouter(
        replicas=2, builder=_builder, workers=2, window_ms=2.0, seed=0,
        max_queue_depth=24, steal_threshold=4,
        quotas={"t0": TenantQuota(rate_per_s=200, burst=4)},
        recovery=RecoveryPolicy(max_dispatch_retries=1, breaker_threshold=1,
                                breaker_cooldown=2),
        fault_plan=plan, tracer=tracer, audit=audit, slo=slo,
    )
    trace = synthetic_trace(
        CHURN_SPECS, {s: 1 << int(s) for s in CHURN_SPECS}, num_queries=160,
        seed=11, tenants=3, mean_gap_ms=2.0, burst=8,
    )
    # One query whose budget is gone on arrival, one burst whose budget
    # the coalescing window eats, and one insert-only mutation halfway.
    trace[5] = replace(trace[5], deadline_ms=0.0)
    for i in range(56, 64):
        trace[i] = replace(trace[i], deadline_ms=0.5)
    mutation = Query(qid=10_000, graph="8", source=0, arrival_ms=trace[80].arrival_ms,
                     op="mutate", delta=random_delta(_builder("8"), num_inserts=6, seed=3))
    trace.insert(80, mutation)
    return _replay(router, trace, audit, slo, tracer)
