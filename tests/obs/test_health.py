"""Health snapshots: pure reads of live service/cluster state."""

from __future__ import annotations

import json

from repro.cluster import ClusterRouter, TenantQuota
from repro.obs import (
    SloEngine,
    SloSpec,
    breaker_state,
    cluster_health,
    render_health,
    service_health,
    write_health,
)
from repro.service.runtime import BFSService
from repro.service.trace import synthetic_trace

SIZES = {"rmat:9": 512, "rmat:10": 1024}


def _service_snapshot():
    svc = BFSService(workers=2, window_ms=5.0, seed=0)
    svc.replay(synthetic_trace(list(SIZES), SIZES, num_queries=32, seed=5))
    return svc, service_health(svc)


def test_service_health_fields():
    svc, snap = _service_snapshot()
    assert snap["kind"] == "service"
    row = snap["replicas"][0]
    assert row["alive"] is True
    assert row["served"] == svc.metrics.served
    assert row["queue_depth"] == 0
    assert row["breaker"] == "closed"
    assert row["graphs_cached"] == len(svc.registry)
    assert row["p99_ms"] >= row["p50_ms"] > 0


def test_breaker_state_reads_executor():
    svc, _ = _service_snapshot()
    assert breaker_state(svc.executor) == "closed"
    svc.executor._fault_streak = 1
    assert breaker_state(svc.executor) == "half_open"
    svc.executor._breaker_cooldown_left = 2
    assert breaker_state(svc.executor) == "open"


def test_snapshot_does_not_perturb_metrics():
    svc, _ = _service_snapshot()
    before = svc.metrics.summary("s")
    service_health(svc)
    service_health(svc)
    assert svc.metrics.summary("s") == before


def _cluster():
    slo = SloEngine(
        [SloSpec(name="all", latency_target_ms=80.0, objective=0.9)]
    )
    router = ClusterRouter(
        replicas=3,
        workers=2,
        seed=0,
        quotas={"t0": TenantQuota(rate_per_s=500, burst=4)},
        slo=slo,
    )
    trace = synthetic_trace(
        list(SIZES), SIZES, num_queries=48, seed=11, tenants=3,
    )
    router.replay(trace)
    return router, slo


def test_cluster_health_fields():
    router, slo = _cluster()
    snap = cluster_health(router, slo=slo)
    assert snap["kind"] == "cluster"
    assert len(snap["replicas"]) == 3
    assert {r["replica"] for r in snap["replicas"]} == {0, 1, 2}
    total_served = sum(r["served"] for r in snap["replicas"])
    assert total_served == len([o for o in router.outcomes() if o.served])
    assert "t0" in snap["quota"]
    q = snap["quota"]["t0"]
    assert q["burst"] == 4 and q["admitted"] + q["rejected"] > 0
    assert snap["counters"] == router.counters()
    assert snap["slo"][0]["slo"] == "all"


def test_render_and_json_export(tmp_path):
    router, slo = _cluster()
    snap = cluster_health(router, slo=slo)
    text = render_health(snap)
    assert "replica" in text and "tenant" in text and "slo all" in text
    out = tmp_path / "health.json"
    write_health(snap, out)
    loaded = json.loads(out.read_text())
    assert loaded["kind"] == "cluster"
    assert len(loaded["replicas"]) == 3
