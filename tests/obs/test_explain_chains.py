"""The acceptance contract of the explain plane: for queries served by
each routed engine, the audit log reconstructs the full decision chain
— admission → placement → routing tier (with its footprint/threshold
inputs) → per-level direction (with the classifier signal values) →
exchange-codec format picks (where the engine has a wire) → outcome.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterRouter
from repro.obs import AuditLog
from repro.service.trace import synthetic_trace

GRAPH = "rmat:10"


def _run(audit: AuditLog, sources, **router_kwargs) -> ClusterRouter:
    router = ClusterRouter(
        replicas=2, workers=2, seed=0, audit=audit, **router_kwargs
    )
    router.submit_batch(GRAPH, sources, t_ms=0.0)
    router.drain()
    return router


def _stages_of(audit: AuditLog, qid: int) -> list:
    return [r.stage for r in audit.for_query(qid)]


def _assert_common_chain(audit: AuditLog, qid: int, engine: str) -> None:
    chain = audit.for_query(qid)
    stages = [r.stage for r in chain]
    # Ordered prefix: admission then placement then routing.
    assert stages[:3] == ["admission", "placement", "routing"]
    assert stages[-1] == "outcome"
    by_stage = {r.stage: r for r in chain}
    assert by_stage["admission"].decision == "admitted"
    assert by_stage["placement"].decision.startswith("replica")
    routing = by_stage["routing"]
    assert routing.decision == engine
    # The tier pick carries its inputs.
    assert routing.detail["footprint_bytes"] > 0
    assert by_stage["outcome"].decision == "served"
    assert by_stage["outcome"].detail["engine"] == engine
    # Rendered chain mentions every stage.
    text = audit.render_chain(qid)
    for stage in set(stages):
        assert f"[{stage:<9}]".rstrip() in text or stage in text


def _direction_records(audit: AuditLog, qid: int) -> list:
    return [r for r in audit.for_query(qid) if r.stage == "direction"]


def test_1d_distributed_chain():
    audit = AuditLog()
    _run(audit, [2, 6], distributed_threshold_mb=0.05, partition="1d")
    qid = audit.queries()[0]
    _assert_common_chain(audit, qid, "multigcd")
    routing = {r.stage: r for r in audit.for_query(qid)}["routing"]
    assert routing.detail["partition"] == "1d"
    assert routing.detail["distributed_threshold_bytes"] == int(0.05 * 1024 * 1024)
    dirs = _direction_records(audit, qid)
    assert dirs, "1D chain must carry per-level direction records"
    assert [r.detail["level"] for r in dirs] == list(range(len(dirs)))
    for r in dirs:
        assert r.decision in ("top_down", "bottom_up")
        assert "reason" in r.detail and "frontier" in r.detail


def test_2d_grid_chain_includes_codec():
    audit = AuditLog()
    _run(audit, [1, 5, 9], distributed_threshold_mb=0.05, partition="2d")
    # Pick a query whose run traversed more than one level.
    qid = max(
        audit.queries(), key=lambda q: len(_direction_records(audit, q))
    )
    _assert_common_chain(audit, qid, "grid2d")
    dirs = _direction_records(audit, qid)
    assert len(dirs) >= 2
    codecs = [r for r in audit.for_query(qid) if r.stage == "codec"]
    assert codecs, "the 2D engine's wire picks must appear as codec records"
    for r in codecs:
        # decision is the per-level format tally, e.g. "sparse:8" or
        # "bitmap:4 sparse:4".
        assert any(fmt in r.decision for fmt in ("sparse", "bitmap"))
        assert r.detail["comm_bytes"] >= 0
        assert "level" in r.detail


def test_linalg_batch_chain_carries_classifier_signals():
    audit = AuditLog()
    _run(audit, list(range(8)), linalg_batch_threshold=4)
    qid = audit.queries()[0]
    _assert_common_chain(audit, qid, "linalg_batch")
    routing = {r.stage: r for r in audit.for_query(qid)}["routing"]
    assert routing.detail["linalg_batch_threshold"] == 4
    assert routing.detail["batch"] == 8
    dirs = _direction_records(audit, qid)
    assert len(dirs) >= 2
    for r in dirs:
        # The raw classifier signals behind each per-level switch.
        assert {"ratio", "alpha", "frontier_size", "growth"} <= set(r.detail)
        assert "reason" in r.detail


def test_solo_chain_has_strategy_decisions():
    audit = AuditLog()
    _run(audit, [3])
    qid = audit.queries()[0]
    _assert_common_chain(audit, qid, "solo")
    dirs = _direction_records(audit, qid)
    assert dirs
    assert {r.decision for r in dirs} <= {"scan_free", "single_scan", "bottom_up"}


def test_steal_and_quota_stages_appear_when_triggered():
    from repro.cluster import TenantQuota

    audit = AuditLog()
    sizes = {"rmat:9": 512, "rmat:10": 1024}
    router = ClusterRouter(
        replicas=2,
        workers=1,
        seed=0,
        steal_threshold=1,
        quotas={"t0": TenantQuota(rate_per_s=200, burst=2)},
        audit=audit,
    )
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=64, seed=3, tenants=2,
    )
    router.replay(trace)
    stages = {r.stage for r in audit.records}
    if router.counters()["steals"]:
        assert "steal" in stages
    quota_rejects = [
        r for r in audit.records
        if r.stage == "admission" and r.decision == "rejected:quota"
    ]
    rejected_quota = sum(
        1 for o in router.outcomes() if o.rejected == "quota"
    )
    assert len(quota_rejects) == rejected_quota
    if rejected_quota == 0:
        pytest.skip("trace produced no quota rejections to audit")
