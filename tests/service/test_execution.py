"""The executor's one dispatch path, held to one contract per tier.

Every engine name :meth:`ExecutionEngine.run
<repro.service.execution.ExecutionEngine.run>` can return is driven
through the serving runtime and checked the same way: the name it
returns, levels bit-identical to the serial oracle on the graph version
the answer was served against, and exactly one audit record per live
query naming the tier. The direction-audit cases pin that every live
query gets the per-level decisions of the run that answered it.
"""

import json
import zlib

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.graph.csr import CSRGraph
from repro.graph.delta import random_delta
from repro.graph.stats import bfs_levels_reference
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.obs import AuditLog
from repro.service import ENGINE_NAMES, BFSService, Query
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS

SPEC = "rmat:10"
#: Four distinct sources: one coalesced batch dispatch.
BATCH = (1, 2, 3, 4)
#: Three queries sharing one source: one solo dispatch.
SHARED = (7, 7, 7)


def _submit(svc, sources, *, at_ms=0.0, first_qid=0):
    qids = list(range(first_qid, first_qid + len(sources)))
    for qid, src in zip(qids, sources):
        svc.submit(Query(qid=qid, graph=SPEC, source=src, arrival_ms=at_ms))
    return qids


def _dispatch(sources, **kw):
    """One dispatch of ``sources``; returns (service, audit, its qids)."""
    audit = AuditLog()
    svc = BFSService(audit=audit, seed=0, **kw)
    return svc, audit, _submit(svc, sources)


def _repair(**kw):
    # A solo run leaves a level basis; a small insert-only delta then
    # lets the next dispatch from that source re-relax it.
    svc, audit, _ = _dispatch((7,), **kw)
    svc.drain()
    base = svc.registry.get(SPEC)[0].graph
    svc.submit(Query(qid=1, graph=SPEC, source=0, arrival_ms=100.0, op="mutate",
                     delta=random_delta(base, num_inserts=3, seed=11)))
    return svc, audit, _submit(svc, (7, 7), at_ms=101.0, first_qid=2)


def _serial(first=BATCH, **kw):
    # Every worker visit faults and nothing is retried: the first
    # dispatch exhausts its retries, the second finds the breaker open.
    plan = FaultPlan(seed=0, rules=(FaultRule(site="service.worker", kind="kernel_launch"),))
    recovery = RecoveryPolicy(max_dispatch_retries=0, breaker_threshold=1, breaker_cooldown=4)
    svc, audit, qids = _dispatch(first, fault_injector=plan.injector(), recovery=recovery, **kw)
    return svc, audit, qids + _submit(svc, (5, 6), at_ms=100.0, first_qid=len(qids))


#: Engine name -> a scenario whose probe queries it serves.
SCENARIOS = {
    "solo": lambda **kw: _dispatch(SHARED, **kw),
    "concurrent": lambda **kw: _dispatch(BATCH, **kw),
    "linalg_batch": lambda **kw: _dispatch(BATCH, linalg_batch_threshold=4, **kw),
    "multigcd": lambda **kw: _dispatch(BATCH, distributed_threshold_mb=0.0, **kw),
    "grid2d": lambda **kw: _dispatch(
        BATCH, distributed_threshold_mb=0.0, partition="2d", **kw
    ),
    "repair": _repair,
    "serial": _serial,
}

#: The engines that replay faulted levels, with the entry point the
#: executor calls on each.
CHECKPOINTING = {
    "solo": (XBFS, "run"),
    "concurrent": (ConcurrentBFS, "run"),
    "linalg_batch": (LinAlgBatchBFS, "run"),
    "multigcd": (MultiGcdBFS, "run_batch"),
    "grid2d": (Grid2dBFS, "run_batch"),
}


def _spy_runs(monkeypatch, cls, attr):
    """Record every result ``cls.<attr>`` returns."""
    results = []
    original = getattr(cls, attr)

    def run(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(cls, attr, run)
    return results


def test_every_engine_name_has_a_scenario():
    assert set(SCENARIOS) == set(ENGINE_NAMES)


@pytest.mark.parametrize("tier", ENGINE_NAMES)
def test_tier_contract(tier):
    svc, audit, qids = SCENARIOS[tier]()
    outcomes = {o.query.qid: o for o in svc.drain()}
    for qid in qids:
        out = outcomes[qid]
        assert out.engine == tier
        graph = svc.registry.graph_at_version(SPEC, out.graph_version)
        assert np.array_equal(out.levels, bfs_levels_reference(graph, out.query.source))
        chain = audit.for_query(qid)
        routing = [r.decision for r in chain if r.stage == "routing"]
        if tier == "repair":
            # The repair tier answers before any engine is picked: its
            # one tier record is the ``repair`` stage's.
            assert routing == []
            assert [r.decision for r in chain if r.stage == "repair"] == ["repair"]
        else:
            assert routing == [tier]


@pytest.mark.parametrize("tier", sorted(CHECKPOINTING))
def test_level_restarts_match_engine_results(tier, monkeypatch):
    results = _spy_runs(monkeypatch, *CHECKPOINTING[tier])
    plan = FaultPlan(seed=1, rules=(
        FaultRule(site="gcd.sync", kind="memory_corruption", probability=0.2,
                  max_triggers=4),
    ))
    svc, _, qids = SCENARIOS[tier](fault_injector=plan.injector())
    outcomes = {o.query.qid: o for o in svc.drain()}
    assert {outcomes[q].engine for q in qids} == {tier}
    restarts = sum(r.level_restarts for r in results)
    assert restarts > 0
    assert svc.metrics.level_restarts == restarts


#: Tier -> a scenario whose first dispatch serves two queries from one
#: source, ``(7, 7)``.
DUPLICATE_SOURCE = {
    "solo": lambda: _dispatch((7, 7)),
    "multigcd": lambda: _dispatch((7, 7), distributed_threshold_mb=0.0),
    "repair": _repair,
    "serial": lambda: _serial(first=(7, 7)),
}


@pytest.mark.parametrize("tier", sorted(DUPLICATE_SOURCE))
def test_duplicate_source_sharing_matches_across_tiers(tier):
    # Every tier measures sharing over distinct sources: two queries
    # answered by one traversal (or one repair) of one source share
    # nothing beyond what a solo run does.
    svc, _, qids = DUPLICATE_SOURCE[tier]()
    outcomes = {o.query.qid: o for o in svc.drain()}
    first = [outcomes[q] for q in qids if outcomes[q].query.source == 7]
    assert len(first) == 2
    assert {o.engine for o in first} == {tier}
    assert [o.sharing_factor for o in first] == [1.0, 1.0]


@pytest.mark.parametrize("partition, tier", [("1d", "concurrent"), ("2d", "grid2d")])
def test_pod_routing_needs_a_vertex_per_gcd(partition, tier):
    # Three vertices, four GCDs: the 1D partition cannot give every GCD
    # a vertex, so the batch stays on one GCD; the grid serves it.
    graph = CSRGraph.from_edges(np.array([0, 1]), np.array([1, 2]), 3, symmetrize=True)
    svc = BFSService(builder={"tiny": graph}.__getitem__,
                     memory_budget_mb=1, num_gcds=4,
                     distributed_threshold_mb=0.0, partition=partition)
    for qid in range(3):
        svc.submit(Query(qid=qid, graph="tiny", source=qid, arrival_ms=0.0))
    outcomes = svc.drain()
    assert [o.engine for o in outcomes] == [tier] * 3
    for o in outcomes:
        assert np.array_equal(o.levels, bfs_levels_reference(graph, o.query.source))


class TestDirectionAudit:
    """Shared level loops audit each level's decision for every live
    query, level-major: the concurrent batch and the duplicate-source
    solo dispatch (``SHARED``) included."""

    @pytest.mark.parametrize("tier", sorted(CHECKPOINTING))
    def test_every_live_query_gets_its_runs_decisions(self, tier, monkeypatch):
        results = _spy_runs(monkeypatch, *CHECKPOINTING[tier])
        svc, audit, qids = SCENARIOS[tier]()
        svc.drain()
        (result,) = results
        strategies = [d.strategy for d in result.decisions]
        assert strategies
        got = [(r.detail["level"], r.qid, r.decision)
               for r in audit.records if r.stage == "direction"]
        assert got == [(level, qid, s)
                       for level, s in enumerate(strategies) for qid in qids]


def _stream_crc(audit) -> int:
    """CRC-32 of a full audit stream: each record's stage, qid,
    decision, ``at_ms`` and sorted detail, in append order."""
    crc = 0
    for r in audit.records:
        line = json.dumps([r.stage, r.qid, r.decision, r.at_ms, r.detail],
                          sort_keys=True, default=lambda v: v.item())
        crc = zlib.crc32(line.encode() + b"\n", crc)
    return crc


#: Scenario -> CRC-32 of its full audit stream. Any change to a tier's
#: records, their order or their detail fails here. ``solo`` is the
#: shared-source dispatch (``SHARED``); ``solo_single`` is one query on
#: its own.
AUDIT_STREAM_CRC = {
    "solo_single": 4020160044,
    "solo": 3226017865,
    "concurrent": 1434615996,
    "linalg_batch": 3920881180,
    "multigcd": 3055126233,
    "grid2d": 974993448,
    "repair": 4235518290,
    "serial": 3216692618,
}


@pytest.mark.parametrize("name", sorted(AUDIT_STREAM_CRC))
def test_audit_stream_is_pinned(name):
    scenario = (lambda: _dispatch((5,))) if name == "solo_single" else SCENARIOS[name]
    svc, audit, _ = scenario()
    svc.drain()
    assert _stream_crc(audit) == AUDIT_STREAM_CRC[name]
