"""Warm-up follows the device, not the engine object.

Each scheduler worker pays the first-launch warm-up on the first
traversal kernel it runs, and every single-GCD engine it runs after
that starts warm: engines rebuilt after an eviction, for another graph
or for a mutated version included. The pod pays one warm-up per
service. A launch that a fault aborts leaves its device cold.
"""

import pytest

from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.graph.delta import random_delta
from repro.service import BFSService, Query, QueryOptions
from tests.warmups import WARMUP_MS, extra_ms, spy_dispatches


def _serve(svc, *requests):
    """Serve each ``(graph, sources)`` request as its own dispatch,
    10 ms apart (the services here coalesce for 1 ms)."""
    qid = 0
    for i, (graph, sources) in enumerate(requests):
        for src in sources:
            svc.submit(Query(qid=qid, graph=graph, source=src, arrival_ms=10.0 * i))
            qid += 1
        svc.drain()


def _paid(seen):
    return [ms for _tier, _worker, ms in extra_ms(seen)]


def test_one_warmup_across_evictions(monkeypatch):
    # The budget holds one graph, so every dispatch misses and builds
    # a fresh engine; one worker pays one warm-up for all of them.
    seen = spy_dispatches(monkeypatch)
    svc = BFSService(workers=1, window_ms=1.0, memory_budget_mb=0.1)
    _serve(svc, ("rmat:10", [3]), ("rmat:9", [3]), ("rmat:10", [3, 5]),
           ("rmat:9", [1]), ("rmat:10", [7]))
    assert svc.registry.misses == 5 and svc.registry.evictions == 4
    assert [tier for tier, _w, _ms in extra_ms(seen)] == [
        "solo", "solo", "concurrent", "solo", "solo"]
    assert _paid(seen) == pytest.approx([WARMUP_MS, 0, 0, 0, 0], abs=1e-9)


def test_recompute_after_mutate_pays_none(monkeypatch):
    seen = spy_dispatches(monkeypatch)
    svc = BFSService(workers=1, window_ms=1.0)
    _serve(svc, ("rmat:10", [3]))
    base = svc.registry.get("rmat:10")[0].graph
    # Deletes decline repair: the next dispatch recomputes on a new
    # entry's engine.
    svc.submit(Query(qid=100, graph="rmat:10", source=0, arrival_ms=50.0,
                     op="mutate", delta=random_delta(base, num_deletes=4, seed=5)))
    svc.submit(Query(qid=101, graph="rmat:10", source=3, arrival_ms=60.0))
    svc.drain()
    assert [d.engine for *_, d in seen] == ["solo", "solo"]
    assert seen[1][1].version == 1
    assert _paid(seen) == pytest.approx([WARMUP_MS, 0], abs=1e-9)


def test_two_workers_pay_at_most_two(monkeypatch):
    seen = spy_dispatches(monkeypatch)
    svc = BFSService(workers=2, window_ms=1.0, memory_budget_mb=0.1)
    for i in range(4):
        # Two graphs at once: one dispatch on each worker, each on an
        # engine built for it.
        _serve_at(svc, 10.0 * i, ("rmat:9", 1 + i), ("rmat:10", 1 + i))
    svc.drain()
    paid = extra_ms(seen)
    assert [w for _t, w, _ms in paid] == [0, 1] * 4
    for worker in (0, 1):
        mine = [ms for _t, w, ms in paid if w == worker]
        assert mine == pytest.approx([WARMUP_MS, 0, 0, 0], abs=1e-9)


def test_warm_engine_on_a_cold_worker_pays(monkeypatch):
    # Two solo-only queries at once run one cached engine on both
    # workers: the warm-up belongs to the device, so worker 1 pays its
    # own on its first dispatch though the engine ran warm on worker 0.
    seen = spy_dispatches(monkeypatch)
    svc = BFSService(workers=2, window_ms=1.0)
    for i in range(3):
        _serve_at(svc, 10.0 * i, ("rmat:10", 1 + i), ("rmat:10", 1 + i),
                  options=QueryOptions(record_parents=True))
    svc.drain()
    paid = extra_ms(seen)
    assert [w for _t, w, _ms in paid][:2] == [0, 1]
    assert [ms for _t, _w, ms in paid] == pytest.approx(
        [WARMUP_MS, WARMUP_MS] + [0] * 4, abs=1e-9)


def _serve_at(svc, at_ms, *queries, **fields):
    for k, (graph, src) in enumerate(queries):
        svc.submit(Query(qid=int(at_ms) * 10 + k, graph=graph, source=src,
                         arrival_ms=at_ms, **fields))


def test_pod_serving_two_graphs_pays_one(monkeypatch):
    seen = spy_dispatches(monkeypatch)
    svc = BFSService(workers=2, window_ms=1.0, distributed_threshold_mb=0.0)
    _serve(svc, ("rmat:10", [3, 5]), ("rmat:9", [1, 2]), ("rmat:10", [7, 9]))
    assert [d.engine for *_, d in seen] == ["multigcd"] * 3
    assert _paid(seen) == pytest.approx([WARMUP_MS, 0, 0], abs=1e-9)


def test_aborted_launch_leaves_the_worker_cold(monkeypatch):
    # The first traversal kernel (the run's second launch, after its
    # status set-up) faults with no restart or retry left: the dispatch
    # falls back to the serial baseline, and the worker has booked no
    # traversal kernel, so the next dispatch pays the warm-up.
    seen = spy_dispatches(monkeypatch)
    plan = FaultPlan(seed=0, rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch", after=1, max_triggers=1),))
    svc = BFSService(workers=1, window_ms=1.0, fault_injector=plan.injector(),
                     recovery=RecoveryPolicy(max_level_restarts=0,
                                             max_dispatch_retries=0))
    _serve(svc, ("rmat:10", [3]), ("rmat:10", [5]), ("rmat:10", [7]))
    assert [d.engine for *_, d in seen] == ["serial", "solo", "solo"]
    assert _paid(seen) == pytest.approx([WARMUP_MS, 0], abs=1e-9)
