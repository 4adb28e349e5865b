"""Fault injection and recovery through the serving runtime."""

import numpy as np
import pytest

from repro.errors import RecoveryExhaustedError
from repro.faults import FaultPlan, FaultRule, RecoveryPolicy, levels_fingerprint
from repro.graph.stats import bfs_levels_reference
from repro.service import BFSService, Query, QueryOptions, synthetic_trace


def _service(fault_plan=None, recovery=None, **kw):
    kw.setdefault("memory_budget_mb", 64.0)
    kw.setdefault("scale_factor", 64)
    return BFSService(fault_plan=fault_plan, recovery=recovery, **kw)


def _trace(service, specs=("rmat:9",), n=24, seed=3, burst=4):
    sizes = {s: service.registry.get(s)[0].graph.num_vertices for s in specs}
    return synthetic_trace(list(specs), sizes, num_queries=n, seed=seed,
                          burst=burst)


@pytest.fixture(scope="module")
def baseline():
    svc = _service()
    trace = _trace(svc)
    report = _service().replay(trace)
    return trace, {
        o.query.qid: levels_fingerprint(o.levels) for o in report.served
    }


def _shared_match(report, expected):
    got = {o.query.qid: levels_fingerprint(o.levels) for o in report.served}
    shared = set(expected) & set(got)
    assert shared, "no overlap between faulted and baseline served sets"
    return [q for q in sorted(shared) if expected[q] != got[q]]


class TestServedAnswersStayIdentical:
    def test_device_faults_recovered(self, baseline):
        trace, expected = baseline
        plan = FaultPlan(seed=11, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.3, max_triggers=4),
        ))
        report = _service(fault_plan=plan).replay(trace)
        assert report.metrics.level_restarts > 0
        assert _shared_match(report, expected) == []

    def test_worker_faults_retry_then_recover(self, baseline):
        trace, expected = baseline
        plan = FaultPlan(seed=5, rules=(
            FaultRule(site="service.worker", kind="memory_corruption",
                      probability=1.0, max_triggers=2),
        ))
        report = _service(fault_plan=plan).replay(trace)
        assert report.metrics.retries >= 1
        assert len(report.metrics.recovery_ms) >= 1
        assert _shared_match(report, expected) == []

    def test_worker_latency_degrades_tail_not_answers(self, baseline):
        trace, expected = baseline
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="service.worker", kind="latency",
                      magnitude=10.0),
        ))
        clean = _service().replay(trace)
        slow = _service(fault_plan=plan).replay(trace)
        assert _shared_match(slow, expected) == []
        assert (slow.metrics.summary("s")["p95_ms"]
                > clean.metrics.summary("s")["p95_ms"])

    def test_deterministic_faulted_replay(self, baseline):
        trace, _ = baseline
        plan = FaultPlan(seed=13, rules=(
            FaultRule(site="gcd.*", kind="kernel_launch",
                      probability=0.25, max_triggers=6),
            FaultRule(site="service.worker", kind="latency",
                      probability=0.5, magnitude=3.0),
        ))
        a = _service(fault_plan=plan).replay(trace).summary("x")
        b = _service(fault_plan=plan).replay(trace).summary("x")
        assert a == b


class TestCircuitBreaker:
    def _hammer_plan(self):
        # Unbounded always-fire worker fault: every dispatch exhausts
        # its retries until the breaker opens.
        return FaultPlan(seed=0, rules=(
            FaultRule(site="service.worker", kind="kernel_launch"),
        ))

    def test_breaker_trips_then_serial_fallback(self, baseline):
        trace, expected = baseline
        recovery = RecoveryPolicy(max_dispatch_retries=1,
                                  breaker_threshold=2, breaker_cooldown=4)
        report = _service(
            fault_plan=self._hammer_plan(), recovery=recovery
        ).replay(trace)
        m = report.metrics
        assert m.breaker_trips >= 1
        assert m.fallbacks >= 1
        # The serial baseline serves the same levels, bit for bit.
        assert _shared_match(report, expected) == []
        assert m.served == len(trace)

    def test_fallback_disabled_raises_typed(self, baseline):
        trace, _ = baseline
        recovery = RecoveryPolicy(max_dispatch_retries=1,
                                  serial_fallback=False)
        svc = _service(fault_plan=self._hammer_plan(), recovery=recovery)
        with pytest.raises(RecoveryExhaustedError):
            for q in trace:
                svc.submit(q)
            svc.drain()

    def test_fallback_honours_max_levels(self):
        svc = _service(fault_plan=self._hammer_plan(),
                       recovery=RecoveryPolicy(max_dispatch_retries=0,
                                               breaker_threshold=1))
        entry, _ = svc.registry.get("rmat:9")
        graph = entry.graph
        source = int(np.argmax(graph.degrees))
        svc.submit(Query(qid="q0", graph="rmat:9", source=source,
                         arrival_ms=0.0,
                         options=QueryOptions(max_levels=1)))
        outcome = svc.drain()[-1]
        assert outcome.served
        expected = bfs_levels_reference(graph, source).copy()
        expected[expected > 1] = -1
        assert np.array_equal(outcome.levels, expected)


class TestControlPlaneFaults:
    def test_eviction_storm_degrades_hit_rate(self, baseline):
        trace, expected = baseline
        plan = FaultPlan(seed=2, rules=(
            FaultRule(site="service.registry", kind="evict_storm",
                      magnitude=4.0),
        ))
        clean = _service().replay(trace)
        stormy = _service(fault_plan=plan).replay(trace)
        assert stormy.registry_stats["evictions"] \
            > clean.registry_stats["evictions"]
        assert stormy.registry_stats["misses"] \
            >= clean.registry_stats["misses"]
        assert _shared_match(stormy, expected) == []

    def test_queue_pressure_sheds_typed_rejections(self):
        svc = _service(
            fault_plan=FaultPlan(seed=1, rules=(
                FaultRule(site="service.queue", kind="queue_pressure",
                          magnitude=1000.0),
            )),
            max_queue_depth=8,
        )
        trace = _trace(svc, n=16, burst=8)
        report = svc.replay(trace)
        m = report.metrics
        assert m.rejected_queue_full >= 1
        # Shed queries are recorded rejections, not lost answers.
        assert m.served + m.rejected == len(trace)

    def test_report_exposes_fault_stats(self, baseline):
        trace, _ = baseline
        plan = FaultPlan(seed=4, name="visible", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.5, max_triggers=2),
        ))
        report = _service(fault_plan=plan).replay(trace)
        assert report.fault_stats is not None
        assert report.fault_stats["plan"] == "visible"
        assert report.metrics.faults_injected \
            == report.fault_stats["faults_injected"]
        summary = report.summary()
        assert summary["faults_injected"] >= 1
        assert "recovery_p95_ms" in summary

    def test_no_plan_no_fault_surface(self, baseline):
        trace, _ = baseline
        report = _service().replay(trace)
        assert report.fault_stats is None
        assert report.metrics.faults_injected == 0
        assert "faults:" not in report.render()
