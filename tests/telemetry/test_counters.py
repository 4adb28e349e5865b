"""Unit tests for repro.telemetry.counters: adapters, namespacing,
the correlation table."""

import pytest

from repro.gcd.simulator import GCD
from repro.gcd.memory import seq_read
from repro.graph.generators import rmat
from repro.service.metrics import ServiceMetrics
from repro.service.request import Query, QueryOutcome
from repro.telemetry import CounterRegistry, Tracer
from repro.xbfs.driver import XBFS


def _one_launch_gcd() -> GCD:
    gcd = GCD()
    gcd.launch(
        "probe",
        strategy="scan_free",
        level=0,
        streams=[seq_read("status", 1024, 4)],
        work_items=1024,
    )
    return gcd


# ----------------------------------------------------------------------
# Adapters
# ----------------------------------------------------------------------
class TestAdapters:
    def test_gcd_profiler_counters(self):
        gcd = _one_launch_gcd()
        reg = CounterRegistry()
        reg.attach("gcd", gcd.profiler)
        snap = reg.snapshot()
        assert snap["gcd.kernels"] == 1
        assert snap["gcd.total_runtime_ms"] == pytest.approx(
            gcd.profiler.total_runtime_ms
        )
        assert snap["gcd.kernel.probe.runtime_ms"] > 0
        assert snap["gcd.level.0.kernels"] == 1

    def test_service_metrics_counters(self):
        metrics = ServiceMetrics()
        metrics.record_batch(4, 2.0)
        metrics.retries += 1
        metrics.record_outcome(QueryOutcome(
            query=Query(qid=0, graph="g", source=0, arrival_ms=0.0,
                        tenant="acme"),
            levels=None,
            rejected="deadline",
        ))
        reg = CounterRegistry()
        reg.attach("service", metrics)
        snap = reg.snapshot()
        assert snap["service.dispatches"] == 1
        assert snap["service.mean_batch_size"] == 4.0
        assert snap["service.retries"] == 1
        # Nested sections flatten under dotted names.
        assert snap["service.per_tenant.acme.rejected"] == 1
        # The summary's name string is not a counter.
        assert "service.name" not in snap

    def test_tracer_counters(self):
        tracer = Tracer()
        with tracer.span("a"):
            tracer.event("fault.latency")
            tracer.event("fault.latency")
        reg = CounterRegistry()
        reg.attach_tracer(tracer)
        snap = reg.snapshot()
        assert snap["trace.traces"] == 1
        assert snap["trace.spans"] == 1
        assert snap["trace.events"] == 2
        assert snap["trace.open_spans"] == 0
        assert snap["trace.event.fault.latency"] == 2

    def test_callable_source(self):
        reg = CounterRegistry()
        reg.attach("app", lambda: {"requests": 7})
        assert reg.snapshot() == {"app.requests": 7}

    def test_unknown_source_is_a_type_error(self):
        reg = CounterRegistry()
        with pytest.raises(TypeError):
            reg.attach("bad", object())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_namespaces_sorted_and_unique(self):
        reg = CounterRegistry()
        reg.attach("b", lambda: {"x": 1})
        reg.attach("a", lambda: {"y": 2})
        assert reg.namespaces() == ["a", "b"]
        with pytest.raises(ValueError):
            reg.attach("a", lambda: {})

    def test_namespace_validation(self):
        reg = CounterRegistry()
        with pytest.raises(ValueError):
            reg.attach("", lambda: {})
        with pytest.raises(ValueError):
            reg.attach("a.b", lambda: {})

    def test_read_and_names(self):
        reg = CounterRegistry()
        reg.attach("app", lambda: {"requests": 7, "errors": 0})
        assert reg.read("app.requests") == 7
        assert reg.names() == ["app.errors", "app.requests"]
        with pytest.raises(KeyError):
            reg.read("nope.requests")
        with pytest.raises(KeyError):
            reg.read("app.nope")

    def test_snapshot_is_live(self):
        state = {"n": 0}
        reg = CounterRegistry()
        reg.attach("app", lambda: dict(state))
        assert reg.snapshot() == {"app.n": 0}
        state["n"] = 5
        assert reg.snapshot() == {"app.n": 5}


# ----------------------------------------------------------------------
# Correlation table
# ----------------------------------------------------------------------
class TestCorrelation:
    def test_empty_without_tracer(self):
        reg = CounterRegistry()
        assert reg.level_correlation() == []
        assert "no level spans" in reg.render_correlation()

    def test_rows_come_from_the_attached_tracer(self):
        tracer = Tracer()
        result = XBFS(rmat(10, 8, seed=0), tracer=tracer).run(0)
        reg = CounterRegistry()
        reg.attach_tracer(tracer)
        rows = reg.level_correlation()
        assert [r["level"] for r in rows] == list(range(result.depth))
        table = reg.render_correlation()
        assert "virtual ms" in table and "host ms" in table
        assert len(table.splitlines()) == result.depth + 1
