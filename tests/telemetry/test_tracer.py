"""Unit tests for repro.telemetry.tracer: rebasing, ids, sampling,
exception safety.

A fake host clock makes the wall-clock side exact; everything on the
virtual side is deterministic by construction.
"""

import pytest

from repro.errors import RecoveryExhaustedError
from repro.faults import FaultPlan, FaultRule
from repro.graph.generators import rmat
from repro.telemetry import NULL_TRACER, Tracer
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS


class FakeClock:
    """Deterministic perf_counter stand-in; advances only on demand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def tracer():
    clock = FakeClock()
    t = Tracer(host_clock=clock)
    t.clock = clock  # test-side handle
    return t


# ----------------------------------------------------------------------
# Span mechanics
# ----------------------------------------------------------------------
class TestSpans:
    def test_top_level_span_starts_a_trace(self, tracer):
        with tracer.span("a"):
            assert tracer.open_depth == 1
        assert tracer.open_depth == 0
        assert tracer.traces == 1
        (span,) = tracer.spans
        assert span.trace_id == "t1"
        assert span.parent_id is None
        assert span.status == "ok"

    def test_span_ids_are_sequential_and_parented(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        # Records land in close order; ids were assigned in open order.
        ids = sorted(s.span_id for s in tracer.spans)
        assert ids == list(range(1, len(ids) + 1))

    def test_clock_rebases_onto_enclosing_timeline(self, tracer):
        local = FakeClock()
        local.now = 50.0  # local clocks need not start at zero
        with tracer.span("dispatch", at=120.0):
            with tracer.span("run", clock=local):
                local.tick(0.3)
            with tracer.span("run2", clock=local):
                local.tick(0.2)
        run, run2, dispatch = tracer.spans
        assert run.virtual_start_ms == pytest.approx(120.0)
        assert run.virtual_end_ms == pytest.approx(120.3)
        # Closing the first child advanced the parent cursor.
        assert run2.virtual_start_ms == pytest.approx(120.3)
        assert run2.virtual_end_ms == pytest.approx(120.5)
        assert dispatch.virtual_end_ms == pytest.approx(120.5)

    def test_complete_advances_the_cursor(self, tracer):
        with tracer.span("run", at=10.0):
            tracer.complete("kernel:a", duration_ms=2.0)
            tracer.complete("kernel:b", duration_ms=3.0)
        a, b, run = tracer.spans
        assert (a.virtual_start_ms, a.virtual_end_ms) == (10.0, 12.0)
        assert (b.virtual_start_ms, b.virtual_end_ms) == (12.0, 15.0)
        assert run.virtual_end_ms == 15.0

    def test_end_at_pins_the_virtual_end(self, tracer):
        with tracer.span("dispatch", at=5.0) as sp:
            sp.advance_to(7.5)
            sp.end_at(9.0)
        (span,) = tracer.spans
        assert span.virtual_start_ms == 5.0
        assert span.virtual_end_ms == 9.0

    def test_host_clock_is_recorded(self, tracer):
        with tracer.span("a"):
            tracer.clock.tick(0.25)
        (span,) = tracer.spans
        assert span.host_s == pytest.approx(0.25)

    def test_set_attaches_attributes(self, tracer):
        with tracer.span("a", x=1) as sp:
            sp.set(y=2)
        (span,) = tracer.spans
        assert span.attrs == {"x": 1, "y": 2}

    def test_events_inherit_scope_and_time(self, tracer):
        with tracer.span("run", at=100.0) as sp:
            tracer.complete("kernel:a", duration_ms=4.0)
            tracer.event("fault.latency", site="gcd.launch")
            assert sp.now() == pytest.approx(104.0)
        (event,) = tracer.events
        assert event.virtual_ms == pytest.approx(104.0)
        assert event.trace_id == "t1"
        assert event.attrs["site"] == "gcd.launch"

    def test_reset_refuses_open_spans(self, tracer):
        with tracer.span("a"):
            with pytest.raises(RuntimeError):
                tracer.reset()
        tracer.reset()
        assert tracer.spans == [] and tracer.traces == 0


# ----------------------------------------------------------------------
# Exception safety
# ----------------------------------------------------------------------
class TestExceptionSafety:
    def test_raising_body_closes_spans_with_error(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise ValueError("boom")
        assert tracer.open_depth == 0
        inner, outer = tracer.spans
        assert inner.status == "error" and outer.status == "error"
        assert inner.attrs["error"] == "ValueError"

    @pytest.mark.parametrize("engine, detail", [
        (XBFS, "expand"),
        (ConcurrentBFS, "cb_expand"),
        (LinAlgBatchBFS, "lab_"),
    ], ids=["XBFS", "ConcurrentBFS", "LinAlgBatchBFS"])
    def test_exhausted_recovery_unwinds_the_engine_spans(
        self, tracer, engine, detail
    ):
        """A fault storm the level-replay layer cannot absorb must leave
        the tracer stack empty, with the level span closed as error."""
        # Fault only the traversal's level kernels (the detail filter
        # skips XBFS's setup kernel) so the failure surfaces inside a
        # level span.
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=1.0, detail=detail),
        ))
        bfs = engine(rmat(9, 8, seed=0), injector=plan.injector(),
                     tracer=tracer)
        with pytest.raises(RecoveryExhaustedError):
            bfs.run(0)
        assert tracer.open_depth == 0
        errored = [s for s in tracer.spans if s.status == "error"]
        assert {"bfs.level", "bfs.run"} <= {s.name for s in errored}

    def test_tracer_usable_after_engine_failure(self, tracer):
        plan = FaultPlan(seed=7, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=1.0),
        ))
        engine = XBFS(rmat(9, 8, seed=0), injector=plan.injector(),
                      tracer=tracer)
        with pytest.raises(RecoveryExhaustedError):
            engine.run(0)
        clean = XBFS(rmat(9, 8, seed=0), tracer=tracer)
        result = clean.run(0)
        assert result.depth > 0
        assert tracer.open_depth == 0
        assert tracer.spans[-1].name == "bfs.run"
        assert tracer.spans[-1].status == "ok"


# ----------------------------------------------------------------------
# The disabled path
# ----------------------------------------------------------------------
class TestSampling:
    def test_null_tracer_is_inert(self):
        scope = NULL_TRACER.span("a", x=1)
        with scope as sp:
            sp.set(y=2)
            sp.advance_to(10.0)
            sp.end_at(20.0)
        NULL_TRACER.event("e")
        NULL_TRACER.complete("c", duration_ms=1.0)
        assert NULL_TRACER.spans == []
        assert NULL_TRACER.events == []
        assert NULL_TRACER.traces == 0
        assert not NULL_TRACER.enabled

    def test_disabled_tracer_shares_one_scope_object(self):
        t = Tracer(enabled=False)
        assert t.span("a") is t.span("b")


# ----------------------------------------------------------------------
# Determinism and correlation
# ----------------------------------------------------------------------
class TestDeterminism:
    def _trace_of_run(self):
        tracer = Tracer()
        XBFS(rmat(10, 8, seed=3), tracer=tracer).run(0)
        return [
            (s.trace_id, s.span_id, s.parent_id, s.name,
             s.virtual_start_ms, s.virtual_end_ms)
            for s in tracer.spans
        ]

    def test_identical_runs_produce_identical_ids_and_times(self):
        assert self._trace_of_run() == self._trace_of_run()

    def test_tracing_never_changes_the_answer(self):
        import numpy as np

        graph = rmat(10, 8, seed=3)
        traced = XBFS(graph, tracer=Tracer()).run(0)
        plain = XBFS(graph).run(0)
        assert np.array_equal(traced.levels, plain.levels)
        assert traced.elapsed_ms == plain.elapsed_ms

    def test_level_correlation_rows(self):
        tracer = Tracer()
        engine = XBFS(rmat(10, 8, seed=3), tracer=tracer)
        result = engine.run(0)
        rows = tracer.level_correlation()
        assert [r["level"] for r in rows] == list(range(result.depth))
        assert sum(r["virtual_ms"] for r in rows) <= result.elapsed_ms
        for r in rows:
            assert r["strategy"] in ("scan_free", "single_scan", "bottom_up")
            assert r["host_ms"] >= 0.0

    def test_level_correlation_defaults_to_last_trace(self):
        tracer = Tracer()
        engine = XBFS(rmat(10, 8, seed=3), tracer=tracer)
        engine.run(0)
        engine.run(1)
        rows = tracer.level_correlation()
        last = tracer.spans[-1].trace_id
        assert all(
            s.trace_id == last
            for s in tracer.spans_named("bfs.level", trace_id=last)
        )
        assert rows == tracer.level_correlation(trace_id=last)
