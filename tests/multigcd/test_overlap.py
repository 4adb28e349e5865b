"""Overlap-accounting invariants.

``overlap=True`` charges each top-down level's exchange and expand to
overlapping virtual-time intervals. That is pure *accounting*: the
kernel launch stream must be byte-identical with the flag on or off,
and the books must balance exactly —
``elapsed + overlap_saved == non_overlapped_elapsed``. Single-source
runs are one-source batches (``run_batch([SOURCE])``).
"""

import numpy as np
import pytest

from repro.graph.generators import chung_lu_power_law, rmat
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.telemetry.tracer import Tracer
from tests.invariants import check_overlap_books, check_pod_books

GRAPH = rmat(10, 8, seed=42)
# Vertex 0 of this seed is isolated; 579 reaches most of the graph.
SOURCE = 579


def pair(engine_cls, **kw):
    """The same machine with overlap accounting off and on."""
    base = engine_cls(GRAPH, 4, **kw)
    over = engine_cls(GRAPH, 4, overlap=True, **kw)
    return base.run_batch([SOURCE]), over.run_batch([SOURCE])


class TestBooksBalance:
    @pytest.mark.parametrize("engine_cls", [MultiGcdBFS, Grid2dBFS])
    @pytest.mark.parametrize(
        "kw", [{}, {"codec": True}], ids=["naive", "codec"]
    )
    def test_elapsed_plus_saved_is_baseline(self, engine_cls, kw):
        base, over = pair(engine_cls, **kw)
        assert over.overlap_saved_ms > 0
        assert over.elapsed_ms < base.elapsed_ms
        check_overlap_books(base, over)

    @pytest.mark.parametrize("engine_cls", [MultiGcdBFS, Grid2dBFS])
    def test_elapsed_bounds(self, engine_cls):
        _, over = pair(engine_cls, codec=True)
        # Hidden latency can't beat the larger of the two pools, and
        # accounting never goes below it. Both pools stay on the clock
        # apart from the hidden part, with each level's sync on top.
        check_pod_books(over)

    @pytest.mark.parametrize("engine_cls", [MultiGcdBFS, Grid2dBFS])
    def test_batch_books_balance(self, engine_cls):
        sources = np.array([SOURCE, 3, 17])
        base = engine_cls(GRAPH, 4, codec=True).run_batch(sources)
        over = engine_cls(GRAPH, 4, codec=True, overlap=True).run_batch(sources)
        assert over.overlap_saved_ms > 0
        check_overlap_books(base, over)


class TestPerLevelSpans:
    def _level_spans(self, engine_cls, **kw):
        tracer = Tracer()
        engine_cls(GRAPH, 4, tracer=tracer, overlap=True, **kw).run_batch([SOURCE])
        return tracer.spans_named("dist.level")

    @pytest.mark.parametrize("engine_cls", [MultiGcdBFS, Grid2dBFS])
    def test_level_duration_dominates_both_pools(self, engine_cls):
        spans = self._level_spans(engine_cls, codec=True)
        assert spans
        for s in spans:
            a = s.attrs
            assert s.virtual_ms >= a["comm_ms"] - 1e-12
            assert s.virtual_ms >= a["kernel_ms"] - 1e-12
            saved = a["overlap_saved_ms"]
            assert 0 <= saved <= min(a["kernel_ms"], a["comm_ms"]) + 1e-12

    def test_bottom_up_levels_stay_sequential(self):
        """The allgather is a data dependency of the bottom-up scan,
        so direction-switched levels never report hidden latency."""
        tracer = Tracer()
        MultiGcdBFS(
            GRAPH, 4, direction_alpha=0.05, overlap=True, tracer=tracer
        ).run_batch([SOURCE])
        spans = tracer.spans_named("dist.level")
        bu = [s for s in spans if s.attrs["direction"] == "bottom_up"]
        td = [s for s in spans if s.attrs["direction"] == "top_down"]
        assert bu and td
        for s in bu:
            assert s.attrs["overlap_saved_ms"] == 0.0
            assert s.virtual_ms == pytest.approx(
                s.attrs["kernel_ms"] + s.attrs["comm_ms"]
            )
        assert any(s.attrs["overlap_saved_ms"] > 0 for s in td)

    def test_span_attrs_unchanged_without_flags(self):
        """Feature-gated keys must not leak into default-config traces
        (the chrome-trace fingerprint depends on it)."""
        tracer = Tracer()
        MultiGcdBFS(GRAPH, 4, tracer=tracer).run_batch([SOURCE])
        for s in tracer.spans_named("dist.level"):
            assert "overlap_saved_ms" not in s.attrs
            assert "comm_raw_bytes" not in s.attrs


class TestLaunchStreamUnchanged:
    @pytest.mark.parametrize("engine_cls", [MultiGcdBFS, Grid2dBFS])
    def test_identical_kernel_records(self, engine_cls):
        base = engine_cls(GRAPH, 4, codec=True)
        over = engine_cls(GRAPH, 4, codec=True, overlap=True)
        base.run_batch([SOURCE])
        over.run_batch([SOURCE])
        base_gcds, over_gcds = base._gcds, over._gcds
        assert base_gcds is not None and over_gcds is not None
        assert len(base_gcds) == len(over_gcds)
        for b, o in zip(base_gcds, over_gcds):
            assert b.launches == o.launches
            assert b.elapsed_ms == o.elapsed_ms
            assert b.profiler.records == o.profiler.records

    def test_overlap_orthogonal_to_graph(self):
        g = chung_lu_power_law(1500, 10, seed=7)
        base = MultiGcdBFS(g, 4).run_batch([0])
        over = MultiGcdBFS(g, 4, overlap=True).run_batch([0])
        check_overlap_books(base, over)
