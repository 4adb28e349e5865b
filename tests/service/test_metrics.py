"""Tests for service metrics: percentiles, summaries, rendering."""

import pytest

from repro.service.metrics import ServiceMetrics, percentile
from repro.service.request import Query, QueryOutcome


def outcome(qid, arrival, finish, *, edges=100, rejected=None, sharing=1.0):
    return QueryOutcome(
        query=Query(qid=qid, graph="g", source=0, arrival_ms=arrival),
        levels=None if rejected else [],
        start_ms=arrival,
        finish_ms=finish,
        sharing_factor=sharing,
        traversed_edges=edges,
        rejected=rejected,
    )


class TestPercentile:
    def test_empty(self):
        assert percentile([], 50) == 0.0

    def test_single(self):
        assert percentile([7.0], 99) == 7.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_endpoints(self):
        vals = [5.0, 1.0, 3.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 5.0

    def test_p95_of_uniform(self):
        vals = [float(i) for i in range(101)]
        assert percentile(vals, 95) == pytest.approx(95.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestServiceMetrics:
    def test_latency_and_gteps(self):
        m = ServiceMetrics()
        m.record_outcome(outcome(0, arrival=0.0, finish=10.0, edges=1_000_000))
        m.record_outcome(outcome(1, arrival=5.0, finish=25.0, edges=1_000_000))
        assert m.served == 2
        assert m.latencies_ms == [10.0, 20.0]
        assert m.makespan_ms == 25.0
        assert m.gteps == pytest.approx(2_000_000 / 0.025 / 1e9)

    def test_rejections_split_by_kind(self):
        m = ServiceMetrics()
        m.record_outcome(outcome(0, 0.0, 0.0, rejected="queue_full"))
        m.record_outcome(outcome(1, 0.0, 0.0, rejected="deadline"))
        assert m.rejected == 2
        assert m.rejected_queue_full == 1 and m.rejected_deadline == 1

    def test_unknown_rejection_kind(self):
        with pytest.raises(ValueError):
            ServiceMetrics().record_rejection("cosmic_rays")

    def test_batch_stats(self):
        m = ServiceMetrics()
        m.record_batch(4, 2.0)
        m.record_batch(1, 1.0)
        assert m.mean_batch_size == pytest.approx(2.5)
        assert m.mean_sharing_factor == pytest.approx(1.5)

    def test_empty_summary_is_clean(self):
        s = ServiceMetrics().summary("empty")
        assert s["queries_served"] == 0
        assert s["p99_ms"] == 0.0
        assert s["service_gteps"] == 0.0

    def test_summary_includes_registry(self):
        m = ServiceMetrics()
        m.record_outcome(outcome(0, 0.0, 1.0))
        s = m.summary("svc", registry_stats={"hit_rate": 0.75, "evictions": 2})
        assert s["cache_hit_rate"] == 0.75
        assert s["cache_evictions"] == 2

    def test_render_mentions_key_numbers(self):
        m = ServiceMetrics()
        m.record_outcome(outcome(0, 0.0, 4.0))
        m.record_batch(1, 1.0)
        text = m.render()
        assert "p50" in text and "GTEPS" in text and "rejected" in text
