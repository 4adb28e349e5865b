"""Bounded-memory ServiceMetrics: the O(buckets) regression contract.

``ServiceMetrics(exact_percentiles=False)`` must hold *no* per-sample
state: a 50k-query stream leaves every latency list empty and the
sketches at their logarithmic bucket count, while the percentile
surface stays within the sketch's relative-accuracy band of the exact
(default-mode) numbers. The default mode keeps the exact lists, so
committed summaries stay byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service.metrics import ServiceMetrics, merge_latency_sketches
from repro.service.request import Query, QueryOutcome

NUM_QUERIES = 50_000


def _outcome(qid: int, latency: float, qos: str) -> QueryOutcome:
    q = Query(qid=qid, graph="g", source=0, arrival_ms=float(qid), qos=qos)
    return QueryOutcome(
        query=q,
        levels=np.zeros(1, dtype=np.int32),
        start_ms=float(qid),
        finish_ms=float(qid) + latency,
    )


def _drive(metrics: ServiceMetrics) -> None:
    for i in range(NUM_QUERIES):
        # Deterministic heavy-tailed latencies over ~4 decades.
        latency = 0.05 * (1.9 ** (i % 17)) + 0.001 * (i % 13)
        metrics.record_outcome(
            _outcome(i, latency, qos="interactive" if i % 3 else "batch")
        )
        if i % 5 == 0:
            metrics.record_recovery(latency * 0.1)


def test_bounded_mode_memory_is_o_buckets_over_50k_queries():
    bounded = ServiceMetrics(exact_percentiles=False)
    _drive(bounded)
    # No per-sample state anywhere.
    assert bounded.latencies_ms == []
    assert bounded.latencies_by_qos == {}
    assert bounded.recovery_ms == []
    assert bounded.served == NUM_QUERIES
    # The sketches hold the whole stream in a logarithmic bucket count.
    assert bounded.latency_sketch.count == NUM_QUERIES
    for sk in (
        bounded.latency_sketch,
        bounded.recovery_sketch,
        *bounded.sketch_by_qos.values(),
    ):
        assert sk.num_buckets < 1500  # O(buckets), not O(50k samples)


def test_bounded_percentiles_match_exact_within_accuracy():
    exact = ServiceMetrics()  # default: exact percentiles
    bounded = ServiceMetrics(exact_percentiles=False)
    _drive(exact)
    _drive(bounded)
    assert exact.latencies_ms  # the default mode still keeps the lists
    for q in (50, 90, 95, 99):
        e = exact.latency_percentile(q)
        b = bounded.latency_percentile(q)
        assert b == pytest.approx(e, rel=0.02)
    for qos in ("interactive", "batch"):
        e = exact.qos_latency_percentile(qos, 99)
        b = bounded.qos_latency_percentile(qos, 99)
        assert b == pytest.approx(e, rel=0.02)
    assert bounded.recovery_percentile(95) == pytest.approx(
        exact.recovery_percentile(95), rel=0.02
    )
    # Counter-derived aggregates are identical in both modes.
    bs, es = bounded.summary("m"), exact.summary("m")
    assert bs["queries_served"] == es["queries_served"]
    assert bs["mean_latency_ms"] == pytest.approx(es["mean_latency_ms"])


def test_cross_replica_sketch_merge():
    """Sketches merge across replicas: the cluster-wide percentile is
    the percentile of the union stream."""
    a = ServiceMetrics(exact_percentiles=False)
    b = ServiceMetrics(exact_percentiles=False)
    union = ServiceMetrics(exact_percentiles=False)
    for i in range(400):
        lat = 0.1 * (1.6 ** (i % 23))
        (a if i % 2 else b).record_outcome(_outcome(i, lat, "interactive"))
        union.record_outcome(_outcome(i, lat, "interactive"))
    merged = merge_latency_sketches([a, b])
    assert merged.count == union.latency_sketch.count
    for q in (50, 95, 99):
        assert merged.percentile(q) == union.latency_sketch.percentile(q)
