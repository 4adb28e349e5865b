"""Property-style end-to-end tests for the serving runtime.

The load-bearing guarantee: levels returned through the service —
whether coalesced into a ConcurrentBFS batch, run solo, or re-served
after a cache eviction rebuilt the graph — are bit-identical to a solo
``XBFS.run`` from the same source.
"""

import numpy as np
import pytest

from repro.errors import QueueFullError
from repro.graph.generators import rmat
from repro.service import (
    BFSService,
    Query,
    QueryOptions,
    synthetic_trace,
)
from repro.xbfs.driver import XBFS

SPECS = ("8", "9", "10")


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


GRAPHS = {spec: _builder(spec) for spec in SPECS}


@pytest.fixture(scope="module")
def xbfs_oracle():
    """Solo-XBFS level arrays, memoised per (spec, source)."""
    engines = {spec: XBFS(g) for spec, g in GRAPHS.items()}
    cache: dict[tuple[str, int], np.ndarray] = {}

    def oracle(spec: str, source: int) -> np.ndarray:
        key = (spec, source)
        if key not in cache:
            cache[key] = engines[spec].run(source).levels
        return cache[key]

    return oracle


def make_service(*, budget_bytes=1 << 30, **kwargs) -> BFSService:
    return BFSService(builder=_builder, memory_budget_mb=budget_bytes / 2**20,
                      **kwargs)


def mixed_trace(num_queries: int, seed: int) -> list[Query]:
    """Random mixed workload: same-graph bursts, a few solo-only
    (forced-strategy) queries, sources from a small pool so the oracle
    cache stays warm."""
    rng = np.random.default_rng(seed)
    queries: list[Query] = []
    t = 0.0
    while len(queries) < num_queries:
        spec = SPECS[int(rng.integers(len(SPECS)))]
        size = min(int(rng.integers(1, 7)), num_queries - len(queries))
        for _ in range(size):
            options = QueryOptions()
            if rng.random() < 0.1:
                options = QueryOptions(force_strategy="single_scan")
            queries.append(
                Query(
                    qid=len(queries),
                    graph=spec,
                    source=int(rng.integers(16)),
                    arrival_ms=t,
                    options=options,
                )
            )
        t += float(rng.exponential(2.0))
    return queries


class TestBitIdenticalLevels:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_trace_matches_solo_xbfs(self, xbfs_oracle, seed):
        service = make_service(workers=2, window_ms=5.0)
        report = service.replay(mixed_trace(40, seed))
        assert len(report.served) == 40
        assert any(o.batched for o in report.served)
        assert any(not o.batched for o in report.served)
        for o in report.served:
            expected = xbfs_oracle(o.query.graph, o.query.source)
            assert np.array_equal(o.levels, expected), (
                f"query {o.query.qid} ({o.query.graph}, "
                f"source {o.query.source}) diverged from solo XBFS"
            )

    def test_matches_under_cache_eviction(self, xbfs_oracle):
        # Budget fits roughly one graph: every graph switch evicts and
        # rebuilds, so served levels must survive reconstruction.
        budget = int(max(g.memory_bytes for g in GRAPHS.values()) * 1.3)
        service = make_service(budget_bytes=budget, workers=2)
        report = service.replay(mixed_trace(30, seed=2))
        assert service.registry.evictions > 0
        for o in report.served:
            expected = xbfs_oracle(o.query.graph, o.query.source)
            assert np.array_equal(o.levels, expected)


class TestAcceptanceScenario:
    """The ISSUE acceptance criteria, service-API level."""

    def test_200_query_trace_over_three_graphs(self, xbfs_oracle):
        sizes = {s: GRAPHS[s].num_vertices for s in SPECS}
        trace = synthetic_trace(
            list(SPECS), sizes, num_queries=200, seed=11, burst=8
        )
        service = make_service(workers=2, window_ms=5.0)
        report = service.replay(trace)

        assert len(report.served) == 200
        assert report.registry_stats["hit_rate"] > 0
        assert report.metrics.mean_sharing_factor > 1.0
        summary = report.summary("acceptance")
        assert summary["queries_served"] == 200
        assert summary["service_gteps"] > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_replay_is_deterministic(self):
        sizes = {s: GRAPHS[s].num_vertices for s in SPECS}
        trace = synthetic_trace(list(SPECS), sizes, num_queries=50, seed=5,
                                burst=8)

        def run():
            report = make_service(workers=2).replay(trace)
            return report.summary("run")

        assert run() == run()

    def test_over_capacity_is_typed_rejection(self):
        service = make_service(workers=1, max_queue_depth=4, window_ms=50.0)
        burst = [
            Query(qid=i, graph="9", source=i, arrival_ms=0.0)
            for i in range(8)
        ]
        with pytest.raises(QueueFullError):
            for q in burst:
                service.submit(q)
        # Non-strict replay records the overflow instead of raising.
        service2 = make_service(workers=1, max_queue_depth=4, window_ms=50.0)
        report = service2.replay(burst)
        assert report.metrics.rejected_queue_full == 4
        assert len(report.served) == 4
        assert all(o.rejected == "queue_full" for o in report.rejections)
