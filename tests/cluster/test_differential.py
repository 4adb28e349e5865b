"""The cluster's differential contract.

Sharding, stealing, quotas and replica deaths change *cost*, never
*answers*: every query served by both the cluster and a fault-free
single :class:`~repro.service.runtime.BFSService` must return
bit-identical levels — and the whole cluster replay is deterministic.
"""

import numpy as np
import pytest

from repro.cluster import ClusterRouter, death_plan, run_scaleout_sweep
from repro.graph.generators import rmat
from repro.service import BFSService, synthetic_trace
from repro.xbfs.driver import XBFS

SPECS = ("7", "8", "9")
SIZES = {spec: 1 << int(spec) for spec in SPECS}


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


def _trace(n=64, seed=0, **kwargs):
    return synthetic_trace(SPECS, SIZES, num_queries=n, seed=seed, tenants=4,
                           **kwargs)


def _baseline_levels(trace):
    service = BFSService(builder=_builder, memory_budget_mb=1024,
                         workers=1, window_ms=5.0)
    report = service.replay(trace)
    return {o.query.qid: o.levels for o in report.served}


@pytest.fixture(scope="module")
def xbfs_oracle():
    engines = {spec: XBFS(_builder(spec)) for spec in SPECS}
    cache = {}

    def oracle(spec, source):
        key = (spec, source)
        if key not in cache:
            cache[key] = engines[spec].run(source).levels
        return cache[key]

    return oracle


class TestClusterEqualsSingleService:
    def test_fault_free_cluster_matches_single_service(self, xbfs_oracle):
        trace = _trace(seed=1)
        baseline = _baseline_levels(trace)
        router = ClusterRouter(replicas=3, builder=_builder, workers=1,
                               window_ms=5.0)
        report = router.replay(trace)
        compared = 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged from solo XBFS"
            if o.query.qid in baseline:
                compared += 1
                assert np.array_equal(o.levels, baseline[o.query.qid])
        assert compared > 0

    def test_bit_identical_under_replica_death_plan(self, xbfs_oracle):
        trace = _trace(n=96, seed=2, mean_gap_ms=3.0)
        plan = death_plan(seed=3, probability=0.08, restart_ms=60.0,
                          max_triggers=4)
        router = ClusterRouter(replicas=3, builder=_builder, workers=1,
                               window_ms=5.0, fault_plan=plan)
        report = router.replay(trace)
        assert router.counters()["deaths"] > 0, "the death plan never fired"
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged after replica death"

    def test_redispatched_queries_still_answer_correctly(self, xbfs_oracle):
        # A near-certain death with in-flight work: same-stamp bursts
        # keep queues deep so the dying replica holds pending queries.
        trace = _trace(n=64, seed=0, burst=16, mean_gap_ms=8.0)
        plan = death_plan(seed=0, probability=0.5, restart_ms=40.0,
                          max_triggers=2)
        router = ClusterRouter(replicas=2, builder=_builder, workers=1,
                               window_ms=5.0, fault_plan=plan,
                               steal_threshold=None)
        report = router.replay(trace)
        counters = router.counters()
        assert counters["deaths"] > 0
        assert counters["redispatched_queries"] > 0, "death never caught in-flight work"
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_scaleout_sweep_is_bit_identical_everywhere(self):
        summaries = run_scaleout_sweep(
            [1, 2, 4],
            graphs=SPECS,
            num_vertices=SIZES,
            num_queries=48,
            seed=5,
            fault_plan=death_plan(seed=2, probability=0.05),
            router_kwargs={"builder": _builder, "workers": 1,
                           "window_ms": 5.0},
        )
        assert [s["replicas"] for s in summaries] == [1, 2, 4]
        assert all(s["bit_identical"] == 1 for s in summaries)
        assert all(s["common_served"] > 0 for s in summaries)


class TestDeterminism:
    def test_cluster_replay_reproduces_bit_for_bit(self):
        plan_kwargs = dict(seed=7, probability=0.1, restart_ms=50.0)

        def run():
            router = ClusterRouter(replicas=3, builder=_builder, workers=1,
                                   window_ms=5.0,
                                   fault_plan=death_plan(**plan_kwargs))
            return router.replay(_trace(n=48, seed=6)).summary("d")

        assert run() == run()

    def test_death_schedule_is_seed_stable(self):
        def summary(seed):
            router = ClusterRouter(
                replicas=3, builder=_builder, workers=1, window_ms=5.0,
                fault_plan=death_plan(seed=seed, probability=0.2,
                                      restart_ms=30.0, max_triggers=None),
            )
            report = router.replay(_trace(n=48, seed=8))
            assert router.counters()["deaths"] > 0
            return report.summary("s")

        assert summary(0) == summary(0)
        # A different plan seed fires a different schedule, which is
        # visible in the replay (timing, recovery counters, or both).
        assert any(summary(s) != summary(0) for s in range(1, 5))
