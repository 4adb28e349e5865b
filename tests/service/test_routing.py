"""Size-aware engine routing: the serving layer's differential contract.

Graphs whose CSR footprint exceeds ``distributed_threshold_mb`` are
served by the multi-GCD distributed engine; everything below stays on
the single-GCD solo/concurrent paths. Whatever the route, levels must
be bit-identical to a solo ``XBFS.run`` — including under fault plans
and eviction storms — and the routing decision itself must be
observable (per-engine dispatch counts, engine-tagged outcomes and
trace spans).
"""

import json

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.graph.generators import rmat
from repro.service import (
    BFSService,
    ENGINE_NAMES,
    Query,
    QueryOptions,
)
from repro.telemetry import Tracer, chrome_trace
from repro.xbfs.driver import XBFS

SPECS = ("7", "8", "9", "10")


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


GRAPHS = {spec: _builder(spec) for spec in SPECS}

#: Bytes of the largest graph that must stay on the single-GCD path.
SMALL_CUTOFF = GRAPHS["8"].memory_bytes
#: A threshold (MiB) routing scales 9/10 to the pod, 7/8 stays solo.
THRESHOLD_MB = SMALL_CUTOFF / (1 << 20)

assert GRAPHS["9"].memory_bytes > SMALL_CUTOFF < GRAPHS["10"].memory_bytes


@pytest.fixture(scope="module")
def xbfs_oracle():
    engines = {spec: XBFS(g) for spec, g in GRAPHS.items()}
    cache: dict[tuple[str, int], np.ndarray] = {}

    def oracle(spec: str, source: int) -> np.ndarray:
        key = (spec, source)
        if key not in cache:
            cache[key] = engines[spec].run(source).levels
        return cache[key]

    return oracle


def make_service(*, budget_bytes=1 << 30, threshold_mb=THRESHOLD_MB,
                 num_gcds=4, **kwargs) -> BFSService:
    return BFSService(
        builder=_builder,
        memory_budget_mb=budget_bytes / 2**20,
        num_gcds=num_gcds,
        distributed_threshold_mb=threshold_mb,
        **kwargs,
    )


def routed_trace(num_queries: int, seed: int,
                 specs=SPECS) -> list:
    rng = np.random.default_rng(seed)
    queries = []
    t = 0.0
    while len(queries) < num_queries:
        spec = specs[int(rng.integers(len(specs)))]
        burst = min(int(rng.integers(1, 6)), num_queries - len(queries))
        for _ in range(burst):
            queries.append(
                Query(qid=len(queries), graph=spec,
                      source=int(rng.integers(16)), arrival_ms=t)
            )
        t += float(rng.exponential(2.0))
    return queries


class TestRoutingPolicy:
    def test_large_graphs_route_to_multigcd(self, xbfs_oracle):
        service = make_service(workers=2, window_ms=5.0)
        report = service.replay(routed_trace(48, seed=0))
        assert len(report.served) == 48
        engines = {o.query.graph: set() for o in report.served}
        for o in report.served:
            engines[o.query.graph].add(o.engine)
        # Above the threshold: every dispatch lands on the pod.
        assert engines["9"] == {"multigcd"}
        assert engines["10"] == {"multigcd"}
        # Below: only single-GCD engines.
        assert engines["7"] <= {"solo", "concurrent"}
        assert engines["8"] <= {"solo", "concurrent"}
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged from solo XBFS"

    def test_disabled_threshold_keeps_single_gcd_paths(self):
        service = make_service(threshold_mb=None, workers=2)
        report = service.replay(routed_trace(24, seed=1))
        assert all(o.engine in ("solo", "concurrent") for o in report.served)
        assert "multigcd" not in service.metrics.engine_dispatches

    def test_solo_only_options_never_route(self, xbfs_oracle):
        # A pinned strategy is outside the distributed engine's option
        # surface: it must stay on solo XBFS even above the threshold.
        service = make_service(workers=1)
        q = Query(qid=0, graph="10", source=3, arrival_ms=0.0,
                  options=QueryOptions(force_strategy="single_scan"))
        service.submit(q)
        outcomes = service.drain()
        assert outcomes[0].engine == "solo"
        assert np.array_equal(outcomes[0].levels, xbfs_oracle("10", 3))

    @pytest.mark.parametrize("num_gcds", [2, 4, 8])
    def test_pod_widths_stay_bit_identical(self, xbfs_oracle, num_gcds):
        service = make_service(num_gcds=num_gcds, workers=2)
        report = service.replay(routed_trace(24, seed=2, specs=("9", "10")))
        assert all(o.engine == "multigcd" for o in report.served)
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_num_gcds_one_never_routes(self):
        # A one-GCD "pod" is just the solo engine with exchange
        # overhead; the router keeps those dispatches on XBFS.
        service = make_service(num_gcds=1, workers=1)
        report = service.replay(routed_trace(8, seed=3, specs=("10",)))
        assert all(o.engine in ("solo", "concurrent") for o in report.served)


class TestPartitionCaching:
    def test_engine_cached_on_registry_entry(self):
        service = make_service(workers=1)
        service.replay(routed_trace(16, seed=4, specs=("10",)))
        entry, hit = service.registry.get("10")
        assert hit
        engine = entry.engines.get("multigcd")
        assert engine is not None and engine.num_gcds == 4
        dispatches = service.metrics.engine_dispatches["multigcd"]
        assert dispatches > 1  # one engine, many dispatches

    def test_eviction_drops_partition_with_entry(self, xbfs_oracle):
        budget = int(
            max(GRAPHS[s].memory_bytes for s in ("9", "10")) * 1.3
        )
        service = make_service(budget_bytes=budget, workers=2)
        report = service.replay(routed_trace(32, seed=5, specs=("9", "10")))
        assert service.registry.evictions > 0
        for o in report.served:
            assert o.engine == "multigcd"
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )


class TestRoutingObservability:
    def test_engine_counts_in_stats_and_summary(self):
        service = make_service(workers=2)
        report = service.replay(routed_trace(40, seed=6))
        stats = service.metrics.stats()
        for engine in ENGINE_NAMES:
            assert f"dispatches_{engine}" in stats
        assert stats["dispatches_multigcd"] > 0
        assert stats["dispatches"] == sum(
            service.metrics.engine_dispatches.values()
        )
        summary = report.summary("routing")
        assert summary["dispatches_multigcd"] == stats["dispatches_multigcd"]
        assert summary["dispatches_solo"] == stats["dispatches_solo"]

    def test_chrome_trace_carries_engine_and_dist_levels(self, tmp_path):
        tracer = Tracer()
        service = make_service(workers=2, tracer=tracer)
        service.replay(routed_trace(16, seed=7, specs=("9", "10")))
        doc = chrome_trace(tracer)
        path = tmp_path / "routing_trace.json"
        path.write_text(json.dumps(doc))
        events = json.loads(path.read_text())["traceEvents"]
        dispatch = [
            e for e in events
            if e.get("name") == "service.dispatch"
            and e.get("args", {}).get("engine") == "multigcd"
        ]
        assert dispatch, "no multigcd-tagged dispatch span in the export"
        assert any(e.get("name") == "dist.level" for e in events)

    def test_replay_is_deterministic_with_routing(self):
        def run():
            service = make_service(workers=2)
            return service.replay(routed_trace(30, seed=8)).summary("r")

        assert run() == run()


class TestRoutingUnderFaults:
    def _plan(self, seed=7):
        return FaultPlan(seed=seed, name="routing-chaos", rules=(
            FaultRule(site="multigcd.exchange", kind="latency",
                      probability=0.4, magnitude=3.0),
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.08, max_triggers=4),
            FaultRule(site="service.registry", kind="evict_storm",
                      probability=0.2, magnitude=2.0),
        ))

    def test_bit_identical_under_fault_plan(self, xbfs_oracle):
        service = make_service(workers=2, fault_injector=self._plan().injector())
        report = service.replay(routed_trace(32, seed=9))
        assert report.metrics.faults_injected > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged under faults"

    def test_pod_faults_ride_dispatch_retries(self, xbfs_oracle):
        # A raising fault inside the pod has no checkpoint layer: the
        # whole dispatch replays (or falls back serial). Either way the
        # answers stay bit-identical and the recovery is counted.
        plan = FaultPlan(seed=3, name="pod-faults", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.3, max_triggers=6),
        ))
        service = make_service(workers=1, fault_injector=plan.injector())
        report = service.replay(routed_trace(16, seed=10, specs=("9", "10")))
        m = report.metrics
        assert m.faults_injected > 0
        assert m.retries + m.fallbacks + m.level_restarts > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )
