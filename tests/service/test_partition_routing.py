"""Partition-aware routing: the 2D grid as a serving-layer engine.

``BFSService(partition="2d")`` swaps the distributed tier's engine from
the 1D pod to :class:`~repro.multigcd.grid2d.Grid2dBFS` (codec and
overlap on — the scalable exchange plane). The contract mirrors
``test_routing.py``: whatever the partition, served levels are
bit-identical to solo ``XBFS`` — including under fault plans and
eviction — and the decision is observable (``dispatches_grid2d``,
engine-tagged outcomes and spans) without perturbing the frozen 1D
summary fingerprint.
"""

import json

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.graph.generators import rmat
from repro.service import BFSService, Query
from repro.service.metrics import ENGINE_NAMES, FINGERPRINT_ENGINE_NAMES
from repro.telemetry import Tracer, chrome_trace
from repro.xbfs.driver import XBFS

SPECS = ("7", "8", "9", "10")


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


GRAPHS = {spec: _builder(spec) for spec in SPECS}

SMALL_CUTOFF = GRAPHS["8"].memory_bytes
THRESHOLD_MB = SMALL_CUTOFF / (1 << 20)


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
                 num_gcds=4, partition="2d", **kwargs) -> BFSService:
    return BFSService(
        builder=_builder,
        memory_budget_mb=budget_bytes / 2**20,
        num_gcds=num_gcds,
        distributed_threshold_mb=threshold_mb,
        partition=partition,
        **kwargs,
    )


def routed_trace(num_queries: int, seed: int, specs=SPECS) -> list:
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


class TestPartitionPolicy:
    def test_2d_routes_large_graphs_to_grid(self, xbfs_oracle):
        service = make_service(workers=2, window_ms=5.0)
        report = service.replay(routed_trace(48, seed=0))
        assert len(report.served) == 48
        engines = {o.query.graph: set() for o in report.served}
        for o in report.served:
            engines[o.query.graph].add(o.engine)
        assert engines["9"] == {"grid2d"}
        assert engines["10"] == {"grid2d"}
        assert engines["7"] <= {"solo", "concurrent"}
        assert engines["8"] <= {"solo", "concurrent"}
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged from solo XBFS"

    def test_default_partition_never_emits_grid2d(self):
        service = make_service(partition="1d", workers=2)
        report = service.replay(routed_trace(24, seed=1))
        assert any(o.engine == "multigcd" for o in report.served)
        assert all(o.engine != "grid2d" for o in report.served)
        assert "grid2d" not in service.metrics.engine_dispatches

    def test_unknown_partition_is_typed(self):
        with pytest.raises(ServiceError):
            make_service(partition="3d")

    @pytest.mark.parametrize("num_gcds", [2, 4, 6, 8, 9, 16])
    def test_grid_widths_stay_bit_identical(self, xbfs_oracle, num_gcds):
        service = make_service(num_gcds=num_gcds, workers=2)
        report = service.replay(routed_trace(24, seed=2, specs=("9", "10")))
        assert all(o.engine == "grid2d" for o in report.served)
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_1d_and_2d_serve_identical_answers(self):
        trace = routed_trace(24, seed=3)
        one_d = make_service(partition="1d", workers=2).replay(trace)
        two_d = make_service(partition="2d", workers=2).replay(
            routed_trace(24, seed=3)
        )
        by_qid = {o.query.qid: o for o in one_d.served}
        for o in two_d.served:
            assert np.array_equal(o.levels, by_qid[o.query.qid].levels)


class TestPartitionCaching:
    def test_grid_engine_cached_on_registry_entry(self):
        service = make_service(workers=1)
        service.replay(routed_trace(16, seed=4, specs=("10",)))
        entry, hit = service.registry.get("10")
        assert hit
        engine = entry.engines.get("grid2d")
        assert engine is not None and engine.num_gcds == 4
        assert engine.rows * engine.cols == 4
        # The scalable exchange plane rides every routed dispatch.
        assert engine.codec and engine.overlap
        assert service.metrics.engine_dispatches["grid2d"] > 1

    def test_eviction_rebuilds_partition_cache(self, xbfs_oracle):
        budget = int(
            max(GRAPHS[s].memory_bytes for s in ("9", "10")) * 1.3
        )
        service = make_service(budget_bytes=budget, workers=2)
        report = service.replay(routed_trace(32, seed=5, specs=("9", "10")))
        assert service.registry.evictions > 0
        for o in report.served:
            assert o.engine == "grid2d"
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_rebuilt_engine_is_fresh_after_eviction(self):
        service = make_service(workers=1)
        service.replay(routed_trace(8, seed=6, specs=("10",)))
        entry, _ = service.registry.get("10")
        first = entry.engines.get("grid2d")
        assert first is not None
        service.registry.evict(len(service.registry))
        offset = service.scheduler.now_ms + 1.0
        service.replay([
            Query(qid=100 + q.qid, graph=q.graph, source=q.source,
                  arrival_ms=q.arrival_ms + offset)
            for q in routed_trace(8, seed=6, specs=("10",))
        ])
        entry, _ = service.registry.get("10")
        rebuilt = entry.engines.get("grid2d")
        assert rebuilt is not None and rebuilt is not first


class TestPartitionObservability:
    def test_grid_dispatches_counted_without_fingerprint_drift(self):
        service = make_service(workers=2)
        report = service.replay(routed_trace(40, seed=7))
        stats = service.metrics.stats()
        assert "grid2d" in ENGINE_NAMES
        assert "grid2d" not in FINGERPRINT_ENGINE_NAMES
        assert stats["dispatches_grid2d"] > 0
        assert stats["dispatches"] == sum(
            service.metrics.engine_dispatches.values()
        )
        summary = report.summary("partition")
        assert summary["dispatches_grid2d"] == stats["dispatches_grid2d"]
        # The frozen fingerprint keys are always present...
        for engine in FINGERPRINT_ENGINE_NAMES:
            assert f"dispatches_{engine}" in summary
        # ...and a 1D service's summary never grows a grid2d key, so
        # summaries recorded before this engine existed stay identical.
        one_d = make_service(partition="1d", workers=2)
        baseline = one_d.replay(routed_trace(40, seed=7)).summary("partition")
        assert "dispatches_grid2d" not in baseline
        assert set(baseline) == set(summary) - {"dispatches_grid2d"}

    def test_chrome_trace_tags_grid_engine(self, tmp_path):
        tracer = Tracer()
        service = make_service(workers=2, tracer=tracer)
        service.replay(routed_trace(16, seed=8, specs=("9", "10")))
        doc = chrome_trace(tracer)
        path = tmp_path / "partition_trace.json"
        path.write_text(json.dumps(doc))
        events = json.loads(path.read_text())["traceEvents"]
        dispatch = [
            e for e in events
            if e.get("name") == "service.dispatch"
            and e.get("args", {}).get("engine") == "grid2d"
        ]
        assert dispatch, "no grid2d-tagged dispatch span in the export"
        grid_levels = [
            e for e in events
            if e.get("name") == "dist.level"
            and e.get("args", {}).get("strategy") == "grid2d"
        ]
        assert grid_levels

    def test_replay_is_deterministic_with_2d_routing(self):
        def run():
            service = make_service(workers=2)
            return service.replay(routed_trace(30, seed=9)).summary("r")

        assert run() == run()


class TestPartitionUnderFaults:
    def _plan(self, seed=7):
        return FaultPlan(seed=seed, name="partition-chaos", rules=(
            FaultRule(site="multigcd.exchange", kind="latency",
                      probability=0.4, magnitude=3.0),
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.08, max_triggers=4),
            FaultRule(site="service.registry", kind="evict_storm",
                      probability=0.2, magnitude=2.0),
        ))

    def test_bit_identical_under_fault_plan(self, xbfs_oracle):
        service = make_service(workers=2, fault_injector=self._plan().injector())
        report = service.replay(routed_trace(32, seed=10))
        assert report.metrics.faults_injected > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged under faults"

    def test_grid_faults_ride_dispatch_retries(self, xbfs_oracle):
        plan = FaultPlan(seed=3, name="grid-faults", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.3, max_triggers=6),
        ))
        service = make_service(workers=1, fault_injector=plan.injector())
        report = service.replay(routed_trace(16, seed=11, specs=("9", "10")))
        m = report.metrics
        assert m.faults_injected > 0
        assert m.retries + m.fallbacks + m.level_restarts > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )
