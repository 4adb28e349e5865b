"""Batch-width engine routing: the linear-algebra tier's contract.

With ``linalg_batch_threshold`` set, same-graph dispatches of that many
distinct sources (or more) run as one masked CSR×matrix product on the
bitmap engine, and the scheduler's batch cap lifts from the concurrent
engine's 64-bit status word to the bitmap engine's word-extensible
capacity. Whatever the route, levels must be bit-identical to a solo
``XBFS.run`` — including under fault plans — and the routing decision
must be observable (per-engine dispatch counts, engine-tagged outcomes
and trace spans).
"""

import json

import numpy as np
import pytest

from repro.errors import BatchLimitError, ServiceError
from repro.faults import FaultPlan, FaultRule
from repro.graph.generators import rmat
from repro.service import (
    BFSService,
    ENGINE_NAMES,
    Query,
    QueryOptions,
)
from repro.telemetry import Tracer, chrome_trace
from repro.xbfs.concurrent import MAX_CONCURRENT
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH

THRESHOLD = 96

SPECS = ("9", "10")


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


GRAPHS = {spec: _builder(spec) for spec in SPECS}


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


def make_service(*, threshold=THRESHOLD, **kwargs) -> BFSService:
    return BFSService(
        builder=_builder,
        memory_budget_mb=1024,
        linalg_batch_threshold=threshold,
        **kwargs,
    )


def burst_trace(widths, seed=0, spec="10", gap_ms=50.0) -> list:
    """Bursts of distinct same-graph sources, one burst per width; each
    burst lands inside one coalescing window, bursts never overlap."""
    rng = np.random.default_rng(seed)
    n = GRAPHS[spec].num_vertices
    queries = []
    t = 0.0
    for width in widths:
        sources = rng.choice(n, size=width, replace=False)
        for s in sources:
            queries.append(
                Query(qid=len(queries), graph=spec, source=int(s),
                      arrival_ms=t)
            )
        t += gap_ms
    return queries


class TestBatchWidthRouting:
    def test_wide_batches_route_to_linalg(self, xbfs_oracle):
        service = make_service(workers=2)
        report = service.replay(burst_trace([200], seed=0))
        assert len(report.served) == 200
        assert {o.engine for o in report.served} == {"linalg_batch"}
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged from solo XBFS"

    def test_below_threshold_stays_on_narrow_engines(self, xbfs_oracle):
        service = make_service(workers=2)
        report = service.replay(burst_trace([32, 8, 1], seed=1))
        assert all(o.engine in ("solo", "concurrent") for o in report.served)
        assert service.metrics.engine_dispatches.get("linalg_batch", 0) == 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )

    def test_over_64_sources_route_linalg_even_below_threshold(self):
        # 65..threshold-1 wide groups exist once the cap is lifted; no
        # 64-slot engine can serve them, so they take the bitmap tier.
        service = make_service(threshold=256, workers=1)
        report = service.replay(burst_trace([100], seed=2))
        assert {o.engine for o in report.served} == {"linalg_batch"}

    def test_disabled_tier_splits_at_64(self):
        service = make_service(threshold=None, workers=2)
        assert service.scheduler.max_batch == MAX_CONCURRENT
        report = service.replay(burst_trace([200], seed=3))
        assert all(o.engine in ("solo", "concurrent") for o in report.served)
        assert service.metrics.engine_dispatches.get("linalg_batch", 0) == 0

    def test_solo_only_options_never_route(self, xbfs_oracle):
        # A pinned strategy is outside the batched engines' option
        # surface: it stays on solo XBFS whatever the burst width.
        service = make_service(workers=1)
        queries = [
            Query(qid=i, graph="10", source=i, arrival_ms=0.0,
                  options=QueryOptions(force_strategy="single_scan"))
            for i in range(THRESHOLD + 4)
        ]
        report = service.replay(queries)
        assert {o.engine for o in report.served} == {"solo"}

    def test_size_routing_beats_width_routing(self, xbfs_oracle):
        # Both tiers armed: a graph over the distributed threshold goes
        # to the pod even when the batch is linalg-wide (the bitmap
        # engine is single-GCD; residency dominates).
        threshold_mb = GRAPHS["9"].memory_bytes / (1 << 20) * 0.5
        service = make_service(
            workers=1, distributed_threshold_mb=threshold_mb
        )
        report = service.replay(burst_trace([128], seed=4, spec="9"))
        assert {o.engine for o in report.served} == {"multigcd"}
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            )


class TestEngineAwareMaxBatch:
    def test_default_cap_resolves_per_engine(self):
        assert make_service(threshold=None).scheduler.max_batch == MAX_CONCURRENT
        assert make_service().scheduler.max_batch == MAX_LINALG_BATCH

    def test_explicit_cap_validated_against_concurrent(self):
        with pytest.raises(BatchLimitError, match="concurrent") as exc:
            make_service(threshold=None, max_batch=MAX_CONCURRENT + 1)
        assert str(MAX_CONCURRENT) in str(exc.value)

    def test_explicit_cap_validated_against_linalg(self):
        # 65 is legal once the tier lifts the cap...
        service = make_service(max_batch=MAX_CONCURRENT + 1)
        assert service.scheduler.max_batch == MAX_CONCURRENT + 1
        # ...but the bitmap engine's own capacity still binds.
        with pytest.raises(BatchLimitError, match="linalg_batch") as exc:
            make_service(max_batch=MAX_LINALG_BATCH + 1)
        assert str(MAX_LINALG_BATCH) in str(exc.value)

    def test_error_is_typed(self):
        assert issubclass(BatchLimitError, ServiceError)
        assert issubclass(BatchLimitError, ValueError)
        with pytest.raises(ServiceError):
            make_service(threshold=None, max_batch=0)

    def test_threshold_validated(self):
        with pytest.raises(ServiceError, match="linalg_batch_threshold"):
            make_service(threshold=1)
        with pytest.raises(ServiceError, match="linalg_batch_threshold"):
            make_service(threshold=MAX_LINALG_BATCH + 1)


class TestObservability:
    def test_engine_counts_in_stats_and_summary(self):
        service = make_service(workers=2)
        report = service.replay(burst_trace([150, 20], seed=5))
        stats = service.metrics.stats()
        for engine in ENGINE_NAMES:
            assert f"dispatches_{engine}" in stats
        assert stats["dispatches_linalg_batch"] > 0
        assert stats["dispatches"] == sum(
            service.metrics.engine_dispatches.values()
        )
        summary = report.summary("linalg-routing")
        assert (
            summary["dispatches_linalg_batch"]
            == stats["dispatches_linalg_batch"]
        )

    def test_chrome_trace_tags_engine_and_direction(self, tmp_path):
        tracer = Tracer()
        service = make_service(workers=1, tracer=tracer)
        service.replay(burst_trace([128], seed=6))
        doc = chrome_trace(tracer)
        path = tmp_path / "linalg_trace.json"
        path.write_text(json.dumps(doc))
        events = json.loads(path.read_text())["traceEvents"]
        dispatch = [
            e for e in events
            if e.get("name") == "service.dispatch"
            and e.get("args", {}).get("engine") == "linalg_batch"
        ]
        assert dispatch, "no linalg-tagged dispatch span in the export"
        level_strategies = {
            e["args"].get("strategy")
            for e in events
            if e.get("name") == "bfs.level" and "args" in e
        }
        assert level_strategies & {"la_push", "la_pull"}

    def test_engine_cached_on_registry_entry(self):
        service = make_service(workers=1)
        service.replay(burst_trace([128, 128, 128], seed=7))
        entry, hit = service.registry.get("10")
        assert hit
        assert entry.engines.get("linalg_batch") is not None
        assert service.metrics.engine_dispatches["linalg_batch"] > 1

    def test_replay_is_deterministic(self):
        def run():
            service = make_service(workers=2)
            return service.replay(
                burst_trace([150, 40, 150], seed=8)
            ).summary("r")

        assert run() == run()


class TestRoutingUnderFaults:
    def _plan(self, seed=7):
        return FaultPlan(seed=seed, name="linalg-chaos", rules=(
            FaultRule(site="service.worker", kind="latency",
                      probability=0.3, magnitude=2.5),
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.12, max_triggers=6),
        ))

    def test_bit_identical_under_fault_plan(self, xbfs_oracle):
        service = make_service(workers=2, fault_injector=self._plan().injector())
        report = service.replay(burst_trace([150, 150, 150], seed=9))
        assert report.metrics.faults_injected > 0
        assert service.metrics.engine_dispatches["linalg_batch"] > 0
        for o in report.served:
            assert np.array_equal(
                o.levels, xbfs_oracle(o.query.graph, o.query.source)
            ), f"query {o.query.qid} diverged under faults"

    def test_checkpoint_restarts_are_counted(self):
        plan = FaultPlan(seed=3, name="linalg-kernel-faults", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.4, max_triggers=8),
        ))
        service = make_service(workers=1, fault_injector=plan.injector())
        report = service.replay(burst_trace([150, 150], seed=10))
        m = report.metrics
        assert m.faults_injected > 0
        assert m.level_restarts + m.retries + m.fallbacks > 0
