"""The mutation differential wall.

After any mutation, every served answer must be bit-identical to a
from-scratch BFS of the *mutated* graph — whichever engine tier the
dispatch routes onto (solo, concurrent, the bitmap linear-algebra
batch engine, the 1D multi-GCD pod, the 2D grid), whether the executor
chose incremental repair or full recompute, and with or without a
fault plan running underneath. Delta sizes sweep one edge → 10% of the
base edge count, on all three shapes (insert-only, delete-only,
mixed).
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.graph.delta import apply_delta, random_delta
from repro.graph.generators import rmat
from repro.graph.stats import bfs_levels_reference
from repro.service import BFSService, Query


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


BASE = _builder("10")  # 1024 vertices, ~8k directed edges

#: Engine-tier service configs. The distributed tiers use a threshold
#: below the test graph's CSR bytes so every dispatch routes onto the
#: pod/grid; the linalg tier arms a tiny batch threshold so the warmed
#: coalesced bursts clear it.
TIERS = {
    "singles": {},                          # solo / 1-wide dispatches
    "concurrent": {},                       # coalesced default tier
    "linalg": {"linalg_batch_threshold": 4},
    "multigcd": {"partition": "1d",
                 "distributed_threshold_mb": BASE.memory_bytes / 2 / (1 << 20)},
    "grid2d": {"partition": "2d",
               "distributed_threshold_mb": BASE.memory_bytes / 2 / (1 << 20)},
}

#: Delta shapes, one edge → 10% of the base edge count.
DELTAS = {
    "ins_1": dict(num_inserts=1),
    "ins_1pct": dict(num_inserts=max(1, BASE.num_edges // 100)),
    "ins_10pct": dict(num_inserts=max(1, BASE.num_edges // 10)),
    "del_only": dict(num_deletes=24),
    "mixed": dict(num_inserts=40, num_deletes=40),
}

SOURCES = (0, 7, 63, 200, 511, 900)


def make_service(tier: str, **kwargs) -> BFSService:
    return BFSService(builder=_builder, memory_budget_mb=1024,
                      workers=2, window_ms=5.0, seed=0, **TIERS[tier], **kwargs)


def mutate_trace(delta, *, singles: bool) -> list[Query]:
    """Warm queries, one mutate barrier, then the same sources again.

    ``singles`` spaces arrivals past the coalescing window so every
    dispatch is 1-wide (the solo tier); otherwise each phase lands as
    one coalesced burst.
    """
    gap = 20.0 if singles else 0.5
    queries: list[Query] = []
    t = 0.0
    for s in SOURCES:
        queries.append(Query(qid=len(queries), graph="10", source=s,
                             arrival_ms=t))
        t += gap
    t += 50.0
    queries.append(Query(qid=len(queries), graph="10", source=0,
                         arrival_ms=t, op="mutate", delta=delta))
    t += 1.0
    for s in SOURCES:
        queries.append(Query(qid=len(queries), graph="10", source=s,
                             arrival_ms=t))
        t += gap
    return queries


def check_differential(report, delta):
    """Every answer matches a from-scratch run of the graph version it
    was served against."""
    mutated = apply_delta(BASE, delta)
    cut = len(SOURCES)  # qids below are pre-mutation, above are post
    assert len(report.served) == 2 * len(SOURCES)
    for o in report.served:
        graph = BASE if o.query.qid < cut else mutated
        assert np.array_equal(
            o.levels, bfs_levels_reference(graph, o.query.source)
        ), (
            f"qid {o.query.qid} (source {o.query.source}, engine "
            f"{o.engine}) diverged from scratch on "
            f"{'base' if graph is BASE else 'mutated'} graph"
        )


class TestCleanAcrossTiers:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    @pytest.mark.parametrize("shape", sorted(DELTAS))
    def test_bit_identical_clean(self, tier, shape):
        delta = random_delta(BASE, seed=31, **DELTAS[shape])
        service = make_service(tier)
        report = service.replay(
            mutate_trace(delta, singles=tier == "singles")
        )
        check_differential(report, delta)
        assert service.registry.graph_version("10") == 1

    def test_expected_engines_actually_served(self):
        """The tier configs must exercise the engines they claim to —
        otherwise the wall silently tests one engine five times."""
        delta = random_delta(BASE, seed=31, num_deletes=24)
        seen = {}
        for tier in TIERS:
            service = make_service(tier)
            report = service.replay(
                mutate_trace(delta, singles=tier == "singles")
            )
            seen[tier] = {o.engine for o in report.served}
        assert seen["multigcd"] == {"multigcd"}
        assert seen["grid2d"] == {"grid2d"}
        assert "linalg_batch" in seen["linalg"]
        assert seen["concurrent"] <= {"solo", "concurrent"}
        assert seen["singles"] <= {"solo", "concurrent"}

    def test_small_insert_delta_served_by_repair(self):
        delta = random_delta(BASE, seed=31, num_inserts=1)
        service = make_service("concurrent")
        report = service.replay(mutate_trace(delta, singles=False))
        post = [o for o in report.served
                if o.query.qid >= len(SOURCES) + 1]
        assert any(o.engine == "repair" for o in post)
        check_differential(report, delta)

    def test_chained_mutations_across_tiers(self):
        """Two mutations back to back: version 2 answers must match a
        from-scratch run of the twice-mutated graph."""
        d1 = random_delta(BASE, seed=33, num_inserts=30)
        mid = apply_delta(BASE, d1)
        d2 = random_delta(mid, seed=34, num_deletes=10)
        final = apply_delta(mid, d2)
        for tier in ("concurrent", "grid2d"):
            service = make_service(tier)
            queries = mutate_trace(d1, singles=False)
            t = queries[-1].arrival_ms + 50.0
            queries.append(Query(qid=len(queries), graph="10", source=0,
                                 arrival_ms=t, op="mutate", delta=d2))
            for s in SOURCES:
                t += 0.5
                queries.append(Query(qid=len(queries), graph="10",
                                     source=s, arrival_ms=t))
            report = service.replay(queries)
            assert service.registry.graph_version("10") == 2
            tail = [o for o in report.served
                    if o.query.qid > 2 * len(SOURCES) + 1]
            assert len(tail) == len(SOURCES)
            for o in tail:
                assert np.array_equal(
                    o.levels, bfs_levels_reference(final, o.query.source)
                ), f"{tier}: v2 answer diverged at source {o.query.source}"


class TestUnderFaultPlans:
    def _plan(self, seed=13):
        return FaultPlan(seed=seed, name="mutation-chaos", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=0.1, max_triggers=4),
            FaultRule(site="service.worker", kind="latency",
                      probability=0.3, magnitude=2.0),
            FaultRule(site="service.registry", kind="evict_storm",
                      probability=0.25, magnitude=2.0),
        ))

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_bit_identical_under_faults(self, tier):
        delta = random_delta(BASE, seed=35, num_inserts=40, num_deletes=10)
        service = make_service(tier, fault_injector=self._plan().injector())
        report = service.replay(
            mutate_trace(delta, singles=tier == "singles")
        )
        assert report.metrics.faults_injected > 0
        check_differential(report, delta)

    def test_eviction_storm_cannot_resurrect_old_version(self):
        """Storms drop the mutated entry; the rebuild replays the delta
        log, so answers stay pinned to the current version."""
        plan = FaultPlan(seed=21, name="storms", rules=(
            FaultRule(site="service.registry", kind="evict_storm",
                      probability=0.8, magnitude=4.0),
        ))
        delta = random_delta(BASE, seed=36, num_inserts=12)
        service = make_service("concurrent", fault_injector=plan.injector())
        report = service.replay(mutate_trace(delta, singles=False))
        assert service.registry.evictions > 0
        check_differential(report, delta)
