"""Versioned mutation: registry deltas, invalidation, stale entries,
the negative cache and the scheduler's mutation barrier."""

import numpy as np
import pytest

from repro.errors import (
    GraphTooLargeError,
    MutationError,
    ServiceError,
    StaleEntryError,
)
from repro.graph.delta import GraphDelta, apply_delta, random_delta
from repro.graph.generators import rmat
from repro.graph.stats import bfs_levels_reference
from repro.service import BFSService, Query
from repro.service.registry import GraphRegistry


def _builder(spec: str):
    return rmat(int(spec), 8, seed=0)


def _registry(budget_bytes: int = 1 << 30) -> GraphRegistry:
    return GraphRegistry(memory_budget_bytes=budget_bytes, builder=_builder)


class TestRegistryMutate:
    def test_warm_mutate_bumps_version_and_swaps_entry(self):
        reg = _registry()
        old, _ = reg.get("9")
        delta = random_delta(old.graph, num_inserts=5, seed=1)
        fresh = reg.mutate("9", delta)
        assert fresh is not None and fresh is not old
        assert fresh.version == 1
        assert reg.graph_version("9") == 1
        assert not old.alive and fresh.alive
        assert len(old.engines) == 0
        expected = apply_delta(_builder("9"), delta)
        assert np.array_equal(fresh.graph.col_indices, expected.col_indices)
        # The registry now serves the mutated entry.
        got, hit = reg.get("9")
        assert hit and got is fresh

    def test_cold_mutate_is_log_only(self):
        reg = _registry()
        base = _builder("9")
        delta = random_delta(base, num_inserts=5, seed=2)
        assert reg.mutate("9", delta) is None
        assert reg.graph_version("9") == 1
        assert reg.deltas_since("9", 0) == (delta,)
        # The next build replays the log.
        entry, hit = reg.get("9")
        assert not hit
        assert entry.version == 1
        assert np.array_equal(
            entry.graph.col_indices, apply_delta(base, delta).col_indices
        )

    def test_rebuild_after_eviction_replays_full_log(self):
        reg = _registry()
        entry, _ = reg.get("9")
        d1 = random_delta(entry.graph, num_inserts=4, seed=3)
        mid = reg.mutate("9", d1)
        d2 = random_delta(mid.graph, num_deletes=3, seed=4)
        reg.mutate("9", d2)
        reg.evict(len(reg.keys()))
        rebuilt, hit = reg.get("9")
        assert not hit
        assert rebuilt.version == 2
        expected = apply_delta(apply_delta(_builder("9"), d1), d2)
        assert np.array_equal(rebuilt.graph.col_indices, expected.col_indices)

    def test_graph_at_version_reconstructs_history(self):
        reg = _registry()
        base = _builder("9")
        entry, _ = reg.get("9")
        d1 = random_delta(entry.graph, num_inserts=4, seed=7)
        mid_graph = apply_delta(base, d1)
        mid = reg.mutate("9", d1)
        d2 = random_delta(mid.graph, num_deletes=3, seed=8)
        reg.mutate("9", d2)
        # Every historical version is reconstructable, cache untouched.
        hits_before = reg.hit_rate
        assert np.array_equal(
            reg.graph_at_version("9", 0).col_indices, base.col_indices
        )
        assert np.array_equal(
            reg.graph_at_version("9", 1).col_indices, mid_graph.col_indices
        )
        assert np.array_equal(
            reg.graph_at_version("9", 2).col_indices,
            apply_delta(mid_graph, d2).col_indices,
        )
        assert reg.hit_rate == hits_before
        with pytest.raises(MutationError, match="no version 3"):
            reg.graph_at_version("9", 3)

    def test_outcomes_stamped_with_graph_version(self):
        svc = BFSService(builder=_builder, memory_budget_mb=1024,
                         workers=1, window_ms=1.0, seed=0)
        delta = random_delta(_builder("9"), num_inserts=3, seed=9)
        report = svc.replay([
            Query(qid=0, graph="9", source=1, arrival_ms=0.0),
            Query(qid=1, graph="9", source=0, arrival_ms=10.0,
                  op="mutate", delta=delta),
            Query(qid=2, graph="9", source=1, arrival_ms=11.0),
        ])
        versions = {o.query.qid: o.graph_version for o in report.served}
        assert versions == {0: 0, 2: 1}

    def test_invalid_deltas_rejected(self):
        reg = _registry()
        with pytest.raises(MutationError, match="GraphDelta"):
            reg.mutate("9", [(0, 1)])
        with pytest.raises(MutationError, match="empty"):
            reg.mutate("9", GraphDelta())

    def test_level_cache_carries_as_stamped_basis(self):
        reg = _registry()
        entry, _ = reg.get("9")
        levels = bfs_levels_reference(entry.graph, 0)
        entry.store_levels(0, levels)
        assert entry.levels_for(0) == (0, pytest.approx(levels))
        delta = random_delta(entry.graph, num_inserts=5, seed=5)
        fresh = reg.mutate("9", delta)
        stamp, carried = fresh.levels_for(0)
        assert stamp == 0  # exact for version 0, a repair basis now
        assert np.array_equal(carried, levels)


class TestEngineByteAccounting:
    class _Warm:
        def __init__(self, warm_bytes):
            self.warm_bytes = warm_bytes

    def test_engines_charge_into_running_total(self):
        reg = _registry()
        entry, _ = reg.get("9")
        other, _ = reg.get("8")
        before = reg.bytes_cached
        entry.engines["solo"] = self._Warm(4096)
        assert reg.bytes_cached == before + 4096
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        # Reassigning a slot charges only the difference.
        entry.engines["solo"] = self._Warm(1024)
        assert reg.bytes_cached == before + 1024
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        # Eviction refunds the graph and every engine charged to it.
        assert reg.evict() == ["9"]
        assert reg.bytes_cached == other.memory_bytes
        assert reg.bytes_cached == reg.recompute_bytes_cached()
        assert len(entry.engines) == 0 and entry.engine_bytes == 0

    def test_unsized_engines_charge_nothing(self):
        reg = _registry()
        entry, _ = reg.get("9")
        before = reg.bytes_cached
        entry.engines["probe"] = object()
        assert reg.bytes_cached == before

    def test_engine_growth_can_trigger_eviction(self):
        g9 = _builder("9")
        g8 = _builder("8")
        reg = _registry(g9.memory_bytes + g8.memory_bytes + 1024)
        reg.get("8")
        entry, _ = reg.get("9")
        # A warm engine bigger than the slack sheds the LRU entry but
        # never the entry it is attached to.
        entry.engines["solo"] = self._Warm(4096)
        assert "8" not in reg
        assert "9" in reg
        assert reg.bytes_cached == reg.recompute_bytes_cached()

    def test_stats_split_engine_and_level_bytes(self):
        reg = _registry()
        entry, _ = reg.get("9")
        entry.engines["solo"] = self._Warm(1 << 20)
        entry.store_levels(0, bfs_levels_reference(entry.graph, 0))
        stats = reg.stats()
        assert stats["engine_bytes"] == 1 << 20
        assert stats["level_bytes"] == entry.level_bytes > 0
        assert stats["bytes_cached"] == reg.recompute_bytes_cached()


class TestNegativeCache:
    def test_rejected_spec_builds_once(self):
        calls = []

        def counting_builder(spec):
            calls.append(spec)
            return _builder(spec)

        reg = GraphRegistry(memory_budget_bytes=1024,
                            builder=counting_builder)
        with pytest.raises(GraphTooLargeError):
            reg.get("9")
        assert calls == ["9"]
        # Every later probe reuses the cached verdict — no rebuild.
        for _ in range(3):
            with pytest.raises(GraphTooLargeError, match="cached verdict"):
                reg.get("9")
        assert calls == ["9"]
        assert reg.rejections == 4
        assert reg.stats()["rejected_specs_cached"] == 1

    def test_budget_change_clears_verdicts(self):
        calls = []

        def counting_builder(spec):
            calls.append(spec)
            return _builder(spec)

        reg = GraphRegistry(memory_budget_bytes=1024,
                            builder=counting_builder)
        with pytest.raises(GraphTooLargeError):
            reg.get("9")
        reg.memory_budget_bytes = 1 << 30
        entry, hit = reg.get("9")
        assert not hit and entry.graph.num_vertices == 512
        assert calls == ["9", "9"]

    def test_mutation_clears_the_specs_verdict(self):
        reg = GraphRegistry(memory_budget_bytes=1024, builder=_builder)
        with pytest.raises(GraphTooLargeError):
            reg.get("9")
        delta = random_delta(_builder("9"), num_deletes=8, seed=6)
        reg.mutate("9", delta)
        assert reg.stats()["rejected_specs_cached"] == 0
        # Still too big — but the verdict was re-derived, not replayed.
        with pytest.raises(GraphTooLargeError):
            reg.get("9")


class TestStaleEntries:
    def _service(self, **kw):
        return BFSService(workers=2, window_ms=5.0, seed=0, **kw)

    def test_evicted_entry_flips_alive(self):
        reg = _registry()
        entry, _ = reg.get("9")
        assert entry.alive
        reg.evict(1)
        assert not entry.alive

    def test_dispatch_on_retired_entry_raises(self):
        svc = self._service()
        entry, _ = svc.registry.get("rmat:9")
        delta = random_delta(entry.graph, num_inserts=3, seed=7)
        svc.registry.mutate("rmat:9", delta)
        q = Query(qid=0, graph="rmat:9", source=0, arrival_ms=0.0)
        with pytest.raises(StaleEntryError):
            svc.executor.run(entry, [q], [0], False, graph_key="rmat:9",
                             worker=svc.scheduler.workers[0])

    def test_eviction_storm_then_redispatch_serves_current_version(self):
        svc = self._service()
        spec = "rmat:9"
        base = svc.registry.get(spec)[0].graph
        delta = random_delta(base, num_inserts=6, seed=8)
        mutated = apply_delta(base, delta)
        queries = [
            Query(qid=0, graph=spec, source=3, arrival_ms=0.0),
            Query(qid=1, graph=spec, source=0, arrival_ms=1.0,
                  op="mutate", delta=delta),
            Query(qid=2, graph=spec, source=3, arrival_ms=2.0),
        ]
        for q in queries:
            svc.submit(q)
        svc.drain()
        # Storm: every resident graph (and its engines) is dropped.
        assert svc.registry.evict(len(svc.registry.keys()))
        svc.submit(Query(qid=3, graph=spec, source=3, arrival_ms=50.0))
        outcomes = {o.query.qid: o for o in svc.drain()}
        report_levels = outcomes[3].levels
        # The rebuilt entry replayed the delta log: the redispatched
        # answer is for the *mutated* graph, bit-identical to scratch.
        assert np.array_equal(report_levels,
                              bfs_levels_reference(mutated, 3))


class TestSchedulerBarrier:
    def _service(self, **kw):
        return BFSService(workers=2, window_ms=50.0, seed=0, **kw)

    def test_pending_queries_flush_before_mutation(self):
        svc = self._service()
        spec = "rmat:9"
        base = svc.registry.get(spec)[0].graph
        delta = random_delta(base, num_inserts=6, seed=9)
        # The first query is still sitting in the coalescing window
        # when the mutation arrives — it must see the old graph.
        svc.submit(Query(qid=0, graph=spec, source=5, arrival_ms=0.0))
        svc.submit(Query(qid=1, graph=spec, source=0, arrival_ms=1.0,
                         op="mutate", delta=delta))
        svc.submit(Query(qid=2, graph=spec, source=5, arrival_ms=2.0))
        outcomes = {o.query.qid: o for o in svc.drain()}
        assert np.array_equal(outcomes[0].levels,
                              bfs_levels_reference(base, 5))
        assert np.array_equal(
            outcomes[2].levels,
            bfs_levels_reference(apply_delta(base, delta), 5),
        )

    def test_mutation_produces_no_outcome(self):
        svc = self._service()
        spec = "rmat:9"
        base = svc.registry.get(spec)[0].graph
        svc.submit(Query(qid=0, graph=spec, source=0, arrival_ms=0.0,
                         op="mutate",
                         delta=random_delta(base, num_inserts=2, seed=10)))
        assert svc.drain() == []
        assert svc.registry.graph_version(spec) == 1
        assert svc.registry.stats()["mutations"] == 1

    def test_mutation_without_delta_rejected(self):
        svc = self._service()
        with pytest.raises(ServiceError):
            svc.submit(Query(qid=0, graph="rmat:9", source=0,
                             arrival_ms=0.0, op="mutate"))

    def test_repair_serves_small_insert_only_deltas(self):
        svc = self._service()
        spec = "rmat:10"
        base = svc.registry.get(spec)[0].graph
        delta = random_delta(base, num_inserts=3, seed=11)
        svc.submit(Query(qid=0, graph=spec, source=7, arrival_ms=0.0))
        svc.drain()
        svc.submit(Query(qid=1, graph=spec, source=0, arrival_ms=100.0,
                         op="mutate", delta=delta))
        svc.submit(Query(qid=2, graph=spec, source=7, arrival_ms=101.0))
        outcomes = {o.query.qid: o for o in svc.drain()}
        assert outcomes[2].engine == "repair"
        assert np.array_equal(
            outcomes[2].levels,
            bfs_levels_reference(apply_delta(base, delta), 7),
        )

    def test_deletes_force_recompute(self):
        svc = self._service()
        spec = "rmat:10"
        base = svc.registry.get(spec)[0].graph
        delta = random_delta(base, num_inserts=2, num_deletes=2, seed=12)
        svc.submit(Query(qid=0, graph=spec, source=7, arrival_ms=0.0))
        svc.drain()
        svc.submit(Query(qid=1, graph=spec, source=0, arrival_ms=100.0,
                         op="mutate", delta=delta))
        svc.submit(Query(qid=2, graph=spec, source=7, arrival_ms=101.0))
        outcomes = {o.query.qid: o for o in svc.drain()}
        assert outcomes[2].engine != "repair"
        assert np.array_equal(
            outcomes[2].levels,
            bfs_levels_reference(apply_delta(base, delta), 7),
        )
