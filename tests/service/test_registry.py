"""Tests for the memory-budgeted LRU graph registry."""

import gc
import weakref

import pytest

from repro.errors import GraphTooLargeError
from repro.graph.delta import GraphDelta
from repro.graph.generators import rmat
from repro.graph.stats import pick_sources
from repro.service.registry import GraphRegistry
from repro.xbfs.concurrent import ConcurrentBFS


def _builder(spec: str):
    """Specs are R-MAT scales; one spec → one deterministic graph."""
    return rmat(int(spec), 8, seed=0)


def _registry(budget_bytes: int) -> GraphRegistry:
    return GraphRegistry(memory_budget_bytes=budget_bytes, builder=_builder)


class TestHitsAndMisses:
    def test_first_get_is_a_miss(self):
        reg = _registry(1 << 30)
        entry, hit = reg.get("8")
        assert not hit
        assert entry.graph.num_vertices == 256
        assert reg.misses == 1 and reg.hits == 0

    def test_second_get_is_a_hit_same_object(self):
        reg = _registry(1 << 30)
        first, _ = reg.get("8")
        second, hit = reg.get("8")
        assert hit
        assert second is first
        assert reg.hit_rate == pytest.approx(0.5)

    def test_build_cost_scales_with_edges(self):
        reg = _registry(1 << 30)
        small, _ = reg.get("7")
        big, _ = reg.get("9")
        assert big.build_ms > small.build_ms > 0


class TestEviction:
    def test_lru_evicts_oldest(self):
        g9 = _builder("9")
        g10 = _builder("10")
        # Budget holds the two largest graphs; adding a third must push
        # out the least-recently-used one.
        reg = _registry(g9.memory_bytes + g10.memory_bytes)
        reg.get("8")
        reg.get("9")
        reg.get("8")  # bump 8 to MRU
        reg.get("10")  # evicts until 10 fits — 9 goes first
        assert reg.evictions >= 1
        assert "9" not in reg
        assert reg.bytes_cached <= reg.memory_budget_bytes

    def test_evicted_graph_rebuilds_as_miss(self):
        g9 = _builder("9")
        reg = _registry(int(g9.memory_bytes * 1.2))
        reg.get("9")
        reg.get("8")  # evicts 9 (budget fits only ~one graph)
        _, hit = reg.get("9")
        assert not hit
        assert reg.misses == 3

    def test_eviction_drops_attached_engines(self):
        g9 = _builder("9")
        reg = _registry(int(g9.memory_bytes * 1.2))
        entry, _ = reg.get("9")
        entry.engines["solo"] = object()
        reg.get("8")
        fresh, _ = reg.get("9")
        assert fresh is not entry
        assert fresh.engines == {}

    def test_graph_over_budget_is_typed_error(self):
        reg = _registry(1024)  # smaller than any R-MAT here
        with pytest.raises(GraphTooLargeError):
            reg.get("8")

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            GraphRegistry(memory_budget_bytes=0, builder=_builder)


class TestStats:
    def test_stats_snapshot(self):
        reg = _registry(1 << 30)
        reg.get("8")
        reg.get("8")
        stats = reg.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["graphs_cached"] == 1
        assert stats["bytes_cached"] > 0
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_keys_in_lru_order(self):
        reg = _registry(1 << 30)
        reg.get("8")
        reg.get("9")
        reg.get("8")
        assert reg.keys() == ["9", "8"]

    def test_default_builder_resolves_specs(self):
        reg = GraphRegistry(memory_budget_bytes=1 << 30, scale_factor=64, seed=0)
        entry, _ = reg.get("rmat:8")
        assert entry.graph.num_vertices == 256


class TestRetiredEntriesFreed:
    """A retired version (and its graph, reverse and engines) is freed
    by reference counting the moment its last holder lets go, without
    waiting for the cyclic collector."""

    @pytest.fixture
    def no_gc(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    @staticmethod
    def _warm(reg: GraphRegistry, spec: str):
        entry, _ = reg.get(spec)
        engine = ConcurrentBFS(entry.graph)
        engine.run(pick_sources(entry.graph, 4, seed=0))
        entry.engines["concurrent"] = engine
        return weakref.ref(entry), weakref.ref(entry.graph)

    def test_mutate_frees_retired_version(self, no_gc):
        reg = _registry(1 << 30)
        entry_ref, graph_ref = self._warm(reg, "8")
        assert "rev" in graph_ref()._cache
        fresh = reg.mutate("8", GraphDelta(inserts=((0, 1),)))
        assert fresh is not None and fresh.graph is not graph_ref()
        assert entry_ref() is None
        assert graph_ref() is None

    def test_evict_frees_entry(self, no_gc):
        reg = _registry(1 << 30)
        entry_ref, graph_ref = self._warm(reg, "8")
        assert reg.evict(1) == ["8"]
        assert entry_ref() is None
        assert graph_ref() is None
