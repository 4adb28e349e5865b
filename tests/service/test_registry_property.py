"""Property test for the registry's accounting invariants.

A seeded random interleaving of cache fills, forced eviction storms
and over-budget admissions must never break:

* ``bytes_cached`` (the O(1) running total) equals the O(n) recomputed
  sum after every operation — including warm-engine and level-cache
  bytes, which charge through the entry back into the running total,
* ``bytes_cached <= memory_budget_bytes`` always holds (when warm
  engines are charged the sole surviving entry may exceed it — the
  shed loop never evicts the entry it is protecting),
* hits + misses never drift (rejections are counted apart),
* engines never outlive their entry: once a key is evicted, the old
  entry object — engines attached — is gone for good; a re-admission
  hands back a fresh entry with an empty engines slot, and
* versions are monotone under interleaved mutations: a superseded or
  evicted entry flips ``alive`` and every rebuild replays the full
  delta log back to the current bit-exact graph.
"""

import numpy as np
import pytest

from repro.errors import GraphTooLargeError
from repro.graph.delta import apply_delta, random_delta
from repro.graph.generators import rmat
from repro.service.registry import LEVEL_CACHE_SOURCES, GraphRegistry
from tests.invariants import check_registry_ledger

#: Spec pool: small servable scales plus one spec that can never fit.
SERVABLE = ("6", "7", "8", "9")
TOO_LARGE = "12"

GRAPHS = {spec: rmat(int(spec), 8, seed=0) for spec in (*SERVABLE, TOO_LARGE)}


def _builder(spec: str):
    return GRAPHS[spec]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_interleaved_storms_hold_invariants(seed):
    rng = np.random.default_rng(seed)
    budget = int(
        GRAPHS["8"].memory_bytes + GRAPHS["9"].memory_bytes
    )  # roughly two of the larger graphs
    reg = GraphRegistry(memory_budget_bytes=budget, builder=_builder)
    assert GRAPHS[TOO_LARGE].memory_bytes > budget

    live_entries: dict[str, object] = {}
    dead_entries: list[tuple[str, object]] = []

    for step in range(300):
        op = rng.random()
        if op < 0.6:
            spec = SERVABLE[int(rng.integers(len(SERVABLE)))]
            entry, hit = reg.get(spec)
            if hit:
                assert live_entries.get(spec) is entry
            else:
                # An evicted entry must never be resurrected.
                assert all(e is not entry for _, e in dead_entries)
                entry.engines["probe"] = ("engine-of", spec, step)
            live_entries[spec] = entry
        elif op < 0.75:
            # Over-budget admission: typed rejection, no accounting
            # drift, nothing cached.
            with pytest.raises(GraphTooLargeError):
                reg.get(TOO_LARGE)
            assert TOO_LARGE not in reg
        else:
            # Forced eviction storm (the fault layer's move).
            reg.evict(int(rng.integers(1, 4)))

        # Reconcile the shadow model with what the registry kept.
        for spec in list(live_entries):
            if spec not in reg:
                dead_entries.append((spec, live_entries.pop(spec)))
        check_registry_ledger(reg)
        assert reg.bytes_cached <= reg.memory_budget_bytes

    stats = reg.stats()
    assert stats["rejections"] > 0
    assert stats["hits"] + stats["misses"] > 0
    # Rejections are excluded from the hit-rate denominator.
    assert stats["hit_rate"] == pytest.approx(
        stats["hits"] / (stats["hits"] + stats["misses"])
    )


def test_evict_everything_zeroes_running_total():
    reg = GraphRegistry(memory_budget_bytes=1 << 30, builder=_builder)
    for spec in SERVABLE:
        reg.get(spec)
    assert reg.bytes_cached == reg.recompute_bytes_cached() > 0
    reg.evict(len(SERVABLE))
    assert len(reg) == 0
    assert reg.bytes_cached == 0 == reg.recompute_bytes_cached()


class _WarmEngine:
    """Sized stand-in for a cached engine (real ones expose
    ``warm_bytes``; unsized probes charge nothing)."""

    def __init__(self, warm_bytes: int) -> None:
        self.warm_bytes = warm_bytes


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mutate_evict_get_storms_hold_invariants(seed):
    """Interleaved gets, warm-engine attaches, level-cache fills,
    mutations and eviction storms: the byte ledger, the alive flags and
    the version counters must all survive any ordering."""
    rng = np.random.default_rng(seed)
    budget = int(GRAPHS["8"].memory_bytes + GRAPHS["9"].memory_bytes)
    reg = GraphRegistry(memory_budget_bytes=budget, builder=_builder)

    current = {spec: GRAPHS[spec] for spec in SERVABLE}  # shadow graphs
    versions = {spec: 0 for spec in SERVABLE}
    live: dict[str, object] = {}
    retired: list[object] = []
    mutations = 0

    for step in range(250):
        spec = SERVABLE[int(rng.integers(len(SERVABLE)))]
        op = rng.random()
        if op < 0.45:
            entry, hit = reg.get(spec)
            assert entry.alive
            assert entry.version == versions[spec]
            if not hit:
                assert all(e is not entry for e in retired)
                # Rebuilds replay the delta log back to the shadow.
                assert np.array_equal(
                    entry.graph.col_indices, current[spec].col_indices
                )
            live[spec] = entry
            if rng.random() < 0.5:
                entry.engines[f"warm{step}"] = _WarmEngine(
                    int(rng.integers(1, GRAPHS[spec].memory_bytes))
                )
            if rng.random() < 0.3:
                src = int(rng.integers(entry.graph.num_vertices))
                entry.store_levels(
                    src, np.zeros(entry.graph.num_vertices, dtype=np.int32)
                )
        elif op < 0.7:
            delta = random_delta(
                current[spec],
                num_inserts=int(rng.integers(1, 6)),
                num_deletes=int(rng.integers(0, 3)),
                seed=1000 * seed + step,
            )
            old = live.pop(spec, None)
            fresh = reg.mutate(spec, delta)
            mutations += 1
            current[spec] = apply_delta(current[spec], delta)
            versions[spec] += 1
            assert reg.graph_version(spec) == versions[spec]
            if old is not None:
                assert not old.alive
                assert old.engines == {}
                retired.append(old)
            if fresh is not None:
                assert fresh.alive and fresh.version == versions[spec]
                live[spec] = fresh
        else:
            reg.evict(int(rng.integers(1, 4)))

        for key in list(live):
            if key not in reg:
                entry = live.pop(key)
                assert not entry.alive
                retired.append(entry)

        # The O(1) ledger always matches the O(n) ground truth —
        # engines and level arrays included.
        check_registry_ledger(reg)

    assert mutations > 0
    assert reg.stats()["mutations"] == mutations
    # Final reconciliation: every resident spec serves its current
    # version, bit-exact against the shadow model.
    for spec in SERVABLE:
        entry, _ = reg.get(spec)
        assert entry.version == versions[spec]
        assert np.array_equal(
            entry.graph.col_indices, current[spec].col_indices
        )


def test_rejections_do_not_depress_hit_rate():
    budget = int(GRAPHS["8"].memory_bytes * 1.5)
    reg = GraphRegistry(memory_budget_bytes=budget, builder=_builder)
    reg.get("8")
    reg.get("8")
    assert reg.hit_rate == pytest.approx(0.5)
    for _ in range(10):
        with pytest.raises(GraphTooLargeError):
            reg.get(TOO_LARGE)
    # Ten unservable probes later the hit rate is untouched.
    assert reg.hit_rate == pytest.approx(0.5)
    assert reg.rejections == 10
    assert reg.misses == 1


@pytest.mark.parametrize("seed", range(8))
def test_level_cache_tail_store_matches_storing_every_source(seed):
    """A dispatch wider than LEVEL_CACHE_SOURCES need store only its
    last LEVEL_CACHE_SOURCES sources: against storing every source —
    over a cache already holding some of them, with bases carried
    across a mutation and a budget tight enough to shed — the cache,
    its byte charges and the registry's evictions all come out the
    same."""
    rng = np.random.default_rng(seed)
    spec, others = "9", ("6", "7", "8")
    n = GRAPHS[spec].num_vertices
    cached = rng.permutation(n)[: int(rng.integers(0, LEVEL_CACHE_SOURCES))]
    width = int(rng.integers(LEVEL_CACHE_SOURCES + 1, 3 * LEVEL_CACHE_SOURCES))
    # The dispatch re-stores some already-cached sources.
    fresh = rng.permutation(np.setdiff1d(np.arange(n), cached))
    overlap = cached[: int(rng.integers(0, cached.size + 1))]
    sources = rng.permutation(
        np.concatenate([overlap, fresh[: width - overlap.size]])
    ).tolist()
    levels = {s: rng.integers(-1, 9, n).astype(np.int32) for s in range(n)}
    headroom = int(rng.integers(0, LEVEL_CACHE_SOURCES - cached.size))
    delta = random_delta(GRAPHS[spec], num_inserts=3, seed=seed)

    def dispatch(stored):
        reg = GraphRegistry(memory_budget_bytes=1 << 30, builder=_builder)
        for other in others:
            reg.get(other)
        entry, _ = reg.get(spec)
        for s in cached.tolist():
            entry.store_levels(s, levels[s])
        # The mutated entry inherits the bases, stamped version 0.
        entry = reg.mutate(spec, delta)
        reg.memory_budget_bytes = reg.bytes_cached + headroom * 4 * n
        deltas = []
        charge = entry._on_bytes

        def spy(e, d):
            deltas.append(d)
            charge(e, d)

        entry._on_bytes = spy
        for s in stored:
            entry.store_levels(s, levels[s])
        return reg, entry, deltas

    reg_all, all_, deltas_all = dispatch(sources)
    reg_tail, tail, deltas_tail = dispatch(sources[-LEVEL_CACHE_SOURCES:])

    assert list(tail._levels) == list(all_._levels)
    assert len(tail._levels) == LEVEL_CACHE_SOURCES
    for src, (stamp, arr) in all_._levels.items():
        tail_stamp, tail_arr = tail._levels[src]
        assert tail_stamp == stamp
        assert np.array_equal(tail_arr, arr)
    assert {stamp for stamp, _ in tail._levels.values()} == {tail.version}
    assert tail.level_bytes == all_.level_bytes
    assert [d for d in deltas_tail if d] == [d for d in deltas_all if d]
    assert reg_tail.bytes_cached == reg_all.bytes_cached
    assert reg_tail.bytes_cached == reg_tail.recompute_bytes_cached()
    assert reg_tail.evictions == reg_all.evictions > 0
    assert reg_tail.keys() == reg_all.keys()
