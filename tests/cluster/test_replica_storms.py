"""Property test: replica-death storms preserve the cluster invariants.

Across seeded storms, after *every* submission:

* single ownership — every placed graph has exactly one owner and
  that owner is alive;
* registry accounting — every replica's running ``bytes_cached``
  equals a from-scratch :meth:`recompute_bytes_cached` (death-time
  mass eviction must not corrupt the totals);
* conservation — every submitted query ends served or typed-rejected,
  exactly once.
"""

import pytest

from repro.cluster import ClusterRouter, death_plan
from repro.errors import AdmissionError
from repro.service.trace import synthetic_trace

SPECS = ("6", "7", "8")
SIZES = {spec: 1 << int(spec) for spec in SPECS}


def _builder(spec: str):
    from repro.graph.generators import rmat

    return rmat(int(spec), 8, seed=int(spec))


def _check_invariants(router: ClusterRouter) -> None:
    live = {r.rid for r in router.replicas if r.alive}
    owners = list(router.placement.assignments.values())
    # Ownership only on live replicas (a dict can't double-assign, so
    # uniqueness is structural; liveness is the part a bug can break).
    for spec, rid in router.placement.assignments.items():
        assert rid in live, f"{spec} owned by dead replica {rid}"
    # placed_bytes tracked exactly for live replicas.
    assert set(router.placement.placed_bytes) == live
    for r in router.replicas:
        assert r.registry.bytes_cached == r.registry.recompute_bytes_cached(), (
            f"replica {r.rid}: bytes_cached drifted from recomputation"
        )
    assert len(owners) == len(set(router.placement.assignments))


@pytest.mark.parametrize("storm_seed", range(6))
def test_death_storm_preserves_invariants(storm_seed):
    trace = synthetic_trace(SPECS, SIZES, num_queries=40, seed=storm_seed,
                            burst=6, mean_gap_ms=4.0, tenants=4)
    router = ClusterRouter(
        replicas=3,
        builder=_builder,
        workers=1,
        window_ms=5.0,
        steal_threshold=2,
        fault_plan=death_plan(seed=storm_seed, probability=0.25,
                              restart_ms=20.0, max_triggers=None),
    )
    rejected = 0
    for q in trace:
        try:
            router.submit(q)
        except AdmissionError:
            rejected += 1
        _check_invariants(router)
    outcomes = router.drain()
    _check_invariants(router)
    # Conservation: one outcome per submitted query.
    assert len(outcomes) == len(trace)
    assert sorted(o.query.qid for o in outcomes) == [q.qid for q in trace]
    served = sum(o.served for o in outcomes)
    typed = sum(o.rejected in ("queue_full", "deadline", "quota")
                for o in outcomes if not o.served)
    assert served + typed == len(trace)
    assert served + rejected >= len(trace) - typed


def test_storms_actually_kill_replicas():
    # Sanity on the storm parameters above: across the seeds, deaths,
    # revivals and re-placements all occur somewhere.
    deaths = revivals = replaced = 0
    for seed in range(6):
        trace = synthetic_trace(SPECS, SIZES, num_queries=40, seed=seed,
                                burst=6, mean_gap_ms=4.0, tenants=4)
        router = ClusterRouter(
            replicas=3, builder=_builder, workers=1, window_ms=5.0,
            steal_threshold=2,
            fault_plan=death_plan(seed=seed, probability=0.25,
                                  restart_ms=20.0, max_triggers=None),
        )
        router.replay(trace)
        counters = router.counters()
        deaths += counters["deaths"]
        revivals += counters["revivals"]
        replaced += counters["replaced_graphs"]
    assert deaths > 0
    assert revivals > 0
    assert replaced > 0
