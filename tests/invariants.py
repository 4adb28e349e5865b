"""Invariants stated once, shared by the storm, property and overlap tests.

* :func:`check_registry_ledger` — a registry's O(1) running byte total
  equals the O(n) recomputation, and shedding keeps it under budget;
* :func:`check_single_ownership` — every placed graph has one owner,
  that owner is alive, each live replica's placed bytes are those of
  the graphs it owns, and every replica's ledger holds;
* :func:`check_pod_books` — a pod result's clock covers both cost
  pools: what overlap hid, added back, is at least comm + compute;
* :func:`check_overlap_books` — overlap is pure accounting: against
  the same run without it, ``elapsed + overlap_saved`` is the baseline
  elapsed and neither pool nor any level moves;
* :func:`check_conservation` — every submitted query ends in exactly
  one outcome, served or rejected with a typed reason.
"""

from __future__ import annotations

import numpy as np
import pytest

#: ``QueryOutcome.rejected`` kinds, one per typed admission error.
REJECTIONS = ("queue_full", "deadline", "quota")


def check_registry_ledger(registry) -> None:
    assert registry.bytes_cached == registry.recompute_bytes_cached(), (
        "bytes_cached drifted from recomputation"
    )
    # Warm-engine growth may leave one protected entry over budget;
    # with two or more residents shedding must catch up.
    assert registry.bytes_cached <= registry.memory_budget_bytes or len(registry) == 1
    assert len(registry) == len(registry.keys())


def check_single_ownership(router) -> None:
    placement = router.placement
    live = {r.rid for r in router.replicas if r.alive}
    # A dict cannot double-assign, so uniqueness is structural;
    # liveness is the part a bug can break.
    for spec, rid in placement.assignments.items():
        assert rid in live, f"{spec} owned by dead replica {rid}"
    # placed_bytes tracked exactly for live replicas.
    assert placement.placed_bytes == {
        rid: sum(placement.size_of(spec)
                 for spec, owner in placement.assignments.items() if owner == rid)
        for rid in live
    }
    for r in router.replicas:
        check_registry_ledger(r.registry)


def check_pod_books(result) -> None:
    assert result.overlap_saved_ms >= 0
    assert result.elapsed_ms >= max(result.comm_ms, result.compute_ms)
    assert result.elapsed_ms + result.overlap_saved_ms >= (
        result.comm_ms + result.compute_ms
    )
    assert 0 <= result.comm_fraction <= 1


def check_overlap_books(base, over) -> None:
    check_pod_books(over)
    assert over.elapsed_ms + over.overlap_saved_ms == pytest.approx(
        base.elapsed_ms, rel=1e-12
    )
    # Overlap hides latency; it never touches either cost pool.
    assert over.comm_ms == base.comm_ms
    assert over.compute_ms == base.compute_ms
    assert np.array_equal(over.levels, base.levels)


def check_conservation(outcomes, queries) -> None:
    reads = sorted(q.qid for q in queries if not q.is_mutation)
    assert sorted(o.query.qid for o in outcomes) == reads, (
        "a submitted query was lost or answered twice"
    )
    for o in outcomes:
        assert o.served or o.rejected in REJECTIONS, (o.query.qid, o.rejected)
