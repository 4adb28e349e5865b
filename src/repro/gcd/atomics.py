"""Atomic-operation semantics and accounting.

The scan-free strategy's entire identity is "atomics in two key phases:
status updates and frontier enqueueing". To reproduce its behaviour we
need (a) deterministic GPU-equivalent semantics for batched atomic CAS
and fetch-add issued by thousands of lanes in one level, and (b) a
count of how many of those atomics *conflicted* (multiple lanes hitting
the same address in the same level), because conflicts serialise and
the cost model charges them extra.

Everything here is vectorised: a whole level's worth of atomics is
resolved with ``np.unique`` in one call. GPU execution order within a
level is nondeterministic, but for BFS every racing CAS writes the same
value, so the "first occurrence wins" rule reproduces exactly the set
of winners any real interleaving would produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraversalError

__all__ = ["AtomicStats", "atomic_claim", "enqueue_stats"]


@dataclass
class AtomicStats:
    """Tally of atomic traffic for one kernel launch.

    ``conflicts`` counts *same-address* collisions within the batch —
    the only atomics that serialise on hardware; CAS attempts that
    merely fail (slot already claimed in an earlier level) are plain
    ``operations``.
    """

    operations: int = 0
    conflicts: int = 0

    def merge(self, other: "AtomicStats") -> "AtomicStats":
        return AtomicStats(
            self.operations + other.operations, self.conflicts + other.conflicts
        )


def atomic_claim(
    status: np.ndarray,
    candidates: np.ndarray,
    new_value: int,
    *,
    expected: int,
    return_slots: bool = False,
) -> tuple[np.ndarray, AtomicStats] | tuple[np.ndarray, AtomicStats, np.ndarray]:
    """Batched ``atomicCAS(status[v], expected, new_value)``.

    Parameters
    ----------
    status:
        The status/level array, modified in place.
    candidates:
        Vertex ids the lanes attempt to claim; duplicates model distinct
        lanes racing on the same vertex.
    new_value:
        Value stored by the winning lane.
    expected:
        Only slots currently holding this value can be claimed
        (``UNVISITED`` in BFS).
    return_slots:
        Also return, for each winner, the index into ``candidates`` of
        the winning attempt — the lane that won the race, which is what
        parent recording needs.

    Returns
    -------
    (winners, stats[, slots]):
        ``winners`` — unique vertex ids whose CAS succeeded, in first-
        attempt order; ``stats`` — one operation per candidate, one
        conflict per redundant attempt on an address that was already
        claimed in this batch or earlier; ``slots`` (when requested) —
        winning attempt positions, aligned with ``winners``.
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 1:
        raise TraversalError("atomic_claim expects a flat candidate array")
    ops = int(candidates.size)
    if ops == 0:
        stats = AtomicStats()
        if return_slots:
            return candidates[:0], stats, np.zeros(0, dtype=np.int64)
        return candidates[:0], stats
    first_idx = np.unique(candidates, return_index=True)[1]
    order = np.sort(first_idx)
    firsts = candidates[order]
    claimable = status[firsts] == expected
    winners = firsts[claimable]
    status[winners] = new_value
    # Only duplicates within the batch contend on an address; attempts
    # on already-visited slots fail without serialising.
    stats = AtomicStats(operations=ops, conflicts=ops - int(firsts.size))
    if return_slots:
        return winners, stats, order[claimable].astype(np.int64)
    return winners, stats


def enqueue_stats(n: int, wavefront: int) -> AtomicStats:
    """Atomic traffic of enqueueing ``n`` items on one shared tail.

    The scan-free and single-scan enqueues are warp-aggregated: one
    ``atomicAdd`` on the tail per wavefront-worth of items, so ``n``
    items cost ``ceil(n / wavefront)`` operations on a single address,
    every one but the first colliding with an in-flight peer.
    """
    ops = -(-n // wavefront)
    return AtomicStats(operations=ops, conflicts=max(0, ops - 1))
