"""Incremental BFS repair for insert-only graph deltas.

When a mutation only *adds* edges, every BFS level can only decrease —
the pre-mutation level array is a valid upper bound on the
post-mutation levels, and the true levels are the unique fixpoint of
edge relaxation. :func:`repair_levels` exploits this: it seeds a
frontier from the heads of the inserted edges (the only vertices that
can improve without a predecessor improving first), then runs rounds
of vectorised relaxation over the *mutated* graph's CSR until no level
moves. Each round's improved vertices become the next frontier through
the flag-scan claim (:func:`~repro.xbfs.common.unique_vertices`).
Because BFS levels are a unique fixpoint, the repaired array is
bit-identical to a from-scratch traversal of the mutated graph — the
property the differential tests pin across every engine tier.

Deletions can *raise* levels, which monotone relaxation cannot express;
the executor's policy layer routes deletes (and large deltas, where a
fresh adaptive traversal is cheaper than touching most of the graph)
to full recompute instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.xbfs.common import UNVISITED, unique_vertices

__all__ = [
    "RepairResult",
    "repair_levels",
    "repair_cost_ms",
    "REPAIR_MS_PER_MEDGE",
    "REPAIR_BASE_MS",
]

#: Modelled repair cost: milliseconds per million *relaxed* edges.
#: Scattered ``minimum.at`` updates are slower per edge than the
#: streaming expand of a fresh traversal — repair wins only because it
#: touches a small affected region, not because its per-edge rate wins.
REPAIR_MS_PER_MEDGE = 25.0

#: Fixed per-repair charge (frontier seeding + level-array copy).
REPAIR_BASE_MS = 0.05

#: Internal "unreached" sentinel; anything >= this maps back to -1.
_INF = np.int64(2) ** 30


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one incremental repair."""

    #: Repaired level array (int32, -1 = unreachable) — bit-identical
    #: to a fresh traversal of the mutated graph.
    levels: np.ndarray
    #: Vertices whose level changed (decreased) during repair.
    affected_vertices: int
    #: Total edges relaxed across every round (the cost driver).
    relaxed_edges: int
    #: Relaxation rounds until fixpoint.
    rounds: int
    #: Modelled repair charge for the virtual clock.
    elapsed_ms: float


def repair_cost_ms(relaxed_edges: int) -> float:
    """Modelled virtual-clock charge for relaxing ``relaxed_edges``."""
    return REPAIR_BASE_MS + relaxed_edges / 1e6 * REPAIR_MS_PER_MEDGE


def _relax_frontier(
    offsets: np.ndarray,
    cols: np.ndarray,
    lv: np.ndarray,
    frontier: np.ndarray,
) -> tuple[np.ndarray, int]:
    """One relaxation round: push ``lv[f] + 1`` along every out-edge of
    ``frontier``; return the vertices that improved and the edge count."""
    starts = offsets[frontier]
    deg = offsets[frontier + 1] - starts
    total = int(deg.sum())
    if total == 0:
        return np.zeros(0, dtype=frontier.dtype), 0
    cum = np.zeros(deg.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=cum[1:])
    idx = np.arange(total, dtype=np.int64) - np.repeat(cum, deg) + np.repeat(starts, deg)
    nbrs = cols[idx]
    cand = np.repeat(lv[frontier] + 1, deg)
    before = lv[nbrs]
    np.minimum.at(lv, nbrs, cand)
    improved = nbrs[lv[nbrs] < before]
    return unique_vertices(improved, lv.size), total


def repair_levels(
    graph: CSRGraph,
    prev_levels: np.ndarray,
    inserts,
) -> RepairResult:
    """Repair ``prev_levels`` (exact for the pre-insert graph) into the
    exact level array of ``graph`` (which already contains ``inserts``).

    ``inserts`` is the insert-only edge batch — an iterable of
    ``(u, v)`` pairs — that transformed the old graph into ``graph``.
    Raises :class:`~repro.errors.TraversalError` on a shape mismatch or
    out-of-range endpoint; deletions are the caller's problem (route to
    recompute).
    """
    n = graph.num_vertices
    prev = np.asarray(prev_levels)
    if prev.shape != (n,):
        raise TraversalError(
            f"repair basis has shape {prev.shape}, graph has {n} vertices"
        )
    lv = prev.astype(np.int64, copy=True)
    lv[lv < 0] = _INF

    pairs = np.asarray(list(inserts), dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise TraversalError("repair delta endpoint out of range")

    relaxed = 0
    rounds = 0
    # Seed: only the heads of inserted edges can improve without a
    # predecessor improving first.
    if pairs.size:
        u, v = pairs[:, 0], pairs[:, 1]
        before = lv[v]
        np.minimum.at(lv, v, lv[u] + 1)
        frontier = unique_vertices(v[lv[v] < before], n)
        relaxed += pairs.shape[0]
    else:
        frontier = np.zeros(0, dtype=np.int64)

    offsets = graph.row_offsets
    cols = graph.col_indices.astype(np.int64)
    affected: set[int] = set(map(int, frontier))
    while frontier.size:
        rounds += 1
        frontier, edges = _relax_frontier(offsets, cols, lv, frontier)
        relaxed += edges
        affected.update(map(int, frontier))

    out = lv.copy()
    out[out >= _INF] = UNVISITED
    return RepairResult(
        levels=out.astype(np.int32),
        affected_vertices=len(affected),
        relaxed_edges=relaxed,
        rounds=rounds,
        elapsed_ms=repair_cost_ms(relaxed),
    )
