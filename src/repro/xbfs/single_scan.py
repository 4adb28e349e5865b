"""Single-scan frontier generation (Section III-B, Figure 3).

Two kernels per level:

* ``ss_queue_gen`` — a full O(|V|) sweep of the status array that
  atomically appends every vertex at the current level into the
  frontier queue (the paper's first kernel; its FetchSize is exactly
  ``4|V|`` bytes, visible as the constant ~131073 KB rows of Table IV).
* ``ss_expand`` — traverses the queued frontier and writes ``level+1``
  into unvisited neighbours' status *without atomics*: racing lanes all
  write the same value, so the data race is benign. Avoiding the CAS
  and the duplicate enqueues is what makes single-scan beat scan-free
  at moderate ratios even though it reads more bytes (the paper's
  level-2 observation in Table VI). The host finds the vertices those
  lanes write with the flag-scan claim
  (:func:`~repro.xbfs.common.unique_vertices`), not a sort.

The *no-frontier-generation* variant skips ``ss_queue_gen`` entirely
when the previous level already produced a usable queue (exactly the
next frontier when coming from scan-free; a superset — the bottom-up
queue — when coming from bottom-up, in which case the expand kernel
first filters entries by status).
"""

from __future__ import annotations

import numpy as np

from repro.gcd.atomics import enqueue_stats
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs.common import (
    UNVISITED,
    gather_neighbors,
    launch_level,
    unique_vertices,
    walk_reads,
)
from repro.xbfs.level import LevelResult
from repro.xbfs.scratch import ScratchPool
from repro.xbfs.status import StatusArray

__all__ = ["run_level", "STRATEGY"]

STRATEGY = "single_scan"


def _queue_gen(
    status: StatusArray, level: int, gcd: GCD, ratio: float
) -> tuple[np.ndarray, list]:
    """The O(|V|) status sweep building the current frontier queue."""
    frontier = status.at_level(level)
    record = gcd.launch(
        "ss_queue_gen",
        strategy=STRATEGY,
        level=level,
        streams=[
            seq_read("status", status.num_vertices, 4),
            seq_write("frontier_queue", int(frontier.size), 4),
        ],
        work=ComputeWork(
            flat_ops=float(status.num_vertices),
            atomics=enqueue_stats(int(frontier.size), gcd.device.wavefront_size),
        ),
        work_items=status.num_vertices,
        ratio=ratio,
    )
    return frontier, [record]


def _expand_chunk(
    graph: CSRGraph,
    status: StatusArray,
    chunk: np.ndarray,
    level: int,
    gcd: GCD,
    *,
    filtered_from: int = 0,
    parents: np.ndarray | None = None,
    scratch: ScratchPool | None = None,
) -> tuple[list, ComputeWork, int, np.ndarray, int]:
    """Inspect/update one frontier chunk non-atomically; returns
    (streams, work, work items, new vertices, edges inspected).

    ``filtered_from`` > 0 means the chunk came out of a superset queue
    of that size (no-gen after bottom-up): the kernel pays one status
    read per queue entry to find the live ones.
    """
    neighbors, owner = gather_neighbors(graph, chunk)
    e_f, walk = walk_reads(
        graph.row_offsets[chunk], graph.degrees[chunk], gcd.device.cache_line_bytes
    )
    if scratch is not None:
        # Pooled |E_f|-sized temporaries: the status gather and the
        # freshness mask are rebuilt every level, never kept.
        nb_levels = np.take(
            status.levels, neighbors,
            out=scratch.take("ss_nb_levels", e_f, np.int32),
        )
        fresh_mask = np.equal(
            nb_levels, UNVISITED, out=scratch.take("ss_fresh_mask", e_f, bool)
        )
    else:
        fresh_mask = status.levels[neighbors] == UNVISITED
    fresh = neighbors[fresh_mask]
    new_vertices = unique_vertices(fresh, status.num_vertices)
    status.mark(new_vertices, level + 1)
    if parents is not None and new_vertices.size:
        # Benign races: any discovering parent is a valid BFS parent;
        # deterministically keep the first write in flat order.
        uniq, first = np.unique(fresh, return_index=True)
        flat_idx = np.flatnonzero(fresh_mask)[first]
        parents[uniq] = chunk[owner[flat_idx]]
    streams = [
        seq_read("frontier_queue", int(chunk.size) + filtered_from, 4),
        *walk,
        rand_read("status", e_f, status.num_vertices, 4),
        rand_write("status", int(fresh.size), int(new_vertices.size), 4),
    ]
    if filtered_from:
        # Superset filtering (no-gen after bottom-up): the bottom-up
        # queue is sorted by vertex id, so the status gather that weeds
        # out stale entries is a monotonic sweep, not a random probe.
        streams.append(seq_read("status_filter", filtered_from, 4))
    work = ComputeWork(flat_ops=float(e_f + chunk.size + filtered_from))
    return streams, work, int(chunk.size), new_vertices, e_f


def run_level(
    graph: CSRGraph,
    status: StatusArray,
    frontier: np.ndarray | None,
    level: int,
    gcd: GCD,
    *,
    ratio: float = 0.0,
    reusable_queue: np.ndarray | None = None,
    queue_exact: bool = False,
    parents: np.ndarray | None = None,
    scratch: ScratchPool | None = None,
) -> LevelResult:
    """Expand one level with single-scan.

    ``frontier`` may be ``None`` when the caller wants the strategy to
    generate it (the normal mode, kernel A). ``reusable_queue`` engages
    the no-frontier-generation variant. ``scratch`` pools the per-level
    gather buffers.
    """
    records = []
    filtered_from = 0
    if reusable_queue is not None:
        if queue_exact:
            frontier = np.asarray(reusable_queue, dtype=np.int64)
        else:
            # Superset queue (bottom-up product): expand filters by status.
            q = np.asarray(reusable_queue, dtype=np.int64)
            frontier = q[status.levels[q] == level]
            filtered_from = int(q.size)
    elif frontier is None:
        frontier, records = _queue_gen(status, level, gcd, ratio)
    frontier = np.asarray(frontier, dtype=np.int64)

    expand_records, products = launch_level(
        gcd, graph, frontier,
        lambda i, chunk: _expand_chunk(
            graph, status, chunk, level, gcd,
            filtered_from=filtered_from if i == 0 else 0,
            parents=parents, scratch=scratch,
        ),
        "ss_expand", strategy=STRATEGY, level=level, ratio=ratio,
    )
    new_vertices = unique_vertices(
        np.concatenate([v for v, _ in products]), graph.num_vertices
    )
    return LevelResult(
        strategy=STRATEGY,
        level=level,
        records=records + expand_records,
        new_vertices=new_vertices,
        queue_for_next=None,  # single-scan regenerates from status next level
        queue_exact=False,
        edges_inspected=sum(e_f for _, e_f in products),
    )
