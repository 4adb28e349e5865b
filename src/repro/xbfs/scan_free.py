"""Scan-free frontier generation (Section III-A, Figure 2).

One kernel. Each lane takes a frontier vertex, walks its adjacency
list, and for every neighbour issues ``atomicCAS(status[w], UNVISITED,
level+1)``; a winning CAS is followed by an atomic enqueue of ``w``
into the next frontier queue (warp-aggregated: one ``atomicAdd`` on the
tail per wavefront-worth of winners). No scan of the status array ever
happens — the queue for the next level materialises as a by-product of
traversal, which is why this strategy is unbeatable while frontiers are
tiny (levels 0–2 and the tail levels of Tables III/VI) and drowns in
atomic traffic and duplicate edge checks once they are not.
"""

from __future__ import annotations

import numpy as np

from repro.gcd.atomics import atomic_claim, enqueue_stats
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs.common import (
    UNVISITED,
    gather_neighbors,
    launch_level,
    walk_reads,
)
from repro.xbfs.level import LevelResult
from repro.xbfs.scratch import ScratchPool
from repro.xbfs.status import StatusArray

__all__ = ["run_level", "STRATEGY"]

STRATEGY = "scan_free"


def _expand_chunk(
    graph: CSRGraph,
    status: StatusArray,
    chunk: np.ndarray,
    level: int,
    gcd: GCD,
    parents: np.ndarray | None = None,
) -> tuple[list, ComputeWork, int, np.ndarray, int]:
    """Traverse one frontier chunk; returns (streams, work, work items,
    winners, edges inspected). Mutates ``status`` exactly as the
    racing CAS lanes would; when ``parents`` is given, each winner's
    parent is the frontier vertex whose lane won the CAS race."""
    neighbors, owner = gather_neighbors(graph, chunk)
    winners, cas_stats, slots = atomic_claim(
        status.levels, neighbors, level + 1, expected=int(UNVISITED),
        return_slots=True,
    )
    # The CAS claims wrote ``levels`` in place; keep the incremental
    # visited total honest.
    status.note_visited(int(winners.size))
    if parents is not None and winners.size:
        parents[winners] = chunk[owner[slots]]
    e_f, walk = walk_reads(
        graph.row_offsets[chunk], graph.degrees[chunk], gcd.device.cache_line_bytes
    )
    streams = [
        seq_read("frontier_queue", chunk.size, 4),
        *walk,
        rand_read("status", e_f, status.num_vertices, 4),
        rand_write("status", int(winners.size), int(winners.size), 4),
        seq_write("next_queue", int(winners.size), 4),
    ]
    work = ComputeWork(
        flat_ops=float(e_f + chunk.size),
        atomics=cas_stats.merge(
            enqueue_stats(int(winners.size), gcd.device.wavefront_size)
        ),
    )
    return streams, work, int(chunk.size), winners, e_f


def run_level(
    graph: CSRGraph,
    status: StatusArray,
    frontier: np.ndarray,
    level: int,
    gcd: GCD,
    *,
    ratio: float = 0.0,
    parents: np.ndarray | None = None,
    scratch: ScratchPool | None = None,
) -> LevelResult:
    """Expand one level scan-free.

    With a 3-stream configuration the frontier is split by degree bins
    into concurrent launches (the CUDA design); with 1 stream it is one
    launch (the AMD consolidation). ``scratch`` is accepted for parity
    with the other strategies (the CAS path allocates only its winner
    arrays).
    """
    records, products = launch_level(
        gcd, graph, np.asarray(frontier, dtype=np.int64),
        lambda _, chunk: _expand_chunk(graph, status, chunk, level, gcd, parents),
        "sf_expand", strategy=STRATEGY, level=level, ratio=ratio,
    )
    new_vertices = np.concatenate([w for w, _ in products]).astype(np.int64)
    return LevelResult(
        strategy=STRATEGY,
        level=level,
        records=records,
        new_vertices=new_vertices,
        queue_for_next=new_vertices,
        queue_exact=True,
        edges_inspected=sum(e_f for _, e_f in products),
    )
