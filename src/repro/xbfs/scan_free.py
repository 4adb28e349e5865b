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

from repro.gcd.atomics import AtomicStats, atomic_claim
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD, KernelSpec
from repro.graph.csr import CSRGraph
from repro.xbfs.common import UNVISITED, gather_neighbors, segment_lines_touched
from repro.xbfs.level import LevelResult
from repro.xbfs.scratch import ScratchPool
from repro.xbfs.status import StatusArray
from repro.xbfs.workload import split_for_streams

__all__ = ["run_level", "STRATEGY"]

STRATEGY = "scan_free"


def _expand_chunk(
    graph: CSRGraph,
    status: StatusArray,
    chunk: np.ndarray,
    level: int,
    gcd: GCD,
    parents: np.ndarray | None = None,
) -> tuple[list, ComputeWork, np.ndarray, int, int]:
    """Traverse one frontier chunk; returns (streams, work, winners,
    edges inspected, work items). Mutates ``status`` exactly as the
    racing CAS lanes would; when ``parents`` is given, each winner's
    parent is the frontier vertex whose lane won the CAS race."""
    neighbors, owner = gather_neighbors(graph, chunk)
    e_f = int(neighbors.size)
    winners, cas_stats, slots = atomic_claim(
        status.levels, neighbors, level + 1, expected=int(UNVISITED),
        return_slots=True,
    )
    # The CAS claims wrote ``levels`` in place; keep the incremental
    # visited total honest.
    status.note_visited(int(winners.size))
    if parents is not None and winners.size:
        parents[winners] = chunk[owner[slots]]
    wf = gcd.device.wavefront_size
    enqueue_ops = -(-int(winners.size) // wf) if winners.size else 0
    enqueue_stats = AtomicStats(
        operations=enqueue_ops,
        conflicts=max(0, enqueue_ops - 1),
        distinct_addresses=1 if enqueue_ops else 0,
    )
    line = gcd.device.cache_line_bytes
    adj_lines = segment_lines_touched(
        graph.row_offsets[chunk],
        graph.degrees[chunk],
        element_bytes=4,
        line_bytes=line,
    )
    streams = [
        seq_read("frontier_queue", chunk.size, 4),
        rand_read("beg_pos", 2 * chunk.size, 2 * chunk.size, 8),
        segmented_read("adj_list", e_f, adj_lines, 4),
        rand_read("status", e_f, status.num_vertices, 4),
        rand_write("status", int(winners.size), int(winners.size), 4),
        seq_write("next_queue", int(winners.size), 4),
    ]
    work = ComputeWork(
        flat_ops=float(e_f + chunk.size),
        atomics=cas_stats.merge(enqueue_stats),
    )
    return streams, work, winners, e_f, int(chunk.size)


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
    frontier = np.asarray(frontier, dtype=np.int64)
    chunks = split_for_streams(graph, frontier, gcd.config.num_streams)
    records = []
    all_winners: list[np.ndarray] = []
    edges = 0
    if len(chunks) <= 1:
        chunk = chunks[0] if chunks else frontier
        streams, work, winners, e_f, items = _expand_chunk(
            graph, status, chunk, level, gcd, parents
        )
        records.append(
            gcd.launch(
                "sf_expand",
                strategy=STRATEGY,
                level=level,
                streams=streams,
                work=work,
                work_items=items,
                ratio=ratio,
            )
        )
        all_winners.append(winners)
        edges += e_f
    else:
        specs = []
        for chunk in chunks:
            streams, work, winners, e_f, items = _expand_chunk(
                graph, status, chunk, level, gcd, parents
            )
            specs.append(
                KernelSpec(
                    name="sf_expand",
                    strategy=STRATEGY,
                    level=level,
                    streams=streams,
                    work=work,
                    work_items=items,
                    ratio=ratio,
                )
            )
            all_winners.append(winners)
            edges += e_f
        records.extend(gcd.launch_concurrent(specs))

    new_vertices = (
        np.concatenate(all_winners) if all_winners else np.zeros(0, dtype=np.int64)
    )
    return LevelResult(
        strategy=STRATEGY,
        level=level,
        records=records,
        new_vertices=new_vertices.astype(np.int64),
        queue_for_next=new_vertices.astype(np.int64),
        queue_exact=True,
        edges_inspected=edges,
    )
