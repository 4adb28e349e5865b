"""Bottom-up / double-scan frontier generation (Section III-C, Figure 4).

Five kernels per level, matching the Table V breakdown exactly:

1. ``bu_count``        — partition the status array into wavefront-sized
   segments and count unvisited vertices per segment, O(|V|) read.
2. ``bu_prefix_block`` — first pass of the prefix sum over segment
   counts (block-local scan).
3. ``bu_prefix_spine`` — scan of the block sums (tiny).
4. ``bu_queue_gen``    — re-scan the status array and place each
   unvisited vertex at its global offset: the *globally sorted*
   bottom-up queue (hence "double scan"), O(|V|) read again.
5. ``bu_expand``       — every queued vertex walks its adjacency list
   until it finds a neighbour at the current level, then claims
   ``level+1`` and **early-terminates**. The per-lane scan length is
   data-dependent; lanes in a wavefront wait for their slowest peer, so
   the modelled time is the per-wavefront *max* scan length summed over
   wavefronts (:func:`repro.xbfs.common.wavefront_serialized_steps`).

Early termination is why degree-aware re-arrangement (Table I) works:
fronting high-degree neighbours shortens the expected scan. It is also
why warp-centric workload balancing backfires here (Section IV-A): the
optional ``workload_balanced`` flag rounds every scan up to
wavefront-width chunks, reproducing the degradation.

The *proactive update* (Figure 4's v7→v8 effect): a vertex that found
no neighbour at the current level has scanned its whole list; if that
list contains a neighbour that was itself promoted earlier in this same
pass (smaller queue position), the vertex can immediately take
``level+2``, sparing the next level's work.

Host-side, the expand supports two implementations (``impl=``):

* ``"blocked"`` (default) — a blocked probe loop: adjacency columns
  are gathered in rounds of ``probe_block`` via masked gathers and a
  segment retires the moment it matches, so host traffic is
  proportional to the modelled ``scan_len`` instead of O(|E|)
  (:func:`repro.xbfs.common.blocked_first_match`).
* ``"reference"`` — the original full-gather path, retained as the
  oracle; ``tests/xbfs/test_blocked_expand.py`` proves the two produce
  bit-identical :class:`~repro.xbfs.level.LevelResult`\\ s.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.gcd.kernel import ComputeWork
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.gcd.simulator import GCD
from repro.graph.csr import CSRGraph
from repro.xbfs.common import (
    DEFAULT_PROBE_BLOCK,
    UNVISITED,
    blocked_first_match,
    first_match_per_segment,
    gather_neighbors,
    segment_ids,
    segment_lines_touched,
    wavefront_serialized_steps,
)
from repro.xbfs.frontier import sorted_queue_from_mask
from repro.xbfs.level import LevelResult
from repro.xbfs.scratch import ScratchPool
from repro.xbfs.status import StatusArray
from repro.xbfs.workload import balanced_scan_lengths

__all__ = ["run_level", "STRATEGY", "IMPLS"]

STRATEGY = "bottom_up"

#: Host implementations of the expand: the blocked probe loop and the
#: full-gather reference it is property-tested against.
IMPLS = ("blocked", "reference")

#: Workgroup width used by the prefix-sum kernels (256 threads).
_BLOCK = 256


def _queue_generation(
    status: StatusArray, gcd: GCD, level: int, ratio: float
) -> tuple[np.ndarray, list]:
    """Kernels 1–4: double scan + prefix sum → sorted bottom-up queue."""
    n = status.num_vertices
    wf = gcd.device.wavefront_size
    segments = -(-n // wf)
    blocks = -(-segments // _BLOCK)
    queue = sorted_queue_from_mask(status.unvisited_mask())
    u = int(queue.size)

    records = [
        gcd.launch(
            "bu_count",
            strategy=STRATEGY,
            level=level,
            streams=[
                seq_read("status", n, 4),
                seq_write("seg_counts", segments, 4),
            ],
            work=ComputeWork(flat_ops=float(n)),
            work_items=n,
            bottom_up=True,
            ratio=ratio,
        ),
        gcd.launch(
            "bu_prefix_block",
            strategy=STRATEGY,
            level=level,
            streams=[
                seq_read("seg_counts", segments, 4),
                seq_write("seg_offsets", segments, 4),
                seq_write("block_sums", blocks, 4),
            ],
            work=ComputeWork(flat_ops=float(2 * segments)),
            work_items=segments,
            bottom_up=True,
            ratio=ratio,
        ),
        gcd.launch(
            "bu_prefix_spine",
            strategy=STRATEGY,
            level=level,
            streams=[
                seq_read("block_sums", blocks, 4),
                seq_write("block_offsets", blocks, 4),
            ],
            work=ComputeWork(flat_ops=float(2 * blocks)),
            work_items=blocks,
            bottom_up=True,
            ratio=ratio,
        ),
        gcd.launch(
            "bu_queue_gen",
            strategy=STRATEGY,
            level=level,
            streams=[
                seq_read("status", n, 4),
                seq_read("seg_offsets", segments, 4),
                seq_write("bu_queue", u, 4),
            ],
            work=ComputeWork(flat_ops=float(n)),
            work_items=n,
            bottom_up=True,
            ratio=ratio,
        ),
    ]
    return queue, records


def run_level(
    graph: CSRGraph,
    status: StatusArray,
    level: int,
    gcd: GCD,
    *,
    ratio: float = 0.0,
    proactive: bool = True,
    workload_balanced: bool | None = None,
    reverse_graph: CSRGraph | None = None,
    parents: np.ndarray | None = None,
    impl: str = "blocked",
    probe_block: int = DEFAULT_PROBE_BLOCK,
    scratch: ScratchPool | None = None,
) -> LevelResult:
    """Expand one level bottom-up.

    ``workload_balanced`` defaults to the execution config's
    ``bottom_up_workload_balancing`` flag.

    ``reverse_graph``: an unvisited vertex joins the frontier iff it has
    an *incoming* edge from a frontier vertex, so kernel 5 must walk the
    transpose adjacency (CSC). For the symmetric Graph500-style inputs
    the paper uses, the transpose equals the graph and callers may omit
    it; for directed graphs it is required for correctness.

    ``impl`` selects the host expand implementation (see module docs);
    both produce bit-identical results. ``scratch`` pools the per-level
    temporaries across levels.
    """
    if impl not in IMPLS:
        raise TraversalError(f"unknown bottom-up impl {impl!r}; use one of {IMPLS}")
    if workload_balanced is None:
        workload_balanced = gcd.config.bottom_up_workload_balancing
    incoming = reverse_graph if reverse_graph is not None else graph
    if scratch is None:
        scratch = ScratchPool()
    queue, records = _queue_generation(status, gcd, level, ratio)
    u = int(queue.size)
    wf = gcd.device.wavefront_size
    line = gcd.device.cache_line_bytes

    # ------------------------------------------------------------------
    # Kernel 5: the early-terminating expand (over incoming edges).
    # ------------------------------------------------------------------
    degs = incoming.degrees[queue]
    neighbors = None  # full gather exists only on the reference path
    if impl == "reference":
        neighbors, _owner = gather_neighbors(incoming, queue)
        match = status.levels[neighbors] == level
        first = first_match_per_segment(match, degs)
    else:

        def at_level(cols, _owners):
            lv = np.take(
                status.levels, cols,
                out=scratch.take("bu_col_levels", cols.size, np.int32),
            )
            return np.equal(
                lv, level, out=scratch.take("bu_col_match", cols.size, bool)
            )

        first = blocked_first_match(incoming, queue, at_level, block=probe_block)
    found = first >= 0
    scan_len = np.where(found, first + 1, degs)
    if workload_balanced:
        scan_len_eff = balanced_scan_lengths(scan_len, degs, wf)
    else:
        scan_len_eff = scan_len

    promoted = queue[found]
    status.mark(promoted, level + 1)
    if parents is not None and promoted.size:
        # The matched incoming neighbour (the early-termination hit) is
        # the BFS parent: the edge parent -> child exists by definition
        # of the transpose adjacency.
        hit_pos = incoming.row_offsets[promoted] + first[found]
        parents[promoted] = incoming.col_indices[hit_pos]

    proactive_vertices = np.zeros(0, dtype=np.int64)
    if proactive and promoted.size:
        # Vertices that matched nothing scanned their full list; any
        # neighbour promoted *earlier in queue order* (smaller id — the
        # queue is sorted) was already level+1 when scanned.
        miss = ~found
        if miss.any():
            with scratch.flagged_mask(
                "bu_promoted", status.num_vertices, promoted
            ) as promoted_mask:
                if impl == "reference":
                    owner_vertex = queue[segment_ids(degs)]
                    hit = promoted_mask[neighbors] & (neighbors < owner_vertex)
                    second = first_match_per_segment(hit, degs)
                    candidates = (second >= 0) & miss
                else:

                    def promoted_earlier(cols, owners):
                        pm = np.take(
                            promoted_mask, cols,
                            out=scratch.take("bu_col_promoted", cols.size, bool),
                        )
                        return pm & (cols < queue[owners])

                    # Only the miss segments re-walk their lists; the
                    # retired ones already found a parent at ``level``.
                    second = blocked_first_match(
                        incoming, queue, promoted_earlier,
                        block=probe_block,
                        active=np.flatnonzero(miss),
                    )
                    candidates = second >= 0
            proactive_vertices = queue[candidates]
            status.mark(proactive_vertices, level + 2)
            if parents is not None and proactive_vertices.size:
                hit_pos = (
                    incoming.row_offsets[proactive_vertices]
                    + second[candidates]
                )
                parents[proactive_vertices] = incoming.col_indices[hit_pos]

    edges_inspected = int(scan_len_eff.sum())
    adj_lines = segment_lines_touched(
        incoming.row_offsets[queue],
        scan_len_eff,
        element_bytes=4,
        line_bytes=line,
    )
    divergence = wavefront_serialized_steps(scan_len_eff, wf)
    if gcd.config.bottom_up_bitmap:
        # The paper's "bit status check": probe a packed visited bitmap
        # whose footprint is |V|/8 bytes — 32x denser than the int32
        # levels, so it usually stays L2-resident. (The probe still has
        # to distinguish *which* level a visited neighbour carries only
        # when it matches, a second, rare access folded into the same
        # stream's reuse.)
        status_probe = rand_read(
            "status_bitmap",
            edges_inspected,
            -(-status.num_vertices // 8),
            1,
        )
    else:
        status_probe = rand_read(
            "status",
            edges_inspected,
            status.num_vertices,
            4,
        )
    records.append(
        gcd.launch(
            "bu_expand",
            strategy=STRATEGY,
            level=level,
            streams=[
                seq_read("bu_queue", u, 4),
                rand_read("beg_pos", 2 * u, 2 * u, 8),
                segmented_read("adj_list", edges_inspected, adj_lines, 4),
                status_probe,
                rand_write(
                    "status",
                    int(promoted.size + proactive_vertices.size),
                    int(promoted.size + proactive_vertices.size),
                    4,
                ),
            ],
            work=ComputeWork(
                flat_ops=float(u),
                divergent_probes=float(divergence),
            ),
            work_items=u,
            bottom_up=True,
            ratio=ratio,
        )
    )

    return LevelResult(
        strategy=STRATEGY,
        level=level,
        records=records,
        new_vertices=promoted.astype(np.int64),
        proactive_vertices=proactive_vertices.astype(np.int64),
        queue_for_next=queue,  # superset usable by no-gen single-scan
        queue_exact=False,
        edges_inspected=edges_inspected,
    )
