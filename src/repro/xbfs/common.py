"""Shared vectorised kernel helpers.

Every engine needs the same handful of segment operations over CSR
adjacency: gather all neighbours of a frontier, find the first matching
neighbour per vertex (the bottom-up early-termination point), count the
cache lines a partial segment scan touches, and aggregate per-wavefront
divergence. They are implemented once here, loop-free, and validated in
tests against both naive Python and the lane-accurate wavefront
interpreter. The level-replay policy the single-GCD drivers share under
injected device faults (:func:`replay_on_fault`) and the flag-scan
frontier claim every top-down expand dedups with
(:func:`unique_vertices`) live here too.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

from repro.errors import DeviceFaultError, RecoveryExhaustedError, TraversalError
from repro.graph.csr import CSRGraph

__all__ = [
    "gather_adjacency",
    "gather_neighbors",
    "segment_ids",
    "first_match_per_segment",
    "blocked_first_match",
    "shared_arange",
    "segment_lines_touched",
    "wavefront_serialized_steps",
    "replay_on_fault",
    "unique_vertices",
    "UNVISITED",
    "DEFAULT_PROBE_BLOCK",
]

#: Status-array sentinel for "never visited".
UNVISITED = np.int32(-1)

#: Default column-block width of :func:`blocked_first_match` — a few
#: cache lines per round; most hunting-regime probes retire in round 1.
DEFAULT_PROBE_BLOCK = 8

#: :func:`unique_vertices` keeps ``np.unique`` for id lists sparser than
#: one per this many vertices, where O(k log k) beats the O(|V|) flag
#: scan (crossover measured at 2^12..2^20 vertices on a 2-core x86 host).
_FLAG_SCAN_RATIO = 128

_ARANGE = np.zeros(0, dtype=np.int64)

_T = TypeVar("_T")


def shared_arange(n: int) -> np.ndarray:
    """Read-only view of ``arange(n)`` from a shared, grow-only buffer.

    Every segment helper needs a fresh ``0..total`` ramp; at frontier
    peak that is an |E|-sized allocation per call. One cached buffer
    (doubled on growth) serves them all — callers only ever use it as
    an operand, never as an output.
    """
    global _ARANGE
    if _ARANGE.size < n:
        grown = np.arange(max(n, 2 * _ARANGE.size), dtype=np.int64)
        grown.setflags(write=False)
        _ARANGE = grown
    return _ARANGE[:n]


def segment_ids(lengths: np.ndarray) -> np.ndarray:
    """``[0,0,...,1,1,...]`` — which segment each flat slot belongs to."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)


def _check_vertex_ids(ids: np.ndarray, num_vertices: int) -> None:
    # One-pass bounds check: reinterpreting signed ids as unsigned maps
    # any negative id above every valid vertex, so a single max()
    # catches both ends of the range (this runs on every frontier chunk).
    if ids.size and int(ids.view(f"u{ids.itemsize}").max()) >= num_vertices:
        raise TraversalError("frontier contains out-of-range vertex ids")


def unique_vertices(
    ids: np.ndarray, num_vertices: int, levels: np.ndarray | None = None
) -> np.ndarray:
    """``np.unique(ids)`` as ``int64``, keeping only ids still
    :data:`UNVISITED` in ``levels`` when it is given.

    The host form of the device's frontier claim: scatter the ids into
    a |V| flag array and compact it, O(k + |V|) with no hash or sort.
    Ids outside ``[0, num_vertices)`` raise
    :class:`~repro.errors.TraversalError`.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    _check_vertex_ids(ids, num_vertices)
    if ids.size * _FLAG_SCAN_RATIO < num_vertices:
        out = np.unique(ids).astype(np.int64, copy=False)
    else:
        flags = np.zeros(num_vertices, dtype=bool)
        flags[ids] = True
        out = np.flatnonzero(flags)
    return out if levels is None else out[levels[out] == UNVISITED]


def gather_adjacency(graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """Concatenate the adjacency lists of ``vertices`` (no owner map).

    The gather half of :func:`gather_neighbors`, for callers that reduce
    per segment and never need to know which vertex an edge came from.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    _check_vertex_ids(vertices, graph.num_vertices)
    counts = graph.degrees[vertices]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=graph.col_indices.dtype)
    # Flat edge index: each segment's CSR start, shifted back by the
    # slots of the segments before it, plus the running slot number.
    shift = graph.row_offsets[vertices] - (np.cumsum(counts) - counts)
    flat = np.repeat(shift, counts) + shared_arange(total)
    return graph.col_indices[flat]


def gather_neighbors(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the adjacency lists of ``vertices``.

    Returns ``(neighbors, owner_pos)`` where ``owner_pos[i]`` is the
    index *into vertices* whose list produced ``neighbors[i]``. This is
    the edge-parallel expansion every top-down kernel performs.
    """
    neighbors = gather_adjacency(graph, vertices)
    if neighbors.size == 0:
        return neighbors, np.zeros(0, dtype=np.int64)
    return neighbors, segment_ids(graph.degrees[np.asarray(vertices, dtype=np.int64)])


def first_match_per_segment(
    match: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Position of the first ``True`` in each segment, or ``-1``.

    ``match`` is a flat boolean array laid out as consecutive segments
    of the given ``lengths`` (zero-length segments allowed). This is the
    early-termination search of the bottom-up expand kernel, done for
    all segments at once with a single ``minimum.reduceat``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if match.shape != (total,):
        raise TraversalError(
            f"match has shape {match.shape}, segments sum to {total}"
        )
    n = lengths.size
    out = np.full(n, -1, dtype=np.int64)
    if total == 0 or n == 0:
        return out
    seg_begin = np.cumsum(lengths) - lengths
    intra = shared_arange(total) - np.repeat(seg_begin, lengths)
    big = np.int64(1) << 60
    keyed = np.where(match, intra, big)
    nonempty = lengths > 0
    starts = seg_begin[nonempty]
    mins = np.minimum.reduceat(keyed, starts)
    found = mins < big
    idx = np.flatnonzero(nonempty)
    out[idx[found]] = mins[found]
    return out


def blocked_first_match(
    graph: CSRGraph,
    vertices: np.ndarray,
    predicate,
    *,
    block: int = DEFAULT_PROBE_BLOCK,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Early-terminating first-match search over CSR adjacency, done in
    column blocks so host traffic tracks the *scan length*, not O(|E|).

    Semantically identical to ``gather_neighbors`` +
    :func:`first_match_per_segment`: returns, per segment, the position
    of the first neighbour satisfying ``predicate`` (or ``-1``) — but
    gathers adjacency in rounds of ``block`` columns and retires a
    segment the moment a round finds its match. This is the host-side
    analogue of the bottom-up expand lanes' early termination: a lane
    that matches in slot 2 never touches slot 3, and neither do we.

    Parameters
    ----------
    graph:
        CSR adjacency to probe (the transpose for bottom-up).
    vertices:
        Segment owners; segment ``i`` scans ``vertices[i]``'s list.
    predicate:
        ``predicate(cols, owners) -> bool array`` evaluated per gathered
        block; ``owners`` are indices into ``vertices``. Must be pure
        (it may be re-evaluated in any round order).
    block:
        Columns gathered per round (>= 1).
    active:
        Optional segment indices to probe; others keep ``-1`` (the
        proactive second scan only re-walks the miss segments).

    Returns
    -------
    ``int64`` array of length ``len(vertices)``: first-match positions,
    bit-identical to the full-gather reference path.
    """
    if block < 1:
        raise TraversalError(f"probe block must be >= 1, got {block}")
    vertices = np.asarray(vertices, dtype=np.int64)
    n = vertices.size
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    _check_vertex_ids(vertices, graph.num_vertices)
    starts = graph.row_offsets[vertices]
    degs = graph.degrees[vertices]
    if active is None:
        alive = np.flatnonzero(degs > 0)
    else:
        alive = np.asarray(active, dtype=np.int64)
        alive = alive[degs[alive] > 0]
    offset = 0
    while alive.size:
        width = np.minimum(degs[alive] - offset, block)
        total = int(width.sum())
        seg_begin = np.cumsum(width) - width
        intra = shared_arange(total) - np.repeat(seg_begin, width)
        flat = np.repeat(starts[alive] + offset, width) + intra
        cols = graph.col_indices[flat]
        owners = np.repeat(alive, width)
        match = np.asarray(predicate(cols, owners), dtype=bool)
        first = first_match_per_segment(match, width)
        hit = first >= 0
        out[alive[hit]] = offset + first[hit]
        offset += block
        survivors = alive[~hit]
        alive = survivors[degs[survivors] > offset]
    return out


def segment_lines_touched(
    starts: np.ndarray,
    scan_lengths: np.ndarray,
    *,
    element_bytes: int,
    line_bytes: int,
) -> int:
    """Exact count of distinct cache lines covered by partial segment
    scans: segment ``i`` reads elements ``[starts[i], starts[i] +
    scan_lengths[i])`` of a flat array.

    Segments may overlap lines with each other; we deliberately count
    per-segment (no cross-segment dedup) because distinct wavefronts
    fetch their own lines over time and the L2 cannot be assumed to
    hold a neighbour's line by the time another wavefront wants it —
    matching the fetch amplification visible in Table V.
    """
    starts = np.asarray(starts, dtype=np.int64)
    scan_lengths = np.asarray(scan_lengths, dtype=np.int64)
    if starts.shape != scan_lengths.shape:
        raise TraversalError("starts and scan_lengths must align")
    per_line = max(1, line_bytes // element_bytes)
    active = scan_lengths > 0
    if not active.any():
        return 0
    s = starts[active]
    e = s + scan_lengths[active] - 1
    return int((e // per_line - s // per_line + 1).sum())


def wavefront_serialized_steps(scan_lengths: np.ndarray, width: int) -> int:
    """Divergence aggregate: partition work items into consecutive
    wavefronts of ``width`` lanes and sum the per-wavefront *maximum*
    scan length — the number of lock-stepped probe iterations the SIMD
    hardware actually executes. Early-terminated lanes idle until their
    wavefront's longest scan finishes, which is exactly the effect that
    (a) makes workload balancing useless in bottom-up and (b) the
    degree-aware re-arrangement attacks.
    """
    scan_lengths = np.asarray(scan_lengths, dtype=np.int64)
    n = scan_lengths.size
    if n == 0:
        return 0
    pad = (-n) % width
    padded = np.pad(scan_lengths, (0, pad), constant_values=0)
    return int(padded.reshape(-1, width).max(axis=1).sum())


def replay_on_fault(
    attempt: Callable[[], _T],
    gcd,
    recovery,
    tracer,
    *,
    what: str,
    event: str = "recovery.level_restart",
    rollback: Callable[[], None] | None = None,
    **attrs,
) -> tuple[_T, int]:
    """Run ``attempt`` until it completes without an injected device
    fault; return ``(its result, restarts)``.

    The one level-replay policy every single-GCD driver shares: each
    :class:`~repro.errors.DeviceFaultError` counts a restart and emits
    ``event`` (with ``attrs`` and the attempt number), then
    ``rollback`` undoes whatever the attempt had already committed and
    the die is quiesced — the settle sync is charged, so every replay
    stays visible in ``elapsed_ms``. More than
    ``recovery.max_level_restarts`` restarts raise
    :class:`~repro.errors.RecoveryExhaustedError` naming ``what``.
    """
    restarts = 0
    while True:
        try:
            return attempt(), restarts
        except DeviceFaultError as exc:
            restarts += 1
            tracer.event(event, **attrs, attempt=restarts)
            if restarts > recovery.max_level_restarts:
                raise RecoveryExhaustedError(
                    f"{what} still faulting after "
                    f"{recovery.max_level_restarts} restarts: {exc}"
                ) from exc
            if rollback is not None:
                rollback()
            gcd.quiesce()
