"""Bit-packed frontier bitmaps shared by the linear-algebra engines.

The linear-algebra view of BFS replaces per-vertex frontier queues with
a Boolean matrix: entry ``(v, s)`` means "vertex *v* is on source *s*'s
frontier". Both the fixed-direction baseline
(:class:`repro.baselines.linalg.LinAlgBFS`, one source) and the batched
serving engine (:class:`repro.xbfs.linalg_batch.LinAlgBatchBFS`, up to
:data:`~repro.xbfs.linalg_batch.MAX_LINALG_BATCH` sources) operate on
the same representation: the source axis packed 64-to-a-word into a
``(num_vertices, words)`` ``uint64`` array, so one AND/OR retires 64
sources and the masked semiring product

    next = (Aᵀ · F) ⊙ ¬visited

is a handful of word-wide vector ops. This module is the single
implementation of those packbits frontier ops — the scatter-OR push
product, the segment-OR pull gather, the ``¬visited`` mask, the
pack/unpack conversions, and the bit-sliced level counter that tracks
every pair's BFS level in packed planes. Both multi-source engines
(:class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS` and the 64-source
:class:`~repro.xbfs.concurrent.ConcurrentBFS`) run on it; they differ
only in *which* product they run per level and what cost they charge,
never in the arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.xbfs.common import gather_adjacency

__all__ = [
    "WORD_BITS",
    "words_for",
    "make_bitmap",
    "set_source_bits",
    "full_row_mask",
    "scatter_or_rows",
    "segment_or_rows",
    "push_product",
    "pull_product",
    "fresh_mask",
    "occupied_rows",
    "popcount_rows",
    "pack_rows",
    "unpack_rows",
    "counter_add",
    "counter_levels",
]

#: Sources per bitmap word.
WORD_BITS = 64

_WORD = np.uint64
_ONE = np.uint64(1)


def words_for(num_sources: int) -> int:
    """Words needed to hold one bit per source."""
    if num_sources < 1:
        raise TraversalError(
            f"a bitmap needs at least one source, got {num_sources}"
        )
    return (num_sources + WORD_BITS - 1) // WORD_BITS


def make_bitmap(num_vertices: int, num_sources: int) -> np.ndarray:
    """All-zero ``(num_vertices, words)`` uint64 bitmap."""
    return np.zeros((num_vertices, words_for(num_sources)), dtype=_WORD)


def set_source_bits(bitmap: np.ndarray, sources: np.ndarray) -> None:
    """Set bit *i* on row ``sources[i]`` (slot *i* owns bit *i*).

    Callers must have rejected duplicate sources already — two slots on
    one row would alias a single bit (the same hazard
    :func:`repro.xbfs.concurrent.validate_batch_sources` guards).
    """
    sources = np.asarray(sources, dtype=np.int64)
    slots = np.arange(sources.size, dtype=np.int64)
    np.bitwise_or.at(
        bitmap,
        (sources, slots // WORD_BITS),
        _ONE << (slots % WORD_BITS).astype(_WORD),
    )


def full_row_mask(num_sources: int) -> np.ndarray:
    """One row's worth of "every source" bits: all words saturated,
    the last word masked down to the valid source count."""
    words = words_for(num_sources)
    mask = np.full(words, ~np.uint64(0), dtype=_WORD)
    tail = num_sources % WORD_BITS
    if tail:
        mask[-1] = (_ONE << np.uint64(tail)) - _ONE
    return mask


def scatter_or_rows(
    dest: np.ndarray, rows: np.ndarray, values: np.ndarray
) -> None:
    """``dest[rows[i]] |= values[i]`` with duplicate rows accumulated.

    The push-direction semiring product: ``rows`` are the gathered
    neighbour endpoints of the frontier's adjacency, ``values`` the
    frontier words of the edge's owner. One call is the whole
    ``Aᵀ · F`` column scatter for a level.
    """
    np.bitwise_or.at(dest, rows, values)


def segment_or_rows(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-segment OR-reduction of consecutive bitmap rows.

    The pull-direction gather: segment *i* holds the frontier words of
    candidate *i*'s in-neighbours; the reduction is that candidate's
    incoming bit set. Zero-length segments reduce to zero words.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros((lengths.size, values.shape[1]), dtype=_WORD)
    if values.shape[0] == 0 or lengths.size == 0:
        return out
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    out[nonempty] = np.bitwise_or.reduceat(values, starts, axis=0)
    return out


def push_product(
    graph: CSRGraph, frontier: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Push product ``Aᵀ · F``: scatter-OR along the frontier's out-edges.

    Every occupied row ``active`` ORs its frontier words into its
    out-neighbours' rows."""
    incoming = np.zeros_like(frontier)
    scatter_or_rows(
        incoming,
        gather_adjacency(graph, active),
        np.repeat(frontier[active], graph.degrees[active], axis=0),
    )
    return incoming


def pull_product(
    reverse: CSRGraph, frontier: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """Pull product ``Aᵀ · F`` on rows ``cand``: OR-gather over their in-edges.

    Each candidate OR-reduces its in-neighbours' frontier words
    (``reverse`` is the transpose graph); row *i* of the result belongs
    to ``cand[i]``."""
    return segment_or_rows(
        frontier[gather_adjacency(reverse, cand)], reverse.degrees[cand]
    )


def fresh_mask(incoming: np.ndarray, visited: np.ndarray) -> np.ndarray:
    """The masked assign of the Boolean semiring: ``incoming ⊙ ¬visited``."""
    return incoming & ~visited


def occupied_rows(bitmap: np.ndarray) -> np.ndarray:
    """Indices of rows with at least one bit set (int64).

    ORs the word columns together first: a reduction along the short
    word axis costs several times more per row than ``words`` strided
    column ORs.
    """
    union = bitmap[:, 0]
    for w in range(1, bitmap.shape[1]):
        union = union | bitmap[:, w]
    return np.flatnonzero(union).astype(np.int64)


def popcount_rows(bitmap: np.ndarray) -> np.ndarray:
    """Set bits per row (int64) — how many sources each row carries
    (summed column by column, like :func:`occupied_rows`)."""
    counts = np.bitwise_count(bitmap[:, 0]).astype(np.int64)
    for w in range(1, bitmap.shape[1]):
        counts += np.bitwise_count(bitmap[:, w])
    return counts


def pack_rows(bools: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, num_sources)`` bool matrix into bitmap words."""
    bools = np.asarray(bools, dtype=bool)
    rows, k = bools.shape
    words = words_for(max(k, 1))
    bytes_ = np.packbits(bools, axis=1, bitorder="little")
    padded = np.zeros((rows, words * 8), dtype=np.uint8)
    padded[:, : bytes_.shape[1]] = bytes_
    return padded.view("<u8").astype(_WORD, copy=False)


def _unpack_bits_u8(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows to ``(rows, num_sources)`` uint8 zeros/ones."""
    as_bytes = np.ascontiguousarray(packed.astype("<u8", copy=False)).view(
        np.uint8
    )
    return np.unpackbits(as_bytes, axis=1, count=num_sources, bitorder="little")


def unpack_rows(packed: np.ndarray, num_sources: int) -> np.ndarray:
    """Unpack bitmap rows back to a ``(rows, num_sources)`` bool matrix."""
    return _unpack_bits_u8(packed, num_sources).astype(bool)


def counter_add(planes: list[np.ndarray], inc: np.ndarray) -> None:
    """Bit-sliced increment: add 1 to every counter whose bit is set in
    ``inc``.

    ``planes[j]`` holds bit *j* of a per-(vertex, source) binary
    counter, so a batch of 2^j-bounded counts costs *j* bitmap planes
    instead of a dense integer matrix. One call is a carry-save adder
    sweep — word-wide AND/XOR per plane, appending a new plane when the
    carry overflows the current width. Amortized over a traversal the
    sweep touches O(1) planes per level, which is what lets the engine
    track every source's BFS level without ever unpacking a
    ``(sources × vertices)`` matrix inside the level loop.
    """
    carry = inc
    for plane in planes:
        if not carry.any():
            return
        next_carry = plane & carry
        plane ^= carry
        carry = next_carry
    if carry.any():
        planes.append(carry.copy())


def counter_levels(
    planes: list[np.ndarray],
    num_vertices: int,
    num_sources: int,
    *,
    depth: int,
) -> np.ndarray:
    """Decode bit-sliced counters into a ``(num_sources, num_vertices)``
    int32 matrix — one unpack per plane, done once per run.

    With :func:`counter_add` fed ``¬visited`` once per level, the
    decoded count *is* each pair's BFS level: a vertex first visited at
    level *t* was missing from exactly the *t* pre-states before it.
    A traversal of ``depth`` levels reaches nothing deeper than level
    ``depth - 1``, so a count of exactly ``depth`` marks a pair that
    never connected; it decodes to -1.

    The accumulation runs vertex-major — the planes' own layout, so
    every pass is over contiguous memory — as plain weighted integer
    adds of the unpacked 0/1 bytes (an order of magnitude cheaper than
    masked ``where`` stores; the -1 fix-up is one more weighted add),
    and pays a single widening transpose at the very end. An int16
    accumulator covers any depth 15 planes can encode; deeper
    traversals (degenerate path-like graphs) fall back to int32.
    """
    acc_dtype = np.int32 if len(planes) > 15 else np.int16
    acc = np.zeros((num_vertices, num_sources), dtype=acc_dtype)
    for j, plane in enumerate(planes):
        bits = _unpack_bits_u8(plane, num_sources)
        if j == 0:
            acc += bits
        elif j < 8:
            np.left_shift(bits, j, out=bits)
            acc += bits
        else:
            acc += bits.astype(acc_dtype) << acc_dtype(j)
    # depth + (-1 - depth) = -1, and -1 - depth still fits acc_dtype.
    acc += (acc == depth) * acc_dtype(-1 - depth)
    return acc.T.astype(np.int32)
