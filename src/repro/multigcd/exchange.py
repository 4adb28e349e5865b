"""Frontier-exchange pricing for the multi-GCD pods.

The naive distributed exchange ships every remote discovery as an
uncompressed vertex id — 4 bytes per vertex, however dense the level.
GPU-cluster BFS codes (Pan/Pearce/Owens "Scalable BFS on a GPU
Cluster"; Bisson et al.'s Kepler-cluster work) compress the exchange
instead: once a peer's share of the frontier is dense, a bitmap over
that peer's owned vertex range is far smaller than the id list, and on
sparse levels the id list wins back.

:func:`price` is that decision. A message is described by its vertex
count and the receiver's owned span; for a whole array of messages at
once, it returns each one's wire bytes and whether it ships as a
``bitmap`` (one bit per vertex of the span, byte-granular) or a
``sparse`` id list. The pick is a byte comparison: both formats pay one
message latency over the same link, so the smaller payload is the
faster message on any interconnect. Both formats are lossless views of
the same vertex set, so the pods never encode one: they price each
level's messages and carry the rows themselves, which is why pricing
can change modelled bytes and exchange time but never a level array.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FORMAT_SPARSE",
    "FORMAT_BITMAP",
    "ID_BYTES",
    "sparse_bytes",
    "bitmap_bytes",
    "price",
]

#: Wire format shipping one vertex id per discovery (the naive format).
FORMAT_SPARSE = "sparse"
#: Wire format shipping one bit per vertex of the peer's owned range.
FORMAT_BITMAP = "bitmap"

#: Bytes per vertex id in the sparse wire format.
ID_BYTES = 4


def sparse_bytes(count):
    """Wire bytes of a ``count``-vertex sparse id-list message
    (elementwise over arrays)."""
    return count * ID_BYTES


def bitmap_bytes(span):
    """Wire bytes of a bitmap over a ``span``-vertex owned range
    (byte-granular: the 64-bit pack words are trimmed on the wire;
    elementwise over arrays)."""
    return -(-span // 8)


def price(counts, spans) -> tuple[np.ndarray, np.ndarray]:
    """Price messages of ``counts`` vertices to receivers owning
    ``spans`` vertices: ``(wire bytes, ships as bitmap)`` per message.

    A message ships as a bitmap when ``bitmap_bytes(span) <
    sparse_bytes(count)``; ties keep the sparse id list (the raw
    format — nothing to undo at the receiver)."""
    sparse = sparse_bytes(np.asarray(counts, dtype=np.int64))
    bitmap = bitmap_bytes(np.asarray(spans, dtype=np.int64))
    ships_bitmap = bitmap < sparse
    return np.where(ships_bitmap, bitmap, sparse), ships_bitmap
