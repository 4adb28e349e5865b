"""Frontier-exchange pricing for the multi-GCD pod.

The naive distributed exchange ships every remote discovery as an
uncompressed vertex id — 4 bytes per vertex, however dense the level.
GPU-cluster BFS codes (Pan/Pearce/Owens "Scalable BFS on a GPU
Cluster"; Bisson et al.'s Kepler-cluster work) compress the exchange
instead: once a peer's share of the frontier is dense, a bitmap over
that peer's owned vertex range is far smaller than the id list, and on
sparse levels the id list wins back.

:class:`ExchangeCodec` is that decision as a pricing rule. A message is
described by its vertex count and the receiver's owned span;
:meth:`ExchangeCodec.price` returns, for a whole array of messages at
once, each one's wire bytes and whether it ships as a ``bitmap`` (one
bit per vertex of the span, byte-granular) or a ``sparse`` id list,
picked by the :class:`~repro.multigcd.comm.InterconnectModel` α–β cost
model. Both formats are lossless views of the same vertex set, so the
pods never encode one: they price each level's messages and carry the
rows themselves, which is why a codec can change modelled bytes and
exchange time but never a level array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.multigcd.comm import INFINITY_FABRIC, InterconnectModel

__all__ = [
    "FORMAT_SPARSE",
    "FORMAT_BITMAP",
    "WIRE_FORMATS",
    "ID_BYTES",
    "sparse_bytes",
    "bitmap_bytes",
    "ExchangeCodec",
]

#: Wire format shipping one vertex id per discovery (the naive format).
FORMAT_SPARSE = "sparse"
#: Wire format shipping one bit per vertex of the peer's owned range.
FORMAT_BITMAP = "bitmap"
#: Every format a codec may put on the wire.
WIRE_FORMATS = (FORMAT_SPARSE, FORMAT_BITMAP)

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


class ExchangeCodec:
    """Per-message wire-format selection.

    ``mode`` pins the decision: ``"auto"`` (default) picks the format
    with the lower modelled transfer time under ``interconnect``;
    ``"sparse"`` / ``"bitmap"`` force one format — the differential
    tests replay the same traversal under all three and demand
    bit-identical levels.
    """

    def __init__(
        self,
        interconnect: InterconnectModel = INFINITY_FABRIC,
        *,
        mode: str = "auto",
    ) -> None:
        if mode != "auto" and mode not in WIRE_FORMATS:
            raise PartitionError(
                f"exchange mode must be 'auto' or one of {WIRE_FORMATS}, "
                f"got {mode!r}"
            )
        self.interconnect = interconnect
        self.mode = mode

    def message_ms(self, count, span, fmt: str):
        """α–β time of messages in ``fmt``: payload over link bandwidth
        plus one per-message latency (elementwise over arrays)."""
        if fmt == FORMAT_SPARSE:
            size = sparse_bytes(count)
        elif fmt == FORMAT_BITMAP:
            size = bitmap_bytes(span)
        else:
            raise PartitionError(f"unknown wire format {fmt!r}")
        model = self.interconnect
        return size / model.bandwidth * 1e3 + model.latency_us * 1e-3

    def price(self, counts, spans) -> tuple[np.ndarray, np.ndarray]:
        """Price messages of ``counts`` vertices to receivers owning
        ``spans`` vertices: ``(wire bytes, ships as bitmap)`` per
        message.

        Under ``"auto"`` a message ships as a bitmap when that is
        modelled faster. Both formats pay one message latency, so the
        decision reduces to payload bytes; ties keep the sparse id list
        (the raw format — nothing to undo at the receiver)."""
        counts = np.asarray(counts, dtype=np.int64)
        spans = np.asarray(spans, dtype=np.int64)
        if self.mode == "auto":
            bitmap = self.message_ms(counts, spans, FORMAT_BITMAP) < self.message_ms(
                counts, spans, FORMAT_SPARSE
            )
        else:
            bitmap = np.full(np.broadcast(counts, spans).shape, self.mode == FORMAT_BITMAP)
        return np.where(bitmap, bitmap_bytes(spans), sparse_bytes(counts)), bitmap
