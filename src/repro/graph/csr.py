"""Compressed Sparse Row (CSR) graph container.

This is the storage format every engine in the package traverses. It
mirrors the layout the paper assumes when it predicts memory traffic as
``8 * 2|V| + 4 * |M|`` bytes: row offsets ("begin positions") are 8-byte
integers and column indices ("adjacency lists") are 4-byte vertex ids.

The container is immutable after construction; transformation helpers
(:meth:`CSRGraph.reverse`, :meth:`CSRGraph.with_adjacency_order`) return
new instances sharing nothing mutable with the original. Derived data
(degrees, the transpose) is built on first use and memoized per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSRGraph", "coalesce_edge_list"]

#: dtype of ``row_offsets`` — the paper budgets 8 bytes per edge index.
OFFSET_DTYPE = np.int64
#: dtype of ``col_indices`` — the paper budgets 4 bytes per vertex index.
VERTEX_DTYPE = np.int32


def coalesce_edge_list(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *,
    symmetrize: bool = False,
    remove_self_loops: bool = False,
    deduplicate: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalise an edge list prior to CSR construction.

    Parameters
    ----------
    src, dst:
        Equal-length integer arrays of edge endpoints.
    num_vertices:
        Number of vertices; every endpoint must lie in ``[0, num_vertices)``.
    symmetrize:
        Append the reversed edges, turning a directed list into the
        undirected representation Graph500-style BFS traverses.
    remove_self_loops:
        Drop ``u -> u`` edges.
    deduplicate:
        Collapse parallel edges.

    Returns
    -------
    (src, dst):
        Arrays sorted by ``(src, dst)``, ready for :meth:`CSRGraph.from_edges`.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError(
            f"edge endpoints must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
        )
    if src.size:
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= num_vertices:
            raise GraphFormatError(
                f"edge endpoint out of range: saw [{lo}, {hi}] for num_vertices={num_vertices}"
            )
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if remove_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    # Sort by (src, dst) so each adjacency list comes out sorted by id.
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if deduplicate and src.size:
        keep = np.empty(src.size, dtype=bool)
        keep[0] = True
        np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
        src, dst = src[keep], dst[keep]
    return src, dst


@dataclass(frozen=True)
class CSRGraph:
    """An immutable directed graph in CSR form.

    Attributes
    ----------
    row_offsets:
        ``int64`` array of length ``num_vertices + 1``; the adjacency
        list of vertex ``v`` is ``col_indices[row_offsets[v]:row_offsets[v+1]]``.
    col_indices:
        ``int32`` array of length ``num_edges``.
    name:
        Free-form label used in experiment output ("Rmat25", "LJ", ...).
    """

    row_offsets: np.ndarray
    col_indices: np.ndarray
    name: str = "graph"
    #: Memoized derived data: ``"deg"`` (out-degrees) and ``"rev"`` (the
    #: transpose, which :func:`repro.graph.delta.apply_delta` carries
    #: forward to the mutated graph).
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.row_offsets, dtype=OFFSET_DTYPE)
        cols = np.ascontiguousarray(self.col_indices, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "row_offsets", offsets)
        object.__setattr__(self, "col_indices", cols)
        self.validate()
        offsets.setflags(write=False)
        cols.setflags(write=False)

    @classmethod
    def from_edges(
        cls,
        src: Iterable[int] | np.ndarray,
        dst: Iterable[int] | np.ndarray,
        num_vertices: int,
        *,
        name: str = "graph",
        symmetrize: bool = False,
        remove_self_loops: bool = False,
        deduplicate: bool = False,
    ) -> "CSRGraph":
        """Build a CSR graph from an edge list.

        The adjacency lists of the result are sorted by neighbour id.
        """
        src_a, dst_a = coalesce_edge_list(
            np.asarray(list(src) if not isinstance(src, np.ndarray) else src),
            np.asarray(list(dst) if not isinstance(dst, np.ndarray) else dst),
            num_vertices,
            symmetrize=symmetrize,
            remove_self_loops=remove_self_loops,
            deduplicate=deduplicate,
        )
        counts = np.bincount(src_a, minlength=num_vertices).astype(OFFSET_DTYPE)
        offsets = np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, dst_a.astype(VERTEX_DTYPE), name=name)

    @classmethod
    def empty(cls, num_vertices: int, *, name: str = "empty") -> "CSRGraph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(
            np.zeros(num_vertices + 1, dtype=OFFSET_DTYPE),
            np.zeros(0, dtype=VERTEX_DTYPE),
            name=name,
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`GraphFormatError` unless the CSR arrays are coherent."""
        offsets, cols = self.row_offsets, self.col_indices
        if offsets.ndim != 1 or offsets.size < 1:
            raise GraphFormatError("row_offsets must be 1-D with at least one entry")
        if cols.ndim != 1:
            raise GraphFormatError("col_indices must be 1-D")
        if offsets[0] != 0:
            raise GraphFormatError(f"row_offsets[0] must be 0, got {offsets[0]}")
        if offsets[-1] != cols.size:
            raise GraphFormatError(
                f"row_offsets[-1]={offsets[-1]} must equal num_edges={cols.size}"
            )
        if offsets.size > 1 and np.any(np.diff(offsets) < 0):
            raise GraphFormatError("row_offsets must be non-decreasing")
        if cols.size:
            lo, hi = int(cols.min()), int(cols.max())
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"col_indices out of range: [{lo}, {hi}] for {self.num_vertices} vertices"
                )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self.row_offsets.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|M|`` (each undirected edge counts twice)."""
        return self.col_indices.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an ``int64`` array (cached, read-only)."""
        cached = self._cache.get("deg")
        if cached is None:
            cached = np.diff(self.row_offsets)
            cached.setflags(write=False)
            self._cache["deg"] = cached
        return cached

    @property
    def average_degree(self) -> float:
        """Mean out-degree; the evaluation narrative keys off this."""
        return self.num_edges / max(1, self.num_vertices)

    @property
    def memory_bytes(self) -> int:
        """Device-resident footprint using the paper's byte budget:
        8-byte offsets and 4-byte vertex ids."""
        return 8 * self.row_offsets.size + 4 * self.col_indices.size

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of vertex ``v``'s adjacency list."""
        if not 0 <= v < self.num_vertices:
            raise GraphFormatError(f"vertex {v} out of range [0, {self.num_vertices})")
        return self.col_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(src, dst)`` pairs; intended for tests, not hot paths."""
        for v in range(self.num_vertices):
            for u in self.neighbors(v):
                yield v, int(u)

    def to_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand back to ``(src, dst)`` arrays (vectorised)."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degrees
        )
        return src, self.col_indices.copy()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """The transpose graph (every edge flipped), memoized per graph.

        Built on first use; every engine on this graph shares the one
        instance."""
        rev = self._cache.get("rev")
        if rev is None:
            src, dst = self.to_edge_arrays()
            rev = CSRGraph.from_edges(
                dst, src, self.num_vertices, name=f"{self.name}^T"
            )
            self._cache["rev"] = rev
        return rev

    def with_adjacency_order(self, order: np.ndarray, *, name: str | None = None) -> "CSRGraph":
        """Return a graph with permuted adjacency storage.

        ``order`` is a permutation of ``range(num_edges)`` that must keep
        each vertex's edges within its own CSR segment; used by
        :mod:`repro.graph.rearrange` for degree-aware neighbour ordering.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (self.num_edges,):
            raise GraphFormatError(
                f"order must have shape ({self.num_edges},), got {order.shape}"
            )
        seg_of = np.searchsorted(self.row_offsets, order, side="right")
        identity_seg = np.searchsorted(
            self.row_offsets, np.arange(self.num_edges), side="right"
        )
        if not np.array_equal(seg_of, identity_seg):
            raise GraphFormatError("adjacency order must not move edges across vertices")
        return CSRGraph(
            self.row_offsets.copy(),
            self.col_indices[order],
            name=name or self.name,
        )

    def subgraph_mask(self, vertex_mask: np.ndarray, *, name: str | None = None) -> "CSRGraph":
        """Induced subgraph keeping the original vertex ids.

        Vertices outside ``vertex_mask`` keep their ids but lose all
        incident edges; this preserves id stability, which the
        multi-GCD partitioner relies on.
        """
        vertex_mask = np.asarray(vertex_mask, dtype=bool)
        if vertex_mask.shape != (self.num_vertices,):
            raise GraphFormatError("vertex_mask must have one entry per vertex")
        src, dst = self.to_edge_arrays()
        keep = vertex_mask[src] & vertex_mask[dst]
        return CSRGraph.from_edges(
            src[keep], dst[keep], self.num_vertices, name=name or f"{self.name}[sub]"
        )

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|M|={self.num_edges}, avg_deg={self.average_degree:.2f})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self.num_vertices, self.num_edges, self.col_indices[:16].tobytes())
        )
