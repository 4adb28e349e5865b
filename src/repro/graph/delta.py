"""Edge-delta mutations for :class:`~repro.graph.csr.CSRGraph`.

A :class:`GraphDelta` is one batch of edge inserts and deletes with
*set semantics*: inserting an edge that already exists is a no-op,
deleting an edge removes every parallel copy, and an edge may not
appear on both sides of one delta. :func:`apply_delta` merges a delta
into the graph's sorted adjacency (and into its memoized transpose,
when it has one) and returns a fresh canonical CSR — bit-identical to
building the mutated edge list from scratch with
:meth:`CSRGraph.from_edges` — so the graphs the registry
serves after a mutation are indistinguishable from cold builds of the
post-mutation edge set.

Deltas are immutable, hashable, JSON-round-trippable (the ``repro
mutate`` trace op) and deterministic to generate
(:func:`random_delta`), which is what the mutation differential tests
and the repair-vs-recompute bench replay against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError, MutationError
from repro.graph.csr import CSRGraph

__all__ = ["GraphDelta", "apply_delta", "random_delta"]


def _normalise(edges) -> tuple[tuple[int, int], ...]:
    """Sorted, deduplicated ``((u, v), ...)`` tuple of int pairs."""
    out = set()
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError) as exc:
            raise MutationError(f"delta edge {pair!r} is not a (u, v) pair") from exc
        u, v = int(u), int(v)
        if u < 0 or v < 0:
            raise MutationError(f"delta edge ({u}, {v}) has a negative endpoint")
        out.add((u, v))
    return tuple(sorted(out))


@dataclass(frozen=True)
class GraphDelta:
    """One batch of edge mutations (set semantics, canonical order).

    ``inserts`` and ``deletes`` are normalised to sorted, deduplicated
    tuples on construction, so two deltas describing the same mutation
    compare (and hash) equal whatever order they were written in.
    """

    inserts: tuple[tuple[int, int], ...] = ()
    deletes: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", _normalise(self.inserts))
        object.__setattr__(self, "deletes", _normalise(self.deletes))
        overlap = set(self.inserts) & set(self.deletes)
        if overlap:
            raise MutationError(
                f"delta inserts and deletes overlap on {sorted(overlap)[:4]}; "
                f"split the mutation into two ordered deltas instead"
            )

    # ------------------------------------------------------------------
    @property
    def num_inserts(self) -> int:
        return len(self.inserts)

    @property
    def num_deletes(self) -> int:
        return len(self.deletes)

    @property
    def num_edges(self) -> int:
        """Total edge endpoints touched by this delta."""
        return len(self.inserts) + len(self.deletes)

    @property
    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes

    @property
    def insert_only(self) -> bool:
        """True when the delta never removes an edge — the shape the
        incremental BFS repair path can consume (levels only ever
        decrease under inserts)."""
        return not self.deletes

    # ------------------------------------------------------------------
    def validate(self, num_vertices: int) -> None:
        """Raise :class:`MutationError` when any endpoint is out of range.

        The message names the first such pair, inserts before deletes.
        """
        pairs = (*self.inserts, *self.deletes)
        hi = np.array(pairs, dtype=np.int64).reshape(-1, 2).max(axis=1)
        bad = np.flatnonzero(hi >= num_vertices)
        if bad.size:
            u, v = pairs[bad[0]]
            raise MutationError(
                f"delta edge ({u}, {v}) out of range for {num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able record (the trace-op payload)."""
        rec: dict = {}
        if self.inserts:
            rec["insert"] = [[u, v] for u, v in self.inserts]
        if self.deletes:
            rec["delete"] = [[u, v] for u, v in self.deletes]
        return rec

    @classmethod
    def from_dict(cls, rec: dict) -> "GraphDelta":
        return cls(
            inserts=tuple((int(u), int(v)) for u, v in rec.get("insert", ())),
            deletes=tuple((int(u), int(v)) for u, v in rec.get("delete", ())),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GraphDelta(+{self.num_inserts} edges, -{self.num_deletes} edges)"


def _row_bases(counts: np.ndarray) -> np.ndarray:
    """``src * |V|`` for every edge of a CSR with per-row ``counts``."""
    n = counts.size
    return np.repeat(np.arange(n, dtype=np.int64) * n, counts)


def _sorted_keys(graph: CSRGraph) -> np.ndarray:
    """Every edge of ``graph`` as an ascending ``src * |V| + dst`` int64 key.

    A canonical CSR is already in key order, so this is one pass; an
    adjacency stored out of id order (:meth:`CSRGraph.with_adjacency_order`)
    is sorted here.
    """
    keys = _row_bases(graph.degrees) + graph.col_indices
    if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
        keys.sort()
    return keys


def _sorted_cols(graph: CSRGraph) -> np.ndarray:
    """``graph.col_indices`` with every row in neighbour-id order.

    A canonical CSR passes through untouched (one compare pass: every
    descent must sit at a row start); an adjacency stored out of id
    order (:meth:`CSRGraph.with_adjacency_order`) is sorted here.
    """
    cols = graph.col_indices
    offsets = graph.row_offsets
    descents = np.flatnonzero(cols[1:] < cols[:-1]) + 1
    if np.array_equal(offsets[np.searchsorted(offsets, descents)], descents):
        return cols
    return (_sorted_keys(graph) - _row_bases(graph.degrees)).astype(cols.dtype)


def _pair_keys(pairs: np.ndarray, num_vertices: int) -> np.ndarray:
    """Ascending ``u * |V| + v`` keys of an ``(k, 2)`` array of pairs."""
    return np.sort(pairs[:, 0] * int(num_vertices) + pairs[:, 1])


def _bisect(
    cols: np.ndarray, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray, side: str
) -> np.ndarray:
    """``searchsorted(cols[lo[i]:hi[i]], vals[i], side) + lo[i]`` for
    every ``i`` at once: one bisection step per round over all pairs,
    so k lookups cost O(k log d) instead of an O(|M|) key array."""
    lo, hi = lo.copy(), hi.copy()
    open_ = lo < hi
    while open_.any():
        mid = (lo + hi) >> 1
        probe = cols[np.where(open_, mid, 0)]
        right = open_ & ((probe < vals) if side == "left" else (probe <= vals))
        lo = np.where(right, mid + 1, lo)
        hi = np.where(open_ & ~right, mid, hi)
        open_ = lo < hi
    return lo


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], hi[i])`` over every ``i``."""
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    return np.repeat(lo - starts, counts) + np.arange(counts.sum())


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _merge(graph: CSRGraph, inserts: np.ndarray, deletes: np.ndarray) -> CSRGraph:
    """Merge sorted, distinct ``u * |V| + v`` insert and delete keys
    into ``graph``.

    Each key is located in its row's sorted adjacency by :func:`_bisect`.
    A delete cuts out the run of its parallel copies, an insert not
    already present lands at its slot, and ``row_offsets`` is rebuilt
    from the per-row counts.
    """
    n = graph.num_vertices
    cols = _sorted_cols(graph)
    offsets = graph.row_offsets
    counts = graph.degrees.copy()
    if deletes.size:
        rows, vals = np.divmod(deletes, n)
        lo = _bisect(cols, offsets[rows], offsets[rows + 1], vals, "left")
        hi = _bisect(cols, lo, offsets[rows + 1], vals, "right")
        np.subtract.at(counts, rows, hi - lo)
        cols = np.delete(cols, _ranges(lo, hi))
        offsets = _offsets(counts)
    if inserts.size:
        # Ascending keys: inserts sharing one slot go in in id order.
        rows, vals = np.divmod(inserts, n)
        lo = _bisect(cols, offsets[rows], offsets[rows + 1], vals, "left")
        fresh = lo == _bisect(cols, lo, offsets[rows + 1], vals, "right")
        np.add.at(counts, rows[fresh], 1)
        cols = np.insert(cols, lo[fresh], vals[fresh])
        offsets = _offsets(counts)
    return CSRGraph(offsets, cols, name=graph.name)


def apply_delta(graph: CSRGraph, delta: GraphDelta) -> CSRGraph:
    """Return the mutated graph as a fresh canonical CSR.

    Set semantics: deletes drop every parallel copy of each listed
    edge, inserts that already exist are skipped. Each delta edge is
    found by bisecting its row, O(k log d), and the adjacency is cut
    and spliced in one O(|M|) copy, with no re-sort and no |M|-sized
    key array. The output is bit-identical to
    :meth:`CSRGraph.from_edges` on the mutated edge list. The input
    graph is never touched (CSR containers are immutable).

    When ``graph`` has already memoized its :meth:`~CSRGraph.reverse`,
    the output's reverse is the same merge applied to that reverse with
    every pair flipped, so no graph version ever rebuilds its transpose
    from scratch. A graph without one hands none on.
    """
    delta.validate(graph.num_vertices)
    n = graph.num_vertices
    inserts = np.asarray(delta.inserts, dtype=np.int64).reshape(-1, 2)
    deletes = np.asarray(delta.deletes, dtype=np.int64).reshape(-1, 2)
    out = _merge(graph, _pair_keys(inserts, n), _pair_keys(deletes, n))
    rev = graph._cache.get("rev")
    if rev is not None:
        out._cache["rev"] = _merge(
            rev, _pair_keys(inserts[:, ::-1], n), _pair_keys(deletes[:, ::-1], n)
        )
    return out


def random_delta(
    graph: CSRGraph,
    *,
    num_inserts: int = 0,
    num_deletes: int = 0,
    seed: int = 0,
) -> GraphDelta:
    """Deterministic random delta against ``graph``.

    Inserts are drawn uniformly from vertex pairs *not* currently in
    the graph (no self-loops); deletes uniformly from distinct existing
    edges. Fully determined by ``seed`` — the mutation differential
    tests and ``bench_mutation`` replay these.
    """
    n = graph.num_vertices
    if n < 2 and num_inserts:
        raise GraphFormatError("cannot insert edges into a <2-vertex graph")
    rng = np.random.default_rng(seed)
    keys = _sorted_keys(graph)

    inserts: list[tuple[int, int]] = []
    picked: set[int] = set()
    while len(inserts) < num_inserts:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        key = u * n + v
        if u == v or key in picked:
            continue
        at = int(np.searchsorted(keys, key))
        if at < keys.size and keys[at] == key:
            continue
        picked.add(key)
        inserts.append((u, v))

    deletes: list[tuple[int, int]] = []
    if num_deletes:
        uniq = keys[np.diff(keys, prepend=-1) != 0]  # keys are sorted
        if num_deletes > uniq.size:
            raise GraphFormatError(
                f"cannot delete {num_deletes} distinct edges from a graph "
                f"with {uniq.size}"
            )
        chosen = rng.choice(uniq, size=num_deletes, replace=False)
        deletes = [(int(k) // n, int(k) % n) for k in chosen]
    return GraphDelta(inserts=tuple(inserts), deletes=tuple(deletes))
