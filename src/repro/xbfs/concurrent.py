"""Concurrent multi-source BFS (iBFS-style, Liu et al. SIGMOD'16).

The paper's Graph500 framing runs *many* BFS traversals back to back;
its citation [22] (iBFS) batches them: up to 64 sources traverse
together, with a 64-bit status word per vertex — bit *i* set means
"visited by source *i*". A level expands the **union** frontier once,
so adjacency lists shared by several concurrent traversals are fetched
a single time; the win over 64 sequential runs is exactly the sharing
factor of the batch. The 64-bit word is also a natural fit for the
MI250X's 64-lane wavefronts (and exercises ``__popcll``).

On the host the status words are one-word rows of the
:mod:`repro.xbfs.bitmap` frontier matrix, and a run is the bitmap
engines' shared level loop (:class:`~repro.xbfs.bitmap.BitmapBatchEngine`,
which also owns the commit-after-sync fault replay). What is this
engine's own is the per-level plan and the name of its launch. The
plan runs whichever product scans fewer edges: push (scatter-OR along
the frontier's out-edges) or pull (OR-gather over the in-edges of
every vertex some source has not reached, via the graph's memoized
:meth:`~repro.graph.csr.CSRGraph.reverse`). The charge is one modelled
``cb_expand`` launch, the top-down iBFS kernel whichever product ran,
built by the loop's one launch helper
(:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`): the push
expand with the ⊙¬visited mask fused into its per-edge status probe,
then the level's output (next-frontier rows and the level matrix).

This is the library's optional extension of the paper's n-to-n
measurement loop; :class:`ConcurrentBFS` produces per-source level
arrays identical to running :class:`~repro.xbfs.driver.XBFS` once per
source, plus the modelled cost of the shared traversal.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BatchSourceError
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import Decision

__all__ = [
    "ConcurrentBFS",
    "MAX_CONCURRENT",
    "coalescing_key",
    "validate_batch_sources",
]

#: One status bit per source in a 64-bit word.
MAX_CONCURRENT = 64


def validate_batch_sources(
    sources: np.ndarray,
    num_vertices: int,
    *,
    max_batch: int | None = MAX_CONCURRENT,
    engine: str = "concurrent",
) -> None:
    """Reject malformed multi-source batches with a typed error.

    A duplicate source would alias one status bit (two queries sharing
    a level array is fine — two *slots* sharing a bit is a silent
    wrong-cost answer), and an out-of-range source would index the
    status planes out of bounds. Both raise
    :class:`~repro.errors.BatchSourceError` before any modelled cost is
    charged. ``max_batch=None`` skips the capacity check (the multi-GCD
    pods' bitmaps grow a word per 64 sources, with no slot limit).
    """
    k = int(sources.size)
    if k < 1 or (max_batch is not None and k > max_batch):
        cap = "1.." + (str(max_batch) if max_batch is not None else "n")
        raise BatchSourceError(
            f"{engine} batch must hold {cap} sources, got {k}"
        )
    if sources.min() < 0 or sources.max() >= num_vertices:
        raise BatchSourceError(
            f"{engine} batch source out of range [0, {num_vertices})"
        )
    if np.unique(sources).size != k:
        raise BatchSourceError(
            f"{engine} batch sources must be distinct (got {k} slots, "
            f"{int(np.unique(sources).size)} distinct)"
        )


def coalescing_key(
    *,
    force_strategy: str | None = None,
    record_parents: bool = False,
    max_levels: int | None = None,
) -> tuple | None:
    """Batch-compatibility hook for the serving layer.

    Two queries against the same graph may share one
    :class:`ConcurrentBFS` traversal only when neither asks for
    anything the bit-parallel engine cannot honour: a pinned per-level
    strategy, a Graph500 parent array, or a truncated run. Returns a
    hashable key — queries with equal keys coalesce — or ``None`` when
    the request must fall back to a solo
    :class:`~repro.xbfs.driver.XBFS` run.
    """
    if force_strategy is not None or record_parents or max_levels is not None:
        return None
    return ("concurrent",)


class ConcurrentBFS(bm.BitmapBatchEngine):
    """Bit-parallel batched BFS over one simulated GCD."""

    ENGINE = "concurrent"

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the 64-bit visited/frontier status words per vertex."""
        return 16 * self.graph.num_vertices

    def run(self, sources: np.ndarray) -> bm.BitmapBatchResult:
        """Traverse from up to 64 sources simultaneously."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(
            sources, self.graph.num_vertices, max_batch=MAX_CONCURRENT,
            engine=self.ENGINE,
        )
        return self._traverse(sources)

    def _plan(self, level, active, frontier_edges, missing, prev_active, prev):
        """Whichever host product scans fewer edges: push scatters the
        frontier rows along their ``frontier_edges`` out-edges; pull
        OR-gathers the in-edges of every vertex some source has not
        reached yet."""
        cand, pull_edges = bm.pull_candidates(self.graph, missing)
        signals = (("push_edges", frontier_edges), ("pull_edges", pull_edges))
        if pull_edges < frontier_edges:
            return Decision(self.ENGINE, "pull scans fewer edges", signals), cand
        return Decision(self.ENGINE, "push scans fewer edges", signals), None

    def _charge(self, gcd, level, active, cand, fresh, newly, counts):
        """The top-down iBFS expand whichever product ran on the host:
        one ``cb_expand`` push launch over the frontier rows
        (:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`), its
        cost computed from the frontier and its discoveries only."""
        return self._launch(gcd, "cb_expand", level, active, fresh, newly, counts)
