"""The status array: per-vertex visit level.

Conventional GPU BFS keeps a "status" per vertex — the level at which
it was visited, or a sentinel for unvisited — and every XBFS strategy
is defined by *how it converts the status array into the next frontier
queue*. This module owns that array plus the derived views the kernels
need (unvisited mask, per-level counts, packed visited bitmap for the
bottom-up "bit status check").
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.xbfs.common import UNVISITED

__all__ = ["StatusArray", "UNVISITED"]


class StatusArray:
    """Mutable per-vertex level array with BFS bookkeeping helpers.

    Visited/unvisited totals are maintained *incrementally*: the
    strategies report discoveries through :meth:`mark` /
    :meth:`note_visited`, so :meth:`count_unvisited` and
    :meth:`visited_count` are O(1) reads instead of the O(|V|) rescans
    the per-level classifier loop used to pay. Code that writes
    ``levels`` directly (tests, oracles) can call :meth:`resync`.
    """

    def __init__(self, num_vertices: int):
        if num_vertices < 1:
            raise TraversalError("status array needs at least one vertex")
        self.levels = np.full(num_vertices, UNVISITED, dtype=np.int32)
        self._visited = 0

    @property
    def num_vertices(self) -> int:
        return self.levels.size

    # ------------------------------------------------------------------
    def set_source(self, source: int) -> None:
        """Initialise a run: everything unvisited except the source."""
        if not 0 <= source < self.num_vertices:
            raise TraversalError(
                f"source {source} out of range [0, {self.num_vertices})"
            )
        self.levels.fill(UNVISITED)
        self.levels[source] = 0
        self._visited = 1

    # ------------------------------------------------------------------
    def mark(self, vertices: np.ndarray, level: int) -> None:
        """Assign ``level`` to (previously unvisited) ``vertices`` and
        maintain the incremental visited total."""
        vertices = np.asarray(vertices)
        if vertices.size == 0:
            return
        self.levels[vertices] = level
        self._visited += int(vertices.size)

    def note_visited(self, count: int) -> None:
        """Record discoveries applied to ``levels`` out-of-band (the
        scan-free CAS claims mutate the array in place)."""
        self._visited += int(count)

    def resync(self) -> None:
        """Recount after direct ``levels`` writes."""
        self._visited = int(np.count_nonzero(self.levels != UNVISITED))

    # ------------------------------------------------------------------
    def unvisited_mask(self) -> np.ndarray:
        return self.levels == UNVISITED

    def count_unvisited(self) -> int:
        return self.num_vertices - self._visited

    def at_level(self, level: int) -> np.ndarray:
        """Vertex ids whose status equals ``level`` (ascending id —
        the order a status-array scan would enqueue them)."""
        return np.flatnonzero(self.levels == level).astype(np.int64)

    def visited_count(self) -> int:
        return self._visited

    def visited_bitmap(self) -> np.ndarray:
        """Packed visited bits (1 bit per vertex) — the compact
        representation the bottom-up phase probes; 32x denser than the
        int32 levels (1 bit vs 32), which is why its status sweeps
        stay cheap."""
        return np.packbits(self.levels != UNVISITED)

    def max_level(self) -> int:
        """Deepest assigned level, or -1 if nothing is visited."""
        visited = self.levels[self.levels != UNVISITED]
        return int(visited.max()) if visited.size else -1

    def copy(self) -> "StatusArray":
        out = StatusArray(self.num_vertices)
        out.levels[:] = self.levels
        out._visited = self._visited
        return out

    # ------------------------------------------------------------------
    def validate_against(self, reference_levels: np.ndarray) -> None:
        """Assert exact agreement with an oracle level array."""
        if not np.array_equal(self.levels, reference_levels):
            bad = np.flatnonzero(self.levels != reference_levels)
            raise TraversalError(
                f"status mismatch at {bad.size} vertices, first few: "
                f"{bad[:8].tolist()} (got {self.levels[bad[:8]].tolist()}, "
                f"want {np.asarray(reference_levels)[bad[:8]].tolist()})"
            )
