"""Graph placement: consistent hashing with a size-aware override.

The *placement* third of the serving stack's placement / dispatch /
execution split. Distributed-BFS work (Pan/Pearce/Owens; Bisson et
al.) shows partition placement dominates at scale; the serving
analogue is which replica owns which graph:

* :class:`HashRing` — classic consistent hashing with virtual nodes.
  Keys hash with ``zlib.crc32`` (Python's ``hash()`` is salted per
  process, which would break cross-process determinism). Removing a
  replica only moves *its* keys; everyone else's stay put.
* :class:`PlacementMap` — sticky assignments on top of the ring with
  a size/load-aware override, the same CSR-footprint reasoning as the
  scheduler's distributed-engine routing: when the ring owner already
  holds more than ``balance_factor`` × its fair share of placed CSR
  bytes, the graph goes to the least-loaded live replica instead.
  Assignments are sticky — re-placement happens only on replica death
  — so a graph's cache stays warm on one replica.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, Iterable

from repro.errors import ClusterError

__all__ = ["HashRing", "PlacementMap", "stable_hash"]


def stable_hash(key: str) -> int:
    """Process-independent 32-bit hash (``hash()`` is salted)."""
    return zlib.crc32(key.encode())


class HashRing:
    """Consistent-hash ring over integer replica ids."""

    def __init__(self, vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list[tuple[int, int]] = []  # (hash, replica id)
        self._nodes: set[int] = set()

    def __contains__(self, rid: int) -> bool:
        return rid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[int]:
        return sorted(self._nodes)

    def add(self, rid: int) -> None:
        if rid in self._nodes:
            return
        self._nodes.add(rid)
        for v in range(self.vnodes):
            point = (stable_hash(f"replica{rid}#{v}"), rid)
            bisect.insort(self._points, point)

    def remove(self, rid: int) -> None:
        if rid not in self._nodes:
            return
        self._nodes.discard(rid)
        self._points = [p for p in self._points if p[1] != rid]

    def owner(self, key: str) -> int:
        """The replica owning ``key``: first ring point at or after
        the key's hash, wrapping at the top."""
        if not self._points:
            raise ClusterError("hash ring is empty: no live replica")
        h = stable_hash(key)
        idx = bisect.bisect_left(self._points, (h, -1))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]


class PlacementMap:
    """Sticky graph→replica assignments with load-aware overrides.

    ``size_of`` maps a graph spec to its CSR byte footprint (the same
    number the registry budgets and the scheduler's distributed
    routing thresholds on); ``None`` disables the size override and
    leaves pure consistent hashing.
    """

    def __init__(
        self,
        replica_ids: Iterable[int],
        *,
        size_of: Callable[[str], int] | None = None,
        balance_factor: float = 1.5,
    ) -> None:
        if balance_factor < 1.0:
            raise ClusterError(
                f"balance_factor must be >= 1.0, got {balance_factor}"
            )
        self.ring = HashRing()
        self.size_of = size_of
        self.balance_factor = balance_factor
        #: spec → owning replica id; sticky until the owner dies.
        self.assignments: dict[str, int] = {}
        #: Placed CSR bytes per live replica (running totals).
        self.placed_bytes: dict[int, int] = {}
        #: Times the size-aware override redirected the ring owner.
        self.overrides = 0
        for rid in replica_ids:
            self.add_replica(rid)
        if not len(self.ring):
            raise ClusterError("PlacementMap needs at least one replica")

    # ------------------------------------------------------------------
    @property
    def live_replicas(self) -> list[int]:
        return self.ring.nodes

    def owner_of(self, spec: str) -> int | None:
        """Current owner, ``None`` when the spec was never placed."""
        return self.assignments.get(spec)

    def place(self, spec: str) -> tuple[int, bool]:
        """Owner of ``spec``, assigning it now if unplaced.

        Returns ``(replica_id, newly_placed)``.
        """
        rid = self.assignments.get(spec)
        if rid is not None:
            return rid, False
        rid = self._choose(spec)
        self.assignments[spec] = rid
        self.placed_bytes[rid] += self._size(spec)
        return rid, True

    def _size(self, spec: str) -> int:
        return int(self.size_of(spec)) if self.size_of is not None else 0

    def _choose(self, spec: str) -> int:
        owner = self.ring.owner(spec)
        size = self._size(spec)
        live = self.ring.nodes
        if size and len(live) > 1:
            # Bounded-load check: the ring owner keeps the graph unless
            # it ALREADY holds more than balance_factor x its fair
            # share of the pool (incoming graph included in the pool,
            # so capacity grows as graphs arrive). A redirect to a
            # replica that is not strictly lighter is a no-op, not an
            # override.
            total = sum(self.placed_bytes[r] for r in live) + size
            fair = total / len(live)
            if self.placed_bytes[owner] > self.balance_factor * fair:
                least = min(live, key=lambda r: (self.placed_bytes[r], r))
                if least != owner:
                    self.overrides += 1
                    owner = least
        return owner

    # ------------------------------------------------------------------
    def add_replica(self, rid: int) -> None:
        """Join (or re-join) the ring; existing assignments stay put."""
        self.ring.add(rid)
        self.placed_bytes.setdefault(rid, 0)

    def remove_replica(self, rid: int) -> list[str]:
        """Drop a dead replica and orphan its graphs.

        Returns the orphaned specs in sorted order (deterministic
        re-placement order); the caller re-places them on survivors
        via :meth:`place`.
        """
        self.ring.remove(rid)
        self.placed_bytes.pop(rid, None)
        orphans = sorted(
            spec for spec, owner in self.assignments.items() if owner == rid
        )
        for spec in orphans:
            del self.assignments[spec]
        return orphans

    # ------------------------------------------------------------------
    def balance(self) -> dict:
        """Placement-balance snapshot (JSON-able, deterministic).

        ``balance_ratio`` is max/mean placed bytes over live replicas
        (1.0 = perfectly even, only meaningful once bytes are placed).
        """
        live = self.ring.nodes
        graphs = {rid: 0 for rid in live}
        for owner in self.assignments.values():
            if owner in graphs:
                graphs[owner] += 1
        bytes_by_replica = {rid: self.placed_bytes.get(rid, 0) for rid in live}
        total = sum(bytes_by_replica.values())
        mean = total / len(live) if live else 0.0
        ratio = (
            max(bytes_by_replica.values()) / mean if mean > 0 else 1.0
        )
        return {
            "replicas": len(live),
            "graphs_placed": len(self.assignments),
            "placed_bytes": {str(r): b for r, b in bytes_by_replica.items()},
            "graphs": {str(r): g for r, g in graphs.items()},
            "balance_ratio": ratio,
            "overrides": self.overrides,
        }
