"""Memory-budgeted LRU graph registry with versioned dynamic graphs.

CSR construction (and the optional degree re-arrangement) dominates
cold-query cost, so the service keeps built graphs — plus their warm
per-graph engines — in an LRU cache bounded by a byte budget. Keys are
the graph *spec strings* the CLI already understands (``rmat:S[:EF]``,
Table II names, ``file:PATH``), resolved with the same scale factor and
seed for the registry's whole lifetime, so one spec always denotes one
deterministic *base* graph.

Dynamic graphs: :meth:`GraphRegistry.mutate` applies a
:class:`~repro.graph.delta.GraphDelta` (edge insert/delete batch) to a
spec, bumping a monotone per-spec ``version``. The pre-mutation
:class:`RegistryEntry` is *retired* — ``alive`` flips False, its warm
engines are dropped — and a fresh entry at the new version takes its
place, carrying the old entry's cached level arrays as the basis for
incremental BFS repair. The registry keeps the full per-spec delta log,
so a rebuild after eviction (or a cold replica revived after death)
replays every mutation and converges on the same bit-exact graph.

Byte accounting covers the *real* footprint, not just the CSR: engines
attached to ``entry.engines`` are charged their ``warm_bytes`` estimate
(frozen at attach time) into the running total, as are cached level
arrays, so ``bytes_cached`` tracks ``recompute_bytes_cached()`` exactly
and the eviction loop sees partitions and bitmaps — not only graphs.

A cache miss charges a modelled build cost (proportional to the edge
count) onto the virtual clock of whichever worker dispatches the
missing batch; a hit charges nothing. Rejected oversized specs are
negative-cached so a hot unservable spec does not pay a full CSR build
on every probe; the cache clears when the budget changes or the spec
is mutated (either can change the verdict).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import GraphTooLargeError, MutationError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_delta

__all__ = [
    "GraphRegistry",
    "RegistryEntry",
    "EngineSlots",
    "engine_warm_bytes",
    "BUILD_MS_PER_MEDGE",
    "LEVEL_CACHE_SOURCES",
]

#: Modelled CSR-construction cost: milliseconds per million edges.
#: (~200 M edges/s of host-side coalescing + prefix-summing.)
BUILD_MS_PER_MEDGE = 5.0

#: Per-entry bound on cached level arrays (repair bases). LRU beyond it.
LEVEL_CACHE_SOURCES = 32


def engine_warm_bytes(obj) -> int:
    """Warm-footprint estimate for an attached engine.

    Engines advertise a ``warm_bytes`` property (status words, bitmaps,
    partition copies); anything without one — probes, tuples, device
    profiles — charges nothing.
    """
    try:
        return int(getattr(obj, "warm_bytes", 0))
    except (TypeError, ValueError):
        return 0


def _uncharged(delta: int) -> None:
    """Byte hook of a retired entry's slots: nothing is charged."""


class EngineSlots:
    """Engine slots of one entry, charging warm bytes to it.

    The serving stack reads a slot (``get``), attaches an engine
    (``[]=``) and clears every slot when the entry retires. Attach and
    clear report their byte delta to the owning :class:`RegistryEntry`,
    which forwards it to the registry's running total; no other
    mutator exists, so nothing can change a slot behind the byte
    ledger. Charges are frozen at
    attach time so a lazily-growing engine (XBFS building its reverse
    graph on first bottom-up level) cannot desync the O(1) total from
    the O(n) ground truth.
    """

    def __init__(self, notify: Callable[[int], None]) -> None:
        self._notify = notify
        self._engines: dict = {}
        self._charged: dict = {}

    @property
    def charged_bytes(self) -> int:
        """Total warm bytes currently charged for attached engines."""
        return sum(self._charged.values())

    def get(self, key, default=None):
        return self._engines.get(key, default)

    def __len__(self) -> int:
        return len(self._engines)

    def __setitem__(self, key, value) -> None:
        self._engines[key] = value
        new = engine_warm_bytes(value)
        old = self._charged.get(key, 0)
        self._charged[key] = new
        if new != old:
            self._notify(new - old)

    def clear(self) -> None:
        self._engines.clear()
        total = sum(self._charged.values())
        self._charged.clear()
        if total:
            self._notify(-total)


@dataclass
class RegistryEntry:
    """One cached graph *version* plus its warm per-graph state."""

    key: str
    graph: CSRGraph
    #: Modelled one-time construction charge paid on the miss.
    build_ms: float
    #: Monotone per-spec mutation counter; 0 is the base build.
    version: int = 0
    #: False once the entry is evicted or superseded by a mutation.
    #: Dispatching onto a dead entry raises
    #: :class:`~repro.errors.StaleEntryError` — its engines may index a
    #: graph that no longer exists.
    alive: bool = True
    #: Engines (XBFS / ConcurrentBFS / partitions / device profiles)
    #: attached by the executor; byte-charged, evicted with the graph.
    engines: EngineSlots = field(init=False)

    def __post_init__(self) -> None:
        self._on_bytes: Callable[["RegistryEntry", int], None] | None = None
        #: source -> (graph version the levels are exact for, int32 levels)
        self._levels: "OrderedDict[int, tuple[int, np.ndarray]]" = OrderedDict()
        self._level_bytes = 0
        self.engines = EngineSlots(self._bytes_changed)

    def _bytes_changed(self, delta: int) -> None:
        cb = self._on_bytes
        if cb is not None:
            cb(self, delta)

    # ------------------------------------------------------------------
    @property
    def engine_bytes(self) -> int:
        """Warm bytes charged for attached engines (frozen at attach)."""
        return self.engines.charged_bytes

    @property
    def level_bytes(self) -> int:
        """Bytes held by cached level arrays (repair bases)."""
        return self._level_bytes

    @property
    def memory_bytes(self) -> int:
        """Full charged footprint: CSR + warm engines + level cache."""
        return self.graph.memory_bytes + self.engine_bytes + self._level_bytes

    # ------------------------------------------------------------------
    def store_levels(self, source: int, levels: np.ndarray, *,
                     version: int | None = None) -> None:
        """Cache the level array for ``source`` as a future repair basis.

        Stamped with the graph version it is exact for (defaults to this
        entry's version). Bounded to :data:`LEVEL_CACHE_SOURCES` sources,
        LRU; every byte is charged into the registry total.
        """
        arr = np.array(levels, dtype=np.int32, copy=True)
        stamp = self.version if version is None else int(version)
        delta = 0
        old = self._levels.pop(int(source), None)
        if old is not None:
            delta -= old[1].nbytes
        self._levels[int(source)] = (stamp, arr)
        delta += arr.nbytes
        while len(self._levels) > LEVEL_CACHE_SOURCES:
            _src, (_v, dropped) = self._levels.popitem(last=False)
            delta -= dropped.nbytes
        self._level_bytes += delta
        if delta:
            self._bytes_changed(delta)

    def levels_for(self, source: int) -> tuple[int, np.ndarray] | None:
        """Return ``(version, levels)`` cached for ``source``, or None."""
        hit = self._levels.get(int(source))
        if hit is None:
            return None
        self._levels.move_to_end(int(source))
        return hit


class GraphRegistry:
    """LRU cache of built graph versions under a total byte budget.

    Parameters
    ----------
    memory_budget_bytes:
        Total charged bytes (CSR + warm engines + level caches) the
        registry may hold; least-recently-used graphs are evicted to
        make room. Assigning a new budget clears the negative cache of
        rejected specs.
    builder:
        ``spec -> CSRGraph`` resolver for the *base* (version 0) graph.
        Defaults to :func:`repro.cli.parse_graph_spec` with the
        registry's ``scale_factor``/``seed``. Mutations recorded via
        :meth:`mutate` are replayed on top of the base build, so
        rebuilds after eviction converge on the current version.
    """

    def __init__(
        self,
        *,
        memory_budget_bytes: int = 256 * 1024 * 1024,
        builder: Callable[[str], CSRGraph] | None = None,
        scale_factor: int = 64,
        seed: int = 0,
    ) -> None:
        if memory_budget_bytes <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self._memory_budget_bytes = int(memory_budget_bytes)
        self.scale_factor = scale_factor
        self.seed = seed
        self._builder = builder or self._default_builder
        self._entries: OrderedDict[str, RegistryEntry] = OrderedDict()
        #: Running byte total of every cached entry, updated on insert,
        #: evict and engine/level attach — eviction loops must stay
        #: O(evicted), not O(n²).
        self._bytes_cached = 0
        #: Monotone per-spec version counters (survive eviction).
        self._versions: dict[str, int] = {}
        #: Full per-spec mutation history; ``log[i]`` transforms
        #: version ``i`` into ``i + 1``. Survives eviction so rebuilds
        #: replay every delta.
        self._delta_logs: dict[str, list[GraphDelta]] = {}
        #: Negative cache: spec -> bytes it needed when last rejected.
        #: Cleared on budget change and on mutation of the spec.
        self._rejected: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Builds refused with :class:`GraphTooLargeError`. Tracked
        #: apart from ``misses`` so unservable specs never depress the
        #: hit rate of the queries the registry *can* serve.
        self.rejections = 0
        #: Mutations applied via :meth:`mutate` (cold or warm).
        self.mutations = 0

    def _default_builder(self, spec: str) -> CSRGraph:
        from repro.cli import parse_graph_spec  # local: avoid cycle

        return parse_graph_spec(
            spec, scale_factor=self.scale_factor, seed=self.seed
        )

    # ------------------------------------------------------------------
    @property
    def memory_budget_bytes(self) -> int:
        return self._memory_budget_bytes

    @memory_budget_bytes.setter
    def memory_budget_bytes(self, value: int) -> None:
        value = int(value)
        if value <= 0:
            raise ValueError("memory_budget_bytes must be positive")
        self._memory_budget_bytes = value
        # A new budget can change any rejection verdict — forget them.
        self._rejected.clear()

    @property
    def bytes_cached(self) -> int:
        return self._bytes_cached

    def recompute_bytes_cached(self) -> int:
        """O(n) ground truth for the running total (tests assert the
        two never diverge)."""
        return sum(e.memory_bytes for e in self._entries.values())

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> list[str]:
        """Cached specs in LRU order (oldest first)."""
        return list(self._entries)

    def graph_version(self, spec: str) -> int:
        """Current version of ``spec`` (0 when never mutated)."""
        return self._versions.get(spec, 0)

    def deltas_since(self, spec: str, version: int) -> tuple[GraphDelta, ...]:
        """Mutations that transform ``spec``@``version`` into the
        current version, oldest first. Empty when already current."""
        log = self._delta_logs.get(spec, ())
        return tuple(log[int(version):])

    def graph_at_version(self, spec: str, version: int) -> CSRGraph:
        """Reconstruct ``spec`` as it stood at ``version``: the base
        build plus the delta-log prefix. Bypasses the cache and charges
        nothing; :meth:`get` builds a missing entry through it at the
        current version."""
        version = int(version)
        log = self._delta_logs.get(spec, ())
        if not 0 <= version <= len(log):
            raise MutationError(
                f"graph {spec!r} has no version {version}; "
                f"log holds versions 0..{len(log)}"
            )
        graph = self._builder(spec)
        for delta in log[:version]:
            graph = apply_delta(graph, delta)
        return graph

    # ------------------------------------------------------------------
    def _entry_bytes_changed(self, entry: RegistryEntry, delta: int) -> None:
        if self._entries.get(entry.key) is not entry:
            return  # retired/evicted entries are no longer charged
        self._bytes_cached += delta
        if delta > 0:
            self._shed(protect=entry.key)

    def _shed(self, *, protect: str) -> None:
        """Evict LRU entries (never ``protect``) until under budget."""
        while self._bytes_cached > self._memory_budget_bytes:
            victim = next((k for k in self._entries if k != protect), None)
            if victim is None:
                break
            self._evict_key(victim)

    def _insert(self, entry: RegistryEntry) -> None:
        self._evict_for(entry.memory_bytes)
        self._entries[entry.key] = entry
        self._bytes_cached += entry.memory_bytes
        entry._on_bytes = self._entry_bytes_changed

    def _retire(self, entry: RegistryEntry) -> None:
        """Mark ``entry`` dead and drop its warm state (uncharged).

        The slots' notify hook is a bound method of the entry; swapping
        it out breaks the entry → slots → entry cycle, so the retired
        version (graph, reverse and all) is freed by reference counting
        as soon as its last holder lets go.
        """
        entry.alive = False
        entry._on_bytes = None
        entry.engines.clear()
        entry.engines._notify = _uncharged

    def _evict_key(self, key: str) -> RegistryEntry:
        entry = self._entries.pop(key)
        self._bytes_cached -= entry.memory_bytes
        self._retire(entry)
        self.evictions += 1
        return entry

    # ------------------------------------------------------------------
    def get(self, spec: str) -> tuple[RegistryEntry, bool]:
        """Fetch (or build) the current version of ``spec``.

        Returns ``(entry, hit)`` and bumps the entry to
        most-recently-used. Raises
        :class:`~repro.errors.GraphTooLargeError` when the built graph
        alone exceeds the whole budget; the verdict is negative-cached
        so later probes of the same spec skip the build entirely.
        """
        entry = self._entries.get(spec)
        if entry is not None:
            self._entries.move_to_end(spec)
            self.hits += 1
            return entry, True

        needed = self._rejected.get(spec)
        if needed is not None:
            # Cached rejection: same spec, same budget → same verdict,
            # without re-paying the CSR build.
            self.rejections += 1
            raise GraphTooLargeError(
                f"graph {spec!r} needs {needed:,} B but the registry "
                f"budget is {self._memory_budget_bytes:,} B (cached verdict)"
            )

        graph = self.graph_at_version(spec, self.graph_version(spec))
        if graph.memory_bytes > self._memory_budget_bytes:
            # A rejected build is not a miss: the spec can never be
            # served, so it must not depress the hit rate.
            self.rejections += 1
            self._rejected[spec] = graph.memory_bytes
            raise GraphTooLargeError(
                f"graph {spec!r} needs {graph.memory_bytes:,} B but the "
                f"registry budget is {self._memory_budget_bytes:,} B"
            )
        self.misses += 1
        build_ms = graph.num_edges / 1e6 * BUILD_MS_PER_MEDGE
        entry = RegistryEntry(
            key=spec, graph=graph, build_ms=build_ms,
            version=self._versions.get(spec, 0),
        )
        self._insert(entry)
        return entry, False

    # ------------------------------------------------------------------
    def mutate(self, spec: str, delta: GraphDelta) -> RegistryEntry | None:
        """Apply one edge-delta batch to ``spec``, bumping its version.

        Warm path (spec resident): the old entry is retired (``alive``
        flips False, engines dropped — they index the dead version) and
        a fresh entry at the new version is inserted, inheriting the
        old level arrays as repair bases stamped with their original
        version. Returns the new entry, or ``None`` if the mutated
        graph outgrew the budget (the verdict is negative-cached).

        Cold path (spec absent): the delta is appended to the log only;
        the next :meth:`get` replays it. Returns ``None``.

        Either way the mutation is durable: rebuilds after eviction and
        revived-cold replicas replay the full log and converge on the
        same bit-exact graph.
        """
        if not isinstance(delta, GraphDelta):
            raise MutationError(
                f"mutate() needs a GraphDelta, got {type(delta).__name__}"
            )
        if delta.is_empty:
            raise MutationError(f"empty delta for {spec!r}: nothing to apply")

        log = self._delta_logs.setdefault(spec, [])
        entry = self._entries.get(spec)
        if entry is None:
            log.append(delta)
            self._versions[spec] = self._versions.get(spec, 0) + 1
            # Mutation changes the graph's size: any cached rejection
            # verdict is stale.
            self._rejected.pop(spec, None)
            self.mutations += 1
            return None

        new_graph = apply_delta(entry.graph, delta)  # validates endpoints
        log.append(delta)
        version = self._versions.get(spec, 0) + 1
        self._versions[spec] = version
        self._rejected.pop(spec, None)
        self.mutations += 1

        # Retire the pre-mutation entry: callers still holding it must
        # never dispatch onto its engines again.
        basis = entry._levels
        self._entries.pop(spec)
        self._bytes_cached -= entry.memory_bytes
        self._retire(entry)

        if new_graph.memory_bytes > self._memory_budget_bytes:
            self._rejected[spec] = new_graph.memory_bytes
            return None

        build_ms = new_graph.num_edges / 1e6 * BUILD_MS_PER_MEDGE
        fresh = RegistryEntry(
            key=spec, graph=new_graph, build_ms=build_ms, version=version,
        )
        # Carry the level cache forward as repair bases, keeping each
        # array stamped with the version it is exact for.
        for source, (stamp, arr) in basis.items():
            fresh.store_levels(source, arr, version=stamp)
        self._insert(fresh)
        return fresh

    # ------------------------------------------------------------------
    def evict(self, count: int = 1) -> list[str]:
        """Forcibly evict up to ``count`` LRU entries; returns their keys.

        Used by the fault layer's *eviction storms*: a storm drops warm
        graphs (and their engines), so subsequent queries re-pay the
        modelled build and warm-up charges — degraded latency, never
        degraded answers.
        """
        dropped: list[str] = []
        for _ in range(max(0, int(count))):
            if not self._entries:
                break
            key = next(iter(self._entries))
            self._evict_key(key)
            dropped.append(key)
        return dropped

    def _evict_for(self, incoming_bytes: int) -> None:
        while (
            self._entries
            and self._bytes_cached + incoming_bytes > self._memory_budget_bytes
        ):
            self._evict_key(next(iter(self._entries)))

    def stats(self) -> dict:
        """JSON-able counter snapshot."""
        return {
            "graphs_cached": len(self._entries),
            "bytes_cached": self.bytes_cached,
            "engine_bytes": sum(
                e.engine_bytes for e in self._entries.values()
            ),
            "level_bytes": sum(
                e.level_bytes for e in self._entries.values()
            ),
            "memory_budget_bytes": self._memory_budget_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejections": self.rejections,
            "rejected_specs_cached": len(self._rejected),
            "mutations": self.mutations,
            "hit_rate": self.hit_rate,
        }
