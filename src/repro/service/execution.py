"""The execution engine: one dispatch → one (recovered) tier run.

This module is the *execution* third of the serving stack's
placement / dispatch / execution split (placement:
:mod:`repro.cluster.placement`; dispatch — queueing, coalescing,
worker slots, deadlines: :mod:`repro.service.scheduler`).

Seven tiers serve dispatches, each one row of :data:`_TIERS`. Every
dispatch takes one path through :class:`ExecutionEngine`:

1. **repair** — on a mutated graph, re-relax cached level bases when
   the deltas since them allow it;
2. **picker** — else name the tier, first match wins: the multi-GCD
   pod (``multigcd``, or ``grid2d`` with the 2D partition) when the CSR
   outgrows ``distributed_threshold_bytes`` (the 1D pod only when the
   graph has a vertex per GCD); ``linalg_batch`` when a
   batch reaches ``linalg_batch_threshold`` distinct sources or
   outgrows the 64-slot concurrent word; ``concurrent`` for any other
   coalesced batch; ``solo`` XBFS for the rest;
3. **table** — build the tier's engine from its row once per registry
   entry, cached in its version-stamped ``engines`` slot, and call it;
4. **post-run** — every tier's result has one surface
   (``elapsed_ms``, ``sharing_factor``, ``levels_of(source)``,
   ``level_restarts``, ``audit_rows(live)``), so one block serves all
   seven: it emits one ``tier_run`` event (restarts, the tier's
   ``routing`` or ``repair`` record and the rows the result renders for
   its levels), stores the levels as repair bases and builds the
   :class:`Dispatch`.

The breaker's ``serial`` fallback runs the oracle and joins at step 4.
Around the path runs the recovery ladder (see
:meth:`ExecutionEngine.run`); each retry, breaker trip and fallback is
one event on the executor's :class:`~repro.obs.stream.DecisionStream`.
The executor holds no queue and no clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import (
    DeviceFaultError,
    RecoveryExhaustedError,
    ServiceError,
    StaleEntryError,
)
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.multigcd.distributed_bfs import MultiGcdBFS
from repro.multigcd.grid2d import Grid2dBFS
from repro.obs.stream import DecisionStream
from repro.service.metrics import ServiceMetrics
from repro.service.registry import LEVEL_CACHE_SOURCES, RegistryEntry
from repro.service.request import Query
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.concurrent import MAX_CONCURRENT, ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH, LinAlgBatchBFS
from repro.xbfs.repair import REPAIR_BASE_MS, repair_levels

__all__ = [
    "Dispatch",
    "ExecutionEngine",
    "SERIAL_FALLBACK_MS_PER_MEDGE",
    "DEFAULT_REPAIR_MAX_FRACTION",
]

#: Modelled serial-baseline traversal cost charged by the circuit
#: breaker's fallback path: milliseconds per million traversed edges
#: (~20 M edges/s of queue-based CPU BFS — slow, but always correct).
SERIAL_FALLBACK_MS_PER_MEDGE = 50.0

#: Largest cumulative insert batch — as a fraction of the mutated
#: graph's edge count — the incremental-repair tier accepts. Beyond
#: it a fresh adaptive traversal is cheaper than scattered relaxation
#: over most of the graph, so the dispatch recomputes instead.
DEFAULT_REPAIR_MAX_FRACTION = 0.05


class Dispatch(NamedTuple):
    """What :meth:`ExecutionEngine.run` returns for one dispatch."""

    elapsed_ms: float
    sharing_factor: float
    levels_of: Callable[[int], np.ndarray]
    #: The tier that served it (a key of :data:`_TIERS`).
    engine: str


@dataclass
class _LevelArrays:
    """Result of the tiers the executor serves itself, one distinct
    source at a time (repair, serial): nothing is shared and there are
    no per-level decisions to audit."""

    levels: dict[int, np.ndarray]
    elapsed_ms: float
    sharing_factor: float = 1.0
    level_restarts: int = 0

    def levels_of(self, source: int) -> np.ndarray:
        return self.levels[source]

    def audit_rows(self, live) -> tuple:
        return ()


class _Tier(NamedTuple):
    """One row of :data:`_TIERS`. ``build(executor, graph, device=,
    tracer=, injector=)`` makes the engine cached on the registry entry
    and ``call(engine, live, sources)`` runs it; both are None for the
    tiers the executor serves itself. A ``pod`` is rebuilt when the
    executor's ``num_gcds`` no longer matches it."""

    #: Audit stage of the tier's one record per live query.
    stage: str = "routing"
    build: Callable | None = None
    call: Callable | None = None
    pod: bool = False


def _run_solo(engine, live, sources):
    opts = live[0].options
    return engine.run(live[0].source, force_strategy=opts.force_strategy,
                      max_levels=opts.max_levels, record_parents=opts.record_parents)


def _run_batch(engine, live, sources):
    return engine.run(np.asarray(sources, dtype=np.int64))


def _run_pod(engine, live, sources):
    return engine.run_batch(np.asarray(sources, dtype=np.int64))


#: Tier -> row. Every engine replays faulted levels under the
#: executor's recovery policy. The 1D pod keeps the naive exchange; the
#: 2D grid ships with the compressed exchange codec and comm/compute
#: overlap on.
_TIERS = {
    "solo": _Tier(
        build=lambda ex, g, **kw: XBFS(g, recovery=ex.recovery, **kw),
        call=_run_solo,
    ),
    "concurrent": _Tier(
        build=lambda ex, g, **kw: ConcurrentBFS(g, recovery=ex.recovery, **kw),
        call=_run_batch,
    ),
    "linalg_batch": _Tier(
        build=lambda ex, g, **kw: LinAlgBatchBFS(g, recovery=ex.recovery, **kw),
        call=_run_batch,
    ),
    "multigcd": _Tier(
        build=lambda ex, g, **kw: MultiGcdBFS(g, ex.num_gcds, recovery=ex.recovery, **kw),
        call=_run_pod, pod=True,
    ),
    "grid2d": _Tier(
        build=lambda ex, g, **kw: Grid2dBFS(
            g, ex.num_gcds, recovery=ex.recovery, codec=True, overlap=True,
            **kw,
        ),
        call=_run_pod, pod=True,
    ),
    "repair": _Tier(stage="repair"),
    "serial": _Tier(),
}


def _repair(entry, plans) -> tuple[_LevelArrays, dict]:
    """Serve the repair gate's ``(source, basis, inserts)`` plans:
    re-relax each stale basis; copy out each one already exact for
    this version (a level-cache hit, charged only the copy-out)."""
    levels: dict[int, np.ndarray] = {}
    elapsed = 0.0
    relaxed = affected = 0
    for src, basis, inserts in plans:
        if inserts:
            res = repair_levels(entry.graph, basis, inserts)
            levels[src] = res.levels
            elapsed += res.elapsed_ms
            relaxed += res.relaxed_edges
            affected += res.affected_vertices
        else:
            levels[src] = np.array(basis, dtype=np.int32, copy=True)
            elapsed += REPAIR_BASE_MS
    return _LevelArrays(levels, elapsed), dict(
        version=entry.version, sources=len(plans), relaxed_edges=relaxed,
        affected_vertices=affected,
    )


class ExecutionEngine:
    """Runs one ready dispatch on the right engine, recovering faults.

    Stateful only where recovery demands it: the consecutive-failure
    streak and the open circuit breaker's remaining cooldown. Engine
    instances themselves are cached on the registry entry (so they are
    evicted with the graph), never here.
    """

    def __init__(
        self,
        *,
        metrics: ServiceMetrics | None = None,
        num_gcds: int = 4,
        distributed_threshold_bytes: int | None = None,
        linalg_batch_threshold: int | None = None,
        partition: str = "1d",
        fault_injector=None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        audit=None,
    ) -> None:
        if num_gcds < 1:
            raise ServiceError(f"num_gcds must be >= 1, got {num_gcds}")
        if partition not in ("1d", "2d"):
            raise ServiceError(
                f"partition must be '1d' or '2d', got {partition!r}"
            )
        if (
            distributed_threshold_bytes is not None
            and distributed_threshold_bytes < 0
        ):
            raise ServiceError("distributed_threshold_bytes must be >= 0")
        if linalg_batch_threshold is not None and not (
            2 <= linalg_batch_threshold <= MAX_LINALG_BATCH
        ):
            raise ServiceError(
                f"linalg_batch_threshold must be in 2..{MAX_LINALG_BATCH}, "
                f"got {linalg_batch_threshold}"
            )
        #: Pod width of the distributed engine (2/4/8 model one, two or
        #: four MI250X cards' worth of GCDs).
        self.num_gcds = num_gcds
        #: CSR byte footprint above which a graph routes to the
        #: multi-GCD engine; ``None`` disables distributed routing.
        self.distributed_threshold_bytes = distributed_threshold_bytes
        #: Distinct-source count at which a same-graph dispatch routes
        #: to the linear-algebra batch engine; ``None`` disables the
        #: tier (and keeps the scheduler's batch cap at
        #: :data:`~repro.xbfs.concurrent.MAX_CONCURRENT`).
        self.linalg_batch_threshold = linalg_batch_threshold
        #: Decomposition of the distributed tier: ``"1d"`` edge-balanced
        #: rows (``multigcd``) or ``"2d"`` the checkerboard (``grid2d``).
        self.partition = partition
        self.fault_injector = fault_injector
        self.recovery = recovery or DEFAULT_RECOVERY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Routing, repair and recovery decisions, folded into the
        #: metrics, the audit log and the tracer.
        self.stream = DecisionStream(metrics=metrics or ServiceMetrics(),
                                     audit=audit, tracer=self.tracer)
        #: Consecutive dispatches that exhausted their retries.
        self._fault_streak = 0
        #: Dispatches the open circuit breaker still routes serially.
        self._breaker_cooldown_left = 0

    # ------------------------------------------------------------------
    def run(
        self,
        entry: RegistryEntry,
        live: list[Query],
        sources: list[int],
        batched: bool,
        *,
        graph_key: str,
        now_ms: float = 0.0,
        registry=None,
    ) -> Dispatch:
        """Run the engine for one dispatch, recovering from injected
        faults.

        Raises :class:`~repro.errors.StaleEntryError` when ``entry``
        was evicted or superseded by a mutation after the caller
        obtained it — dispatching onto a dead entry's engines could
        serve answers for a graph version that no longer exists.

        ``registry`` (the entry's owning
        :class:`~repro.service.registry.GraphRegistry`) enables the
        incremental-repair tier on mutated graphs; without it every
        post-mutation dispatch recomputes.

        Returns a :class:`Dispatch` — a named tuple, so ``out[3]`` is
        the serving tier's name. An attempt is repair, else picker →
        tier table; a successful one ends in the post-run block every
        tier shares (see the module docstring). Around it runs the
        ladder:

        1. per-level checkpoint/restart *inside* the engine (invisible
           here beyond ``level_restarts``),
        2. dispatch-level retries with exponential backoff in virtual
           time when the engine still fails,
        3. a circuit breaker that, after ``breaker_threshold``
           consecutive exhausted dispatches, routes the next
           ``breaker_cooldown`` dispatches to the serial baseline —
           degraded latency, bit-identical answers.
        """
        if not entry.alive:
            raise StaleEntryError(
                f"dispatch onto dead registry entry {entry.key!r} "
                f"(version {entry.version}): evicted or superseded by a "
                f"mutation — re-fetch from the registry"
            )
        # Only the default option surface leaves solo XBFS: no other
        # tier honours a pinned strategy, parent arrays or a truncated
        # run, and only such runs' levels are valid repair bases.
        default_surface = all(q.options.coalescing_key() is not None for q in live)
        inj = self.fault_injector
        recovery = self.recovery
        if self._breaker_cooldown_left > 0:
            self._breaker_cooldown_left -= 1
            if self._breaker_cooldown_left == 0:
                self._fault_streak = 0  # half-open: next dispatch probes
            return self._serial_fallback(
                entry, live, sources, graph_key, now_ms,
                reason="breaker_open",
                cooldown_left=self._breaker_cooldown_left,
            )

        attempt = 0
        backoff_total = 0.0
        while True:
            try:
                # The worker itself may fault (raising kinds) or run
                # slow (latency kinds scale the modelled elapsed).
                fault_scale = 1.0 if inj is None else inj.visit("service.worker", graph_key)
                plans = self._repair_plans(entry, live, sources, default_surface,
                                           registry, now_ms)
                if plans is not None:
                    tier = "repair"
                    result, detail = _repair(entry, plans)
                else:
                    tier, detail = self._pick(entry, sources, batched, default_surface)
                    result = _TIERS[tier].call(self._engine(entry, tier), live, sources)
            except (DeviceFaultError, RecoveryExhaustedError) as exc:
                attempt += 1
                if attempt > recovery.max_dispatch_retries:
                    self._fault_streak += 1
                    if self._fault_streak >= recovery.breaker_threshold:
                        self._breaker_cooldown_left = recovery.breaker_cooldown
                        self.stream.breaker_trip(graph_key, self._fault_streak)
                    if not recovery.serial_fallback:
                        raise RecoveryExhaustedError(
                            f"dispatch on {graph_key!r} still faulting "
                            f"after {recovery.max_dispatch_retries} "
                            f"retries and serial fallback is disabled: "
                            f"{exc}"
                        ) from exc
                    return self._serial_fallback(
                        entry, live, sources, graph_key, now_ms,
                        reason="retries_exhausted",
                        attempts=attempt,
                    )
                self.stream.retry(graph_key, attempt, recovery.backoff_ms(attempt))
                backoff_total += recovery.backoff_ms(attempt)
            else:
                self._fault_streak = 0
                if attempt > 0 or backoff_total > 0.0:
                    self.stream.recovered(backoff_total)
                return self._finish(entry, live, sources, now_ms, tier, detail,
                                    result, store=default_surface,
                                    fault_scale=fault_scale, backoff_ms=backoff_total)

    # ------------------------------------------------------------------
    @property
    def batch_cap(self) -> int:
        """Distinct sources one dispatch may carry — engine-aware: the
        concurrent engine's 64-bit status word without the linalg tier,
        the bitmap engine's word-extensible cap with it."""
        if self.linalg_batch_threshold is not None:
            return MAX_LINALG_BATCH
        return MAX_CONCURRENT

    @property
    def batch_cap_engine(self) -> str:
        """Name of the engine whose capacity sets :attr:`batch_cap`."""
        if self.linalg_batch_threshold is not None:
            return "linalg_batch"
        return "concurrent"

    def _pick(self, entry: RegistryEntry, sources, batched, default_surface):
        """The tier for one dispatch (first match wins) and the inputs
        behind the pick, for its ``routing`` audit record."""
        footprint = entry.graph.memory_bytes
        k = len(sources)
        size_cut = self.distributed_threshold_bytes
        width_cut = self.linalg_batch_threshold
        tier = "grid2d" if self.partition == "2d" else "multigcd"
        if (default_surface and self.num_gcds >= 2
                and size_cut is not None and footprint > size_cut
                and (tier == "grid2d" or entry.graph.num_vertices >= self.num_gcds)):
            # Graph size dominates: a CSR that outgrows one GCD's
            # residency also outgrows the single-GCD bitmap engine.
            # The 1D pod needs a vertex per GCD; the grid does not.
            return tier, dict(
                footprint_bytes=footprint, distributed_threshold_bytes=size_cut,
                num_gcds=self.num_gcds, partition=self.partition, batch=k,
            )
        if (default_surface and width_cut is not None and k >= 2
                and (k >= width_cut or k > MAX_CONCURRENT)):
            # Batch width: past the threshold — or past the concurrent
            # engine's 64-slot word, which no other batched engine
            # could serve — one masked CSR×matrix product.
            return "linalg_batch", dict(
                batch=k, linalg_batch_threshold=width_cut,
                max_concurrent=MAX_CONCURRENT, footprint_bytes=footprint,
            )
        if batched:
            return "concurrent", dict(batch=k, footprint_bytes=footprint)
        return "solo", dict(batch=1, footprint_bytes=footprint)

    def _finish(self, entry: RegistryEntry, live, sources, now_ms, tier,
                detail, result, *, store, fault_scale=1.0,
                backoff_ms=0.0) -> Dispatch:
        """The post-run block all seven tiers share; ``store`` keeps the
        levels as repair bases."""
        self.stream.tier_run(live, tier, _TIERS[tier].stage, detail, result, now_ms)
        # Cache the level arrays on the entry: they are the repair bases
        # a future mutation relaxes from. Only the last
        # LEVEL_CACHE_SOURCES stores would survive the entry's LRU;
        # storing just those leaves the same contents, order and byte
        # charges.
        if store:
            for src in sources[-LEVEL_CACHE_SOURCES:]:
                entry.store_levels(src, result.levels_of(src))
        return Dispatch(
            result.elapsed_ms * fault_scale + backoff_ms,
            result.sharing_factor,
            result.levels_of,
            tier,
        )

    def _repair_plans(self, entry: RegistryEntry, live, sources,
                      default_surface, registry, now_ms):
        """The incremental-repair gate: one ``(source, basis, inserts)``
        plan per source when a post-mutation dispatch can be served by
        re-relaxing cached level bases instead of recomputing, else
        None.

        Tried only for the default option surface, and eligible only
        when the graph has been mutated (version > 0), every source
        has a cached basis, the deltas since each basis are
        insert-only, and the cumulative insert batch stays under
        :data:`DEFAULT_REPAIR_MAX_FRACTION` of the mutated graph's
        edges. Any declined gate (on a mutated graph) lands one
        ``repair`` audit record explaining why the dispatch recomputed.
        """
        if not default_surface or registry is None or entry.version == 0:
            return None

        max_inserts = DEFAULT_REPAIR_MAX_FRACTION * max(1, entry.graph.num_edges)
        plans: list[tuple[int, "np.ndarray", tuple]] = []
        declined = None
        for src in sources:
            hit = entry.levels_for(src)
            if hit is None:
                declined = {"reason": "no_basis", "source": src}
                break
            basis_version, basis = hit
            if basis_version >= entry.version:
                plans.append((src, basis, ()))
                continue
            deltas = registry.deltas_since(entry.key, basis_version)
            if any(not d.insert_only for d in deltas):
                declined = {"reason": "deletes", "source": src}
                break
            inserts = tuple(e for d in deltas for e in d.inserts)
            if len(inserts) > max_inserts:
                declined = {"reason": "delta_too_large", "source": src,
                            "inserts": len(inserts), "max_inserts": int(max_inserts)}
                break
            plans.append((src, basis, inserts))
        if declined is None:
            return plans
        self.stream.repair_declined(live, now_ms, version=entry.version, **declined)
        return None

    def _serial_fallback(self, entry: RegistryEntry, live: list[Query],
                         sources, graph_key, now_ms, *, reason,
                         **detail) -> Dispatch:
        """Circuit-breaker fallback: queue-based CPU BFS per source.

        ``bfs_levels_reference`` is the same int32 oracle the test suite
        checks every engine against, so the answers stay bit-identical;
        only the modelled cost degrades. Runs outside the injector's
        reach — the whole point is an execution plane faults can't
        touch. It stores no repair bases.
        """
        from repro.graph.stats import bfs_levels_reference

        self.stream.fallback(graph_key, reason)
        graph = entry.graph
        answers: dict[int, "np.ndarray"] = {}
        serial_edges = 0
        max_levels = live[0].options.max_levels if len(sources) == 1 else None
        for src in sources:
            levels = bfs_levels_reference(graph, src)
            if max_levels is not None:
                # The engine stops expanding once ``level`` reaches
                # ``max_levels``: vertices at levels 0..max_levels stay.
                levels = levels.copy()
                levels[levels > max_levels] = -1
            answers[src] = levels
            serial_edges += int(graph.degrees[levels >= 0].sum())
        elapsed = serial_edges / 1e6 * SERIAL_FALLBACK_MS_PER_MEDGE
        return self._finish(
            entry, live, sources, now_ms, "serial", dict(reason=reason, **detail),
            _LevelArrays(answers, elapsed), store=False,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _slot(entry: RegistryEntry, name: str) -> str:
        """Engine-cache key threaded with the entry's graph version.

        Mutation already retires the whole entry (a fresh entry starts
        with empty ``engines``); on top of that the key itself embeds
        every non-zero version, so a pre-mutation engine can never be
        found under the current key — impossible by construction, not
        by convention. Version-0 keys stay bare for compatibility.
        """
        return name if entry.version == 0 else f"{name}@v{entry.version}"

    def _device_of(self, entry: RegistryEntry):
        slot = self._slot(entry, "device")
        device = entry.engines.get(slot)
        if device is None:
            from repro.experiments.common import scaled_device

            device = scaled_device(entry.graph)
            entry.engines[slot] = device
        return device

    def _engine(self, entry: RegistryEntry, tier: str):
        """The ``tier``'s engine on ``entry``, built from its
        :data:`_TIERS` row once and cached in the entry's ``engines``
        slot — so repeated dispatches pay engine construction (a pod's
        partitioning included) exactly as often as they pay CSR
        construction: on a cold or evicted graph only."""
        row = _TIERS[tier]
        slot = self._slot(entry, tier)
        engine = entry.engines.get(slot)
        if engine is None or (row.pod and engine.num_gcds != self.num_gcds):
            engine = row.build(self, entry.graph, device=self._device_of(entry),
                               tracer=self.tracer, injector=self.fault_injector)
            entry.engines[slot] = engine
        return engine
