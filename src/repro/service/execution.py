"""The execution engine: one dispatch → one (recovered) engine run.

This module is the *execution* third of the serving stack's
placement / dispatch / execution split:

* placement — which replica owns a graph
  (:mod:`repro.cluster.placement`);
* dispatch — queueing, coalescing, worker slots and deadlines
  (:mod:`repro.service.scheduler`);
* execution — this module: pick the engine for one ready batch, run
  it, and recover from injected faults without ever returning a wrong
  answer.

:class:`ExecutionEngine` owns the engine-routing policy — by graph
size (solo XBFS / concurrent iBFS vs the multi-GCD pod) and by batch
width (the linear-algebra batch tier: same-graph dispatches of
``linalg_batch_threshold``+ distinct sources run as one masked
CSR×matrix product on :class:`~repro.xbfs.linalg_batch.LinAlgBatchBFS`
instead of a stream of ≤64-source concurrent batches) — plus the
per-entry engine cache on
:class:`~repro.service.registry.RegistryEntry` and the recovery
ladder: per-level checkpoint/restart inside the engines,
dispatch-level retries with virtual-time backoff, and a circuit
breaker that routes cooldown dispatches to the serial CPU baseline.
It holds no queue and no clock — the scheduler hands it a ready batch
and charges whatever virtual elapsed time it returns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import (
    DeviceFaultError,
    RecoveryExhaustedError,
    ServiceError,
    StaleEntryError,
)
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.gcd.device import MI250X_GCD
from repro.obs.audit import NULL_AUDIT
from repro.service.metrics import ServiceMetrics
from repro.service.registry import RegistryEntry
from repro.service.request import Query
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.xbfs.concurrent import MAX_CONCURRENT, ConcurrentBFS
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH, LinAlgBatchBFS
from repro.xbfs.repair import REPAIR_BASE_MS, repair_levels

__all__ = [
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
        scaled_cache: bool = True,
        num_gcds: int = 4,
        distributed_threshold_bytes: int | None = None,
        linalg_batch_threshold: int | None = None,
        partition: str = "1d",
        fault_injector=None,
        recovery: RecoveryPolicy | None = None,
        tracer: Tracer | None = None,
        audit=None,
        repair_max_fraction: float = DEFAULT_REPAIR_MAX_FRACTION,
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
        self.metrics = metrics or ServiceMetrics()
        self.scaled_cache = scaled_cache
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
        #: Decomposition of the distributed tier: ``"1d"`` is the
        #: edge-balanced row partition (:class:`MultiGcdBFS
        #: <repro.multigcd.distributed_bfs.MultiGcdBFS>`, naive
        #: exchange — the committed-fingerprint default), ``"2d"`` the
        #: checkerboard grid (:class:`~repro.multigcd.grid2d.Grid2dBFS`)
        #: with the compressed exchange codec and comm/compute overlap
        #: enabled.
        self.partition = partition
        self.fault_injector = fault_injector
        self.recovery = recovery or DEFAULT_RECOVERY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Decision-audit log (observer-only; NULL_AUDIT = disabled).
        self.audit = audit if audit is not None else NULL_AUDIT
        #: Consecutive dispatches that exhausted their retries.
        self._fault_streak = 0
        #: Dispatches the open circuit breaker still routes serially.
        self._breaker_cooldown_left = 0
        #: Repair-vs-recompute policy knob (see
        #: :data:`DEFAULT_REPAIR_MAX_FRACTION`). 0 disables the tier.
        if repair_max_fraction < 0:
            raise ServiceError("repair_max_fraction must be >= 0")
        self.repair_max_fraction = repair_max_fraction

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
    ):
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

        Returns ``(elapsed_ms, sharing_factor, levels_of, engine)``.
        The ladder:

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
        inj = self.fault_injector
        if inj is None:
            return self._run_engine(
                entry, live, sources, batched, now_ms=now_ms,
                registry=registry,
            )

        recovery = self.recovery
        if self._breaker_cooldown_left > 0:
            self._breaker_cooldown_left -= 1
            if self._breaker_cooldown_left == 0:
                self._fault_streak = 0  # half-open: next dispatch probes
            self.metrics.record_fallback()
            self.tracer.event(
                "recovery.serial_fallback",
                graph=graph_key,
                reason="breaker_open",
            )
            if self.audit.enabled:
                self.audit.record(
                    "routing",
                    [q.qid for q in live],
                    "serial",
                    at_ms=now_ms,
                    reason="breaker_open",
                    cooldown_left=self._breaker_cooldown_left,
                )
            return self._run_serial(entry, live, sources)

        attempt = 0
        backoff_total = 0.0
        while True:
            try:
                # The worker itself may fault (raising kinds) or run
                # slow (latency kinds scale the modelled elapsed).
                fault_scale = inj.visit("service.worker", graph_key)
                elapsed, sharing, levels_of, engine = self._run_engine(
                    entry, live, sources, batched, now_ms=now_ms,
                    registry=registry,
                )
            except (DeviceFaultError, RecoveryExhaustedError) as exc:
                attempt += 1
                if attempt > recovery.max_dispatch_retries:
                    self._fault_streak += 1
                    if self._fault_streak >= recovery.breaker_threshold:
                        self.metrics.record_breaker_trip()
                        self._breaker_cooldown_left = recovery.breaker_cooldown
                        self.tracer.event(
                            "recovery.breaker_trip",
                            graph=graph_key,
                            streak=self._fault_streak,
                        )
                    if not recovery.serial_fallback:
                        raise RecoveryExhaustedError(
                            f"dispatch on {graph_key!r} still faulting "
                            f"after {recovery.max_dispatch_retries} "
                            f"retries and serial fallback is disabled: "
                            f"{exc}"
                        ) from exc
                    self.metrics.record_fallback()
                    self.tracer.event(
                        "recovery.serial_fallback",
                        graph=graph_key,
                        reason="retries_exhausted",
                    )
                    if self.audit.enabled:
                        self.audit.record(
                            "routing",
                            [q.qid for q in live],
                            "serial",
                            at_ms=now_ms,
                            reason="retries_exhausted",
                            attempts=attempt,
                        )
                    return self._run_serial(entry, live, sources)
                self.metrics.record_retry()
                self.tracer.event(
                    "recovery.dispatch_retry",
                    graph=graph_key,
                    attempt=attempt,
                    backoff_ms=recovery.backoff_ms(attempt),
                )
                backoff_total += recovery.backoff_ms(attempt)
            else:
                self._fault_streak = 0
                if attempt > 0 or backoff_total > 0.0:
                    self.metrics.record_recovery(backoff_total)
                return (
                    elapsed * fault_scale + backoff_total,
                    sharing,
                    levels_of,
                    engine,
                )

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

    def routes_linalg(self, entry: RegistryEntry, live, sources) -> bool:
        """Batch-width routing policy: a same-graph dispatch runs as one
        masked CSR×matrix product when the tier is enabled and the
        distinct-source count reaches ``linalg_batch_threshold`` — or
        exceeds the concurrent engine's 64-slot word outright, which no
        other batched engine could serve. Solo-only option surfaces
        (pinned strategy, parents, truncation) never route."""
        threshold = self.linalg_batch_threshold
        if threshold is None:
            return False
        k = len(sources)
        if k < 2 or (k < threshold and k <= MAX_CONCURRENT):
            return False
        return all(q.options.coalescing_key() is not None for q in live)

    def routes_distributed(self, entry: RegistryEntry, live) -> bool:
        """Size-aware routing policy: a dispatch goes to the multi-GCD
        pod when the graph's CSR footprint exceeds the single-GCD
        residency threshold *and* every member query carries the
        default option surface (the distributed engine honours neither
        pinned strategies, parent arrays nor truncated runs — those
        stay solo, whatever the size)."""
        threshold = self.distributed_threshold_bytes
        if threshold is None or self.num_gcds < 2:
            return False
        if entry.graph.memory_bytes <= threshold:
            return False
        return all(q.options.coalescing_key() is not None for q in live)

    def _run_engine(self, entry: RegistryEntry, live, sources, batched, *,
                    now_ms=0.0, registry=None):
        repaired = self._maybe_repair(entry, live, sources, registry, now_ms)
        if repaired is not None:
            return repaired
        elapsed, sharing, levels_of, engine = self._route(
            entry, live, sources, batched, now_ms=now_ms
        )
        # Cache the freshly-computed level arrays on the entry: they
        # are the repair bases a future mutation relaxes from. Only
        # default-option surfaces qualify (a truncated or pinned run's
        # levels are not a valid basis).
        if all(q.options.coalescing_key() is not None for q in live):
            for src in sources:
                entry.store_levels(src, levels_of(src))
        return elapsed, sharing, levels_of, engine

    def _maybe_repair(self, entry: RegistryEntry, live, sources, registry,
                      now_ms):
        """Incremental-repair tier: serve a post-mutation dispatch by
        re-relaxing cached level bases instead of recomputing.

        Eligible only when the graph has been mutated (version > 0),
        every query carries the default option surface, every source
        has a cached basis, the deltas since each basis are
        insert-only, and the cumulative insert batch stays under
        ``repair_max_fraction`` of the mutated graph's edges. Any
        declined gate (on a mutated graph) lands one ``repair`` audit
        record explaining why the dispatch recomputed.
        """
        if registry is None or entry.version == 0:
            return None
        if self.repair_max_fraction <= 0:
            return None
        if not all(q.options.coalescing_key() is not None for q in live):
            return None

        max_inserts = self.repair_max_fraction * max(1, entry.graph.num_edges)
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
                declined = {
                    "reason": "delta_too_large",
                    "source": src,
                    "inserts": len(inserts),
                    "max_inserts": int(max_inserts),
                }
                break
            plans.append((src, basis, inserts))
        if declined is not None:
            if self.audit.enabled:
                self.audit.record(
                    "repair",
                    [q.qid for q in live],
                    "recompute",
                    at_ms=now_ms,
                    version=entry.version,
                    **declined,
                )
            return None

        by_source: dict[int, "np.ndarray"] = {}
        elapsed = 0.0
        relaxed = 0
        affected = 0
        for src, basis, inserts in plans:
            if inserts:
                res = repair_levels(entry.graph, basis, inserts)
                levels = res.levels
                elapsed += res.elapsed_ms
                relaxed += res.relaxed_edges
                affected += res.affected_vertices
            else:
                # Basis already exact for this version: a level-cache
                # hit; charge only the copy-out.
                levels = np.array(basis, dtype=np.int32, copy=True)
                elapsed += REPAIR_BASE_MS
            entry.store_levels(src, levels)  # re-stamp at current version
            by_source[src] = levels
        if self.audit.enabled:
            self.audit.record(
                "repair",
                [q.qid for q in live],
                "repair",
                at_ms=now_ms,
                version=entry.version,
                sources=len(sources),
                relaxed_edges=relaxed,
                affected_vertices=affected,
            )
        sharing = len(live) / len(sources) if sources else 1.0
        return elapsed, sharing, lambda s: by_source[s], "repair"

    def _route(self, entry: RegistryEntry, live, sources, batched, *, now_ms=0.0):
        if self.routes_distributed(entry, live):
            # Graph size dominates: a CSR that outgrows one GCD's
            # residency also outgrows the single-GCD bitmap engine.
            result = self._run_distributed(entry, sources)
            engine = "grid2d" if self.partition == "2d" else "multigcd"
            if self.audit.enabled:
                self._audit_routing(
                    live, engine, now_ms,
                    footprint_bytes=entry.graph.memory_bytes,
                    distributed_threshold_bytes=self.distributed_threshold_bytes,
                    num_gcds=self.num_gcds,
                    partition=self.partition,
                    batch=len(sources),
                )
                self._audit_distributed(live, result, now_ms)
            return result.elapsed_ms, 1.0, result.levels_of, engine
        if self.routes_linalg(entry, live, sources):
            result = self._run_batch(LinAlgBatchBFS, "linalg_batch", entry, sources)
            if result.level_restarts:
                self.metrics.record_level_restarts(result.level_restarts)
            if self.audit.enabled:
                self._audit_routing(
                    live, "linalg_batch", now_ms,
                    batch=len(sources),
                    linalg_batch_threshold=self.linalg_batch_threshold,
                    max_concurrent=MAX_CONCURRENT,
                    footprint_bytes=entry.graph.memory_bytes,
                )
                qids = [q.qid for q in live]
                for level, dec in enumerate(result.decisions):
                    signals = {k: v for k, v in dec.signals if k != "level"}
                    self.audit.record(
                        "direction",
                        qids,
                        dec.strategy,
                        at_ms=now_ms,
                        level=level,
                        reason=dec.reason,
                        **signals,
                    )
            return (
                result.elapsed_ms,
                result.sharing_factor,
                result.levels_of,
                "linalg_batch",
            )
        if batched:
            result = self._run_batch(ConcurrentBFS, "concurrent", entry, sources)
            if result.level_restarts:
                self.metrics.record_level_restarts(result.level_restarts)
            if self.audit.enabled:
                self._audit_routing(
                    live, "concurrent", now_ms,
                    batch=len(sources),
                    footprint_bytes=entry.graph.memory_bytes,
                )
            return (
                result.elapsed_ms,
                result.sharing_factor,
                result.levels_of,
                "concurrent",
            )
        solo = self._run_solo(entry, live[0])
        if solo.level_restarts:
            self.metrics.record_level_restarts(solo.level_restarts)
        if self.audit.enabled:
            self._audit_routing(
                live, "solo", now_ms,
                batch=1,
                footprint_bytes=entry.graph.memory_bytes,
            )
            for level, dec in enumerate(solo.decisions):
                signals = {k: v for k, v in dec.signals if k != "level"}
                self.audit.record(
                    "direction",
                    live[0].qid,
                    dec.strategy,
                    at_ms=now_ms,
                    level=level,
                    reason=dec.reason,
                    **signals,
                )
        return solo.elapsed_ms, 1.0, lambda _s: solo.levels, "solo"

    # ------------------------------------------------------------------
    def _audit_routing(self, live, engine, now_ms, **detail):
        # One "routing" record per live query of the dispatch, carrying
        # the footprint/threshold inputs behind the tier pick.
        self.audit.record(
            "routing",
            [q.qid for q in live],
            engine,
            at_ms=now_ms,
            **detail,
        )

    def _audit_distributed(self, live, batch_result, now_ms):
        # Per-level direction + codec records for a pod dispatch:
        # run_batch returns one run per distinct source, and each
        # query's chain shows the decisions of its own run.
        run_of = {run.source: run for run in batch_result.runs}
        for q in live:
            run = run_of.get(q.source)
            if run is None:
                continue
            for entry_rec in run.level_decisions:
                detail = {
                    k: v
                    for k, v in entry_rec.items()
                    if k not in ("direction", "formats") and v is not None
                }
                self.audit.record(
                    "direction",
                    q.qid,
                    entry_rec["direction"],
                    at_ms=now_ms,
                    **detail,
                )
                formats = entry_rec.get("formats") or {}
                if sum(formats.values()):
                    self.audit.record(
                        "codec",
                        q.qid,
                        " ".join(
                            f"{fmt}:{n}" for fmt, n in sorted(formats.items()) if n
                        ),
                        at_ms=now_ms,
                        level=entry_rec["level"],
                        comm_bytes=entry_rec.get("comm_bytes", 0),
                    )

    def _run_serial(self, entry: RegistryEntry, live: list[Query], sources):
        """Circuit-breaker fallback: queue-based CPU BFS per source.

        ``bfs_levels_reference`` is the same int32 oracle the test suite
        checks every engine against, so the answers stay bit-identical;
        only the modelled cost degrades. Runs outside the injector's
        reach — the whole point is an execution plane faults can't
        touch.
        """
        from repro.graph.stats import bfs_levels_reference

        graph = entry.graph
        by_source: dict[int, "np.ndarray"] = {}
        serial_edges = 0
        for src in sources:
            levels = bfs_levels_reference(graph, src)
            max_levels = None
            if len(sources) == 1:
                max_levels = live[0].options.max_levels
            if max_levels is not None:
                # The engine stops expanding once ``level`` reaches
                # ``max_levels``: vertices at levels 0..max_levels stay.
                levels = levels.copy()
                levels[levels > max_levels] = -1
            by_source[src] = levels
            serial_edges += int(graph.degrees[levels >= 0].sum())
        elapsed = serial_edges / 1e6 * SERIAL_FALLBACK_MS_PER_MEDGE
        return elapsed, 1.0, lambda s: by_source[s], "serial"

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
            if self.scaled_cache:
                from repro.experiments.common import scaled_device

                device = scaled_device(entry.graph)
            else:
                device = MI250X_GCD
            entry.engines[slot] = device
        return device

    def _run_batch(self, engine_cls, slot_name: str, entry: RegistryEntry, sources):
        """One bitmap multi-source run (``ConcurrentBFS`` or
        ``LinAlgBatchBFS``) on the engine cached under ``slot_name``."""
        slot = self._slot(entry, slot_name)
        engine = entry.engines.get(slot)
        if engine is None:
            engine = engine_cls(
                entry.graph,
                device=self._device_of(entry),
                tracer=self.tracer,
                injector=self.fault_injector,
                recovery=self.recovery,
            )
            entry.engines[slot] = engine
        return engine.run(np.asarray(sources, dtype=np.int64))

    def _run_distributed(self, entry: RegistryEntry, sources: list[int]):
        """Serve one routed dispatch on the multi-GCD pod.

        The engine — and with it the partition (1D edge-balanced rows
        or the 2D checkerboard grid) — is built once per registry entry
        and cached in the ``engines`` slot, so repeated dispatches pay
        the partitioning exactly as often as they pay CSR construction:
        on a cold (or evicted) graph only. The 1D path keeps the naive
        exchange (its routing fingerprint is committed); the 2D path is
        new surface and ships with the compressed exchange codec and
        comm/compute overlap on.
        """
        if self.partition == "2d":
            from repro.multigcd.exchange import ExchangeCodec
            from repro.multigcd.grid2d import Grid2dBFS

            slot = self._slot(entry, "grid2d")
            engine = entry.engines.get(slot)
            if engine is None or engine.num_gcds != self.num_gcds:
                engine = Grid2dBFS(
                    entry.graph,
                    self.num_gcds,
                    device=self._device_of(entry),
                    tracer=self.tracer,
                    injector=self.fault_injector,
                    codec=ExchangeCodec(),
                    overlap=True,
                )
                entry.engines[slot] = engine
            return engine.run_batch(np.asarray(sources, dtype=np.int64))

        from repro.multigcd.distributed_bfs import MultiGcdBFS

        slot = self._slot(entry, "multigcd")
        engine = entry.engines.get(slot)
        if engine is None or engine.num_gcds != self.num_gcds:
            engine = MultiGcdBFS(
                entry.graph,
                self.num_gcds,
                device=self._device_of(entry),
                tracer=self.tracer,
                injector=self.fault_injector,
            )
            entry.engines[slot] = engine
        return engine.run_batch(np.asarray(sources, dtype=np.int64))

    def _run_solo(self, entry: RegistryEntry, query: Query):
        from repro.xbfs.driver import XBFS

        slot = self._slot(entry, "solo")
        engine = entry.engines.get(slot)
        if engine is None:
            engine = XBFS(
                entry.graph,
                device=self._device_of(entry),
                tracer=self.tracer,
                injector=self.fault_injector,
                recovery=self.recovery,
            )
            entry.engines[slot] = engine
        opts = query.options
        return engine.run(
            query.source,
            force_strategy=opts.force_strategy,
            max_levels=opts.max_levels,
            record_parents=opts.record_parents,
        )
