"""Serving metrics: latency percentiles, sharing, cache hits, GTEPS.

Everything here is computed from the virtual clock and the modelled
kernel costs, so a replayed trace always yields identical numbers —
which lets ``tools/check_regression.py`` fingerprint the serving layer
exactly like the engines underneath it. Host wall-clock time is not
kept here: the ``service.dispatch`` span of a
:class:`~repro.telemetry.tracer.Tracer` carries it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.metrics.gteps import gteps
from repro.service.request import QueryOutcome
from repro.telemetry.sketch import LatencySketch
from repro.telemetry.stats import percentile

__all__ = [
    "ServiceMetrics",
    "ENGINE_NAMES",
    "FINGERPRINT_ENGINE_NAMES",
    "dispatch_counts",
    "merge_latency_sketches",
    "percentile",
]

#: Serving engines a dispatch may land on, in reporting order (the
#: routing tiers: solo → concurrent → linalg-batch → the 1D or 2D
#: multi-GCD pod, plus the circuit breaker's serial fallback).
ENGINE_NAMES = (
    "solo", "concurrent", "linalg_batch", "multigcd", "grid2d", "serial",
    "repair",
)

#: Engines zero-filled into every summary since the first routing
#: fingerprint was recorded. Frozen on purpose: re-recording the
#: baseline must keep prior entries byte-identical, so engines added
#: later (``grid2d``, ``repair``) appear in a summary only when they
#: actually served a dispatch.
FINGERPRINT_ENGINE_NAMES = (
    "solo", "concurrent", "linalg_batch", "multigcd", "serial",
)


def dispatch_counts(
    counts: dict[str, int], zero_filled: tuple = FINGERPRINT_ENGINE_NAMES
) -> dict[str, int]:
    """The ``dispatches_<engine>`` keys of a report from per-engine
    dispatch ``counts``: every ``zero_filled`` engine (by default the
    frozen fingerprint tuple, so a fingerprint's key set cannot drift),
    then each other engine once it has served a dispatch."""
    out = {f"dispatches_{e}": counts.get(e, 0) for e in zero_filled}
    out.update(
        (f"dispatches_{e}", counts[e])
        for e in ENGINE_NAMES
        if e not in zero_filled and e in counts
    )
    return out


@dataclass
class ServiceMetrics:
    """Accumulates per-query outcomes into a serving summary: one fold
    of a :class:`~repro.obs.stream.DecisionStream`, its only writer in
    the serving stack."""

    latencies_ms: list[float] = field(default_factory=list)
    served: int = 0
    rejected_queue_full: int = 0
    rejected_deadline: int = 0
    rejected_quota: int = 0
    total_traversed_edges: int = 0
    #: Latencies bucketed by the query's QoS class (virtual ms).
    latencies_by_qos: dict[str, list] = field(default_factory=dict)
    #: Served / rejected query counts per tenant.
    served_by_tenant: dict[str, int] = field(default_factory=dict)
    rejected_by_tenant: dict[str, int] = field(default_factory=dict)
    first_arrival_ms: float | None = None
    last_finish_ms: float = 0.0
    #: Dispatches per serving engine (``solo`` / ``concurrent`` /
    #: ``linalg_batch`` / ``multigcd`` / ``serial``) — the routing
    #: policy's observable.
    engine_dispatches: dict[str, int] = field(default_factory=dict)
    # --- degraded-mode (fault recovery) counters; all virtual-time ---
    #: Fired fault events (every kind), synced from the injector.
    faults_injected: int = 0
    #: Dispatch-level retries after a device fault.
    retries: int = 0
    #: Dispatches served by the serial baseline fallback.
    fallbacks: int = 0
    #: Times the circuit breaker tripped open.
    breaker_trips: int = 0
    #: BFS levels replayed from checkpoints inside the engines.
    level_restarts: int = 0
    #: Virtual backoff delay per recovered dispatch (ms).
    recovery_ms: list[float] = field(default_factory=list)
    #: When False the raw per-sample lists above stay empty and every
    #: percentile comes from the bounded log-bucket sketches instead —
    #: O(buckets) memory regardless of trace length. The default True
    #: keeps the historical exact-percentile behaviour (and the
    #: recorded fingerprints) byte-identical.
    exact_percentiles: bool = True
    #: Mergeable bounded sketches, maintained in *both* modes so
    #: cross-replica aggregation works regardless of the flag.
    latency_sketch: LatencySketch = field(default_factory=LatencySketch)
    sketch_by_qos: dict[str, LatencySketch] = field(default_factory=dict)
    recovery_sketch: LatencySketch = field(default_factory=LatencySketch)
    #: Served query count per QoS class (kept in both modes).
    served_by_qos: dict[str, int] = field(default_factory=dict)
    # Running totals that stand in for len()/sum() over the raw lists;
    # accumulated in sample order, so in exact mode they equal the
    # list aggregates bit-for-bit.
    dispatches: int = 0
    batch_size_sum: int = 0
    sharing_sum: float = 0.0
    latency_sum: float = 0.0
    recoveries_count: int = 0

    # ------------------------------------------------------------------
    def record_outcome(self, outcome: QueryOutcome) -> None:
        """Fold one served (or dispatch-dropped) query in."""
        if self.first_arrival_ms is None:
            self.first_arrival_ms = outcome.query.arrival_ms
        else:
            self.first_arrival_ms = min(
                self.first_arrival_ms, outcome.query.arrival_ms
            )
        tenant = outcome.query.tenant
        if not outcome.served:
            self.record_rejection(outcome.rejected)
            self.rejected_by_tenant[tenant] = (
                self.rejected_by_tenant.get(tenant, 0) + 1
            )
            return
        self.served += 1
        latency = outcome.latency_ms
        qos = outcome.query.qos
        self.latency_sum += latency
        self.latency_sketch.record(latency)
        self.served_by_qos[qos] = self.served_by_qos.get(qos, 0) + 1
        qos_sketch = self.sketch_by_qos.get(qos)
        if qos_sketch is None:
            qos_sketch = self.sketch_by_qos[qos] = LatencySketch()
        qos_sketch.record(latency)
        if self.exact_percentiles:
            self.latencies_ms.append(latency)
            self.latencies_by_qos.setdefault(qos, []).append(latency)
        self.served_by_tenant[tenant] = self.served_by_tenant.get(tenant, 0) + 1
        self.total_traversed_edges += outcome.traversed_edges
        self.last_finish_ms = max(self.last_finish_ms, outcome.finish_ms)

    def record_batch(self, num_queries: int, sharing_factor: float) -> None:
        """Record one dispatch (solo runs count with sharing 1.0)."""
        self.dispatches += 1
        self.batch_size_sum += int(num_queries)
        self.sharing_sum += sharing_factor

    def record_recovery(self, virtual_ms: float) -> None:
        """Total virtual recovery delay of one recovered dispatch."""
        virtual_ms = float(virtual_ms)
        self.recoveries_count += 1
        self.recovery_sketch.record(virtual_ms)
        if self.exact_percentiles:
            self.recovery_ms.append(virtual_ms)

    def sync_faults(self, faults_injected: int) -> None:
        """Adopt the injector's fired-event total (monotone)."""
        self.faults_injected = max(self.faults_injected, int(faults_injected))

    def record_rejection(self, kind: str | None) -> None:
        if kind == "queue_full":
            self.rejected_queue_full += 1
        elif kind == "deadline":
            self.rejected_deadline += 1
        elif kind == "quota":
            self.rejected_quota += 1
        else:
            raise ValueError(f"unknown rejection kind {kind!r}")

    # ------------------------------------------------------------------
    @property
    def rejected(self) -> int:
        return (
            self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_quota
        )

    @property
    def makespan_ms(self) -> float:
        """First arrival to last completion on the virtual clock."""
        if self.first_arrival_ms is None:
            return 0.0
        return max(0.0, self.last_finish_ms - self.first_arrival_ms)

    @property
    def gteps(self) -> float:
        """Aggregate modelled throughput, Graph500-credited: every
        served query's solo-equivalent edges over the makespan."""
        return gteps(self.total_traversed_edges, self.makespan_ms)

    @property
    def mean_sharing_factor(self) -> float:
        if not self.dispatches:
            return 1.0
        return self.sharing_sum / self.dispatches

    @property
    def mean_batch_size(self) -> float:
        if not self.dispatches:
            return 0.0
        return self.batch_size_sum / self.dispatches

    # ------------------------------------------------------------------
    # Percentile helpers: exact order statistics from the raw lists in
    # the default mode, the bounded sketch estimate (<=2% relative
    # error) in bounded mode.
    def latency_percentile(self, q: float) -> float:
        if self.exact_percentiles:
            return percentile(self.latencies_ms, q)
        return self.latency_sketch.percentile(q)

    def qos_latency_percentile(self, qos: str, q: float) -> float:
        if self.exact_percentiles:
            return percentile(self.latencies_by_qos.get(qos, []), q)
        sketch = self.sketch_by_qos.get(qos)
        return sketch.percentile(q) if sketch is not None else 0.0

    def recovery_percentile(self, q: float) -> float:
        if self.exact_percentiles:
            return percentile(self.recovery_ms, q)
        return self.recovery_sketch.percentile(q)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Engine-routing snapshot: dispatch counts per serving engine
        (every known engine present, zero when unused) plus the
        dispatch total. JSON-able and deterministic under replay."""
        out = dispatch_counts(self.engine_dispatches, ENGINE_NAMES)
        out["dispatches"] = self.dispatches
        out["engine_dispatches"] = dict(self.engine_dispatches)
        return out

    def summary(self, name: str, *, registry_stats: dict | None = None) -> dict:
        """JSON-able record, save/diff-able via
        :mod:`repro.metrics.results_io`."""
        out = {
            "name": name,
            "queries_served": self.served,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_deadline": self.rejected_deadline,
            "rejected_quota": self.rejected_quota,
            "p50_ms": self.latency_percentile(50),
            "p95_ms": self.latency_percentile(95),
            "p99_ms": self.latency_percentile(99),
            "mean_latency_ms": (
                self.latency_sum / self.served if self.served else 0.0
            ),
            "dispatches": self.dispatches,
            # Per-engine dispatch counts sit at the top level so the
            # routing policy itself is fingerprinted by
            # tools/check_regression.py.
            **dispatch_counts(self.engine_dispatches),
            "mean_batch_size": self.mean_batch_size,
            "mean_sharing_factor": self.mean_sharing_factor,
            "makespan_ms": self.makespan_ms,
            "service_gteps": self.gteps,
            "total_traversed_edges": self.total_traversed_edges,
            # Degraded-mode counters: all virtual-time and therefore
            # deterministic under a fixed fault plan — they belong in
            # the fingerprint exactly like the latency percentiles.
            "faults_injected": self.faults_injected,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "breaker_trips": self.breaker_trips,
            "level_restarts": self.level_restarts,
            "recoveries": self.recoveries_count,
            "recovery_p50_ms": self.recovery_percentile(50),
            "recovery_p95_ms": self.recovery_percentile(95),
        }
        # Per-QoS tails and per-tenant counts ride in nested dicts:
        # flattened into dotted Prometheus counters by the telemetry
        # CounterRegistry, skipped by the top-level-numeric fingerprint
        # (class membership varies with the trace, not the model).
        out["per_qos"] = {
            qos: {
                "served": self.served_by_qos[qos],
                "p50_ms": self.qos_latency_percentile(qos, 50),
                "p95_ms": self.qos_latency_percentile(qos, 95),
                "p99_ms": self.qos_latency_percentile(qos, 99),
            }
            for qos in sorted(self.served_by_qos)
        }
        out["per_tenant"] = {
            tenant: {
                "served": self.served_by_tenant.get(tenant, 0),
                "rejected": self.rejected_by_tenant.get(tenant, 0),
            }
            for tenant in sorted(
                set(self.served_by_tenant) | set(self.rejected_by_tenant)
            )
        }
        if registry_stats is not None:
            out["cache_hit_rate"] = registry_stats["hit_rate"]
            out["cache_evictions"] = registry_stats["evictions"]
        return out

    def render(self, *, registry_stats: dict | None = None) -> str:
        """Human-readable one-screen report."""
        s = self.summary("service", registry_stats=registry_stats)
        lines = [
            f"served:     {s['queries_served']} queries in "
            f"{s['dispatches']} dispatches "
            f"(mean batch {s['mean_batch_size']:.2f}, "
            f"sharing {s['mean_sharing_factor']:.2f}x)",
            f"rejected:   {self.rejected} "
            f"(queue_full={s['rejected_queue_full']}, "
            f"deadline={s['rejected_deadline']}, "
            f"quota={s['rejected_quota']})",
            f"latency:    p50 {s['p50_ms']:.3f} ms  "
            f"p95 {s['p95_ms']:.3f} ms  p99 {s['p99_ms']:.3f} ms  "
            f"(mean {s['mean_latency_ms']:.3f} ms)",
            f"throughput: {s['service_gteps']:.3f} GTEPS (modelled) over "
            f"{s['makespan_ms']:.3f} ms makespan",
        ]
        if self.engine_dispatches:
            lines.append(
                "engines:    "
                + "  ".join(
                    f"{engine}={self.engine_dispatches[engine]}"
                    for engine in ENGINE_NAMES
                    if engine in self.engine_dispatches
                )
            )
        if len(self.served_by_qos) > 1 or len(self.served_by_tenant) > 1:
            lines.append(
                "qos:        "
                + "  ".join(
                    f"{qos} p99 {self.qos_latency_percentile(qos, 99):.3f} ms "
                    f"({self.served_by_qos[qos]})"
                    for qos in sorted(self.served_by_qos)
                )
                + f"  tenants={len(set(self.served_by_tenant) | set(self.rejected_by_tenant))}"
            )
        if self.faults_injected or self.retries or self.fallbacks:
            lines.append(
                f"faults:     {s['faults_injected']} injected  "
                f"retries={s['retries']}  fallbacks={s['fallbacks']}  "
                f"level_restarts={s['level_restarts']}  "
                f"breaker_trips={s['breaker_trips']}  "
                f"recovery p50 {s['recovery_p50_ms']:.3f} ms / "
                f"p95 {s['recovery_p95_ms']:.3f} ms"
            )
        if registry_stats is not None:
            lines.append(
                f"registry:   hit rate {registry_stats['hit_rate']:.1%}  "
                f"({registry_stats['hits']} hits / "
                f"{registry_stats['misses']} misses, "
                f"{registry_stats['evictions']} evictions, "
                f"{registry_stats['graphs_cached']} cached)"
            )
        return "\n".join(lines)


def merge_latency_sketches(metrics: Iterable[ServiceMetrics]) -> LatencySketch:
    """Merge the latency sketches of several metrics objects (one per
    cluster replica, typically) into a single cluster-wide sketch."""
    return LatencySketch.merged(m.latency_sketch for m in metrics)
