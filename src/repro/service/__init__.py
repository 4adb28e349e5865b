"""The BFS query-serving runtime.

The paper's evaluation loop is a Graph500-style batch script: build a
graph, run n traversals, report GTEPS. This package turns that loop
into a *servable system* — the front door every scaling PR (sharding,
async backends, multi-GCD serving) plugs into:

* :mod:`repro.service.request`   — query / outcome records and the
  per-query option surface.
* :mod:`repro.service.registry`  — a memory-budgeted LRU graph cache,
  so repeated queries skip CSR construction.
* :mod:`repro.service.admission` — queue-depth limits and per-request
  deadlines with typed rejections.
* :mod:`repro.service.scheduler` — the coalescing scheduler: drains a
  bounded queue, groups same-graph queries into ≤64-source
  :class:`~repro.xbfs.concurrent.ConcurrentBFS` batches, and
  dispatches them across a pool of simulated GCD workers in virtual
  time.
* :mod:`repro.service.execution` — the execution engine: picks the
  serving engine for one ready batch (solo / concurrent / multi-GCD /
  serial fallback) and recovers injected faults, so the scheduler
  stays a pure dispatch layer and a cluster replica is a composable
  unit.
* :mod:`repro.service.metrics`   — per-query latency percentiles,
  batch sharing factors, cache hit rates, modelled GTEPS.
* :mod:`repro.service.trace`     — JSONL query traces (replay and
  synthetic open-loop generation).
* :mod:`repro.service.runtime`   — :class:`BFSService`, the facade
  wiring all of the above together.

The admission controller, scheduler and executor never write a metric,
audit row, SLO window or trace event themselves: each decision is one
event on their :class:`~repro.obs.stream.DecisionStream`, and every
sink is a fold over it.

Everything is synchronous and deterministic: time is *virtual* (query
arrival stamps plus modelled kernel costs), so a replayed trace always
produces bit-identical levels and identical latency statistics. That
determinism extends to failure: pass a seeded
:class:`~repro.faults.plan.FaultPlan` to :class:`BFSService` and the
scheduler recovers through per-level checkpoints, dispatch retries with
virtual-time backoff, and a circuit breaker that falls back to the
serial baseline — always the same levels, with degraded-mode counters
in :class:`~repro.service.metrics.ServiceMetrics`.

Quick start::

    from repro.service import BFSService, synthetic_trace

    svc = BFSService(workers=2, memory_budget_mb=64)
    trace = synthetic_trace(["rmat:10", "rmat:11"], {"rmat:10": 1024,
                            "rmat:11": 2048}, num_queries=64, seed=7)
    report = svc.replay(trace)
    print(report.render())
"""

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.execution import (
    SERIAL_FALLBACK_MS_PER_MEDGE,
    ExecutionEngine,
)
from repro.service.metrics import ENGINE_NAMES, ServiceMetrics, percentile
from repro.service.registry import GraphRegistry, RegistryEntry
from repro.service.request import Query, QueryOptions, QueryOutcome
from repro.service.runtime import BFSService, ServiceReport
from repro.service.scheduler import CoalescingScheduler, WorkerState
from repro.service.trace import load_trace, save_trace, synthetic_trace

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BFSService",
    "ENGINE_NAMES",
    "CoalescingScheduler",
    "ExecutionEngine",
    "GraphRegistry",
    "Query",
    "QueryOptions",
    "QueryOutcome",
    "RegistryEntry",
    "SERIAL_FALLBACK_MS_PER_MEDGE",
    "ServiceMetrics",
    "ServiceReport",
    "WorkerState",
    "load_trace",
    "percentile",
    "save_trace",
    "synthetic_trace",
]
