"""Live cluster health snapshot (``repro top``).

Reads the operational state of a running :class:`ClusterRouter` (or a
single :class:`BFSService`) — per-replica liveness, queue depth,
circuit-breaker state, dispatch/served counters, registry bytes, plus
per-tenant quota tokens and SLO burn status — into one JSON-able dict,
and renders it as a one-screen table.

Everything here is a pure *read*: the snapshot walks existing state
(scheduler queue, executor breaker counters, registry accounting,
quota buckets, the front door's per-tenant quota verdicts) without
mutating any of it, so taking a snapshot never perturbs a replayed
trace.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.tables import render_table

__all__ = [
    "breaker_state",
    "cluster_health",
    "render_health",
    "service_health",
    "write_health",
]


def breaker_state(executor) -> str:
    """Circuit-breaker phase of one :class:`ExecutionEngine`.

    ``open`` while the breaker's cooldown has dispatches left to serve
    serially, ``half_open`` when past faults are on the streak counter
    but the breaker has not tripped, else ``closed``.
    """
    if getattr(executor, "_breaker_cooldown_left", 0) > 0:
        return "open"
    if getattr(executor, "_fault_streak", 0) > 0:
        return "half_open"
    return "closed"


def _service_row(service) -> dict:
    """Health fields shared by a bare service and a cluster replica."""
    metrics = service.metrics
    executor = service.executor
    return {
        "queue_depth": service.scheduler.queue_depth,
        "served": metrics.served,
        "rejected": metrics.rejected,
        "dispatches": metrics.dispatches,
        "breaker": breaker_state(executor),
        "fault_streak": getattr(executor, "_fault_streak", 0),
        "breaker_trips": metrics.breaker_trips,
        "fallbacks": metrics.fallbacks,
        "bytes_cached": service.registry.bytes_cached,
        "graphs_cached": len(service.registry),
        "p50_ms": metrics.latency_percentile(50),
        "p99_ms": metrics.latency_percentile(99),
        "now_ms": service.scheduler.now_ms,
    }


def service_health(service, *, slo=None) -> dict:
    """Health snapshot of one :class:`BFSService`."""
    snap = {
        "kind": "service",
        "replicas": [{"replica": 0, "alive": True, **_service_row(service)}],
        "quota": {},
    }
    snap["at_ms"] = snap["replicas"][0]["now_ms"]
    if slo is not None:
        snap["slo"] = slo.status()
    return snap


def cluster_health(router, *, slo=None) -> dict:
    """Health snapshot of a :class:`ClusterRouter` and its replicas."""
    replicas = []
    at_ms = 0.0
    for replica in router.replicas:
        row = {
            "replica": replica.rid,
            "alive": replica.alive,
            "deaths": replica.deaths,
            "revivals": replica.revivals,
            **_service_row(replica.service),
        }
        if not replica.alive:
            row["revive_at_ms"] = replica.revive_at_ms
        at_ms = max(at_ms, row["now_ms"])
        replicas.append(row)
    ledger = router.quotas
    verdicts = router.stream.quota
    quota = {
        tenant: {
            "tokens": ledger.tokens(tenant),
            "burst": ledger.quotas[tenant].burst,
            "rate_per_s": ledger.quotas[tenant].rate_per_s,
            "admitted": verdicts[tenant, "admitted"],
            "rejected": verdicts[tenant, "rejected"],
        }
        for tenant in sorted(ledger.quotas)
    }
    snap = {
        "kind": "cluster",
        "at_ms": at_ms,
        "replicas": replicas,
        "quota": quota,
        "counters": router.counters(),
    }
    if slo is not None:
        snap["slo"] = slo.status()
    return snap


def render_health(snapshot: dict) -> str:
    """One-screen operator view of a health snapshot."""
    sections = [f"health @ {snapshot.get('at_ms', 0.0):.3f} virtual ms"]
    rows = [
        [
            r["replica"],
            "up" if r["alive"] else f"DOWN until {r.get('revive_at_ms', 0.0):.0f}ms",
            r["queue_depth"],
            r["served"],
            r["rejected"],
            r["breaker"],
            r["graphs_cached"],
            f"{r['bytes_cached'] / 1e6:.1f}",
            f"{r['p50_ms']:.3f}",
            f"{r['p99_ms']:.3f}",
        ]
        for r in snapshot["replicas"]
    ]
    sections.append(
        render_table(
            [
                "replica", "state", "queue", "served", "rejected",
                "breaker", "graphs", "MB", "p50_ms", "p99_ms",
            ],
            rows,
        )
    )
    if snapshot.get("quota"):
        quota_rows = [
            [
                tenant,
                f"{q['tokens']:.2f}" if q["tokens"] is not None else "-",
                f"{q['burst']:g}",
                f"{q['rate_per_s']:g}",
                q["admitted"],
                q["rejected"],
            ]
            for tenant, q in snapshot["quota"].items()
        ]
        sections.append(
            render_table(
                ["tenant", "tokens", "burst", "rate/s", "admitted", "rejected"],
                quota_rows,
            )
        )
    for st in snapshot.get("slo", []):
        burn = "  ".join(f"burn[{w}]={b:.2f}" for w, b in st["burn"].items())
        flag = "  ALERTING" if st["alerting"] else ""
        sections.append(
            f"slo {st['slo']}: {st['total'] - st['bad']}/{st['total']} good, "
            f"budget {st['budget_remaining']:.1%}  {burn}  "
            f"alerts={st['alerts_fired']}{flag}"
        )
    return "\n".join(sections)


def write_health(snapshot: dict, path: str | Path) -> None:
    """JSON export of a health snapshot."""
    Path(path).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
