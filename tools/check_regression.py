#!/usr/bin/env python
"""Performance-regression gate for the modelled numbers.

The cost model is deterministic, so the modelled GTEPS of a fixed
experiment set is a fingerprint of the model. This tool runs a small
engine matrix, writes/compares a JSON fingerprint, and exits non-zero
on drift — wire it into CI to catch accidental model changes.

Usage:
    python tools/check_regression.py record baseline.json
    python tools/check_regression.py check  baseline.json [tolerance]

``check`` fails on any metric that moved by more than ``tolerance``
(default 2%) and lists every metric that moved by less, so a move under
the gate is still seen.
"""

from __future__ import annotations

import sys

from repro import XBFS, GunrockBFS, LinAlgBFS, rmat
from repro.experiments.common import scaled_device
from repro.graph import pick_sources
from repro.metrics.results_io import (
    diff_results,
    load_results,
    save_results,
    summarize_batch,
)


def run_matrix() -> list[dict]:
    graph = rmat(15, 16, seed=0)
    device = scaled_device(graph)
    sources = pick_sources(graph, 4, seed=1)
    summaries = []
    for name, engine in [
        ("xbfs", XBFS(graph, device=device)),
        ("xbfs+rearrange", XBFS(graph, device=device, rearrange=True)),
        ("gunrock", GunrockBFS(graph, device=device)),
        ("linalg", LinAlgBFS(graph, device=device)),
    ]:
        summaries.append(summarize_batch(name, engine.run_many(sources)))
    summaries.append(run_service_fingerprint())
    summaries.append(run_routing_fingerprint())
    summaries.append(run_linalg_batch_fingerprint())
    summaries.append(run_exchange_plane_fingerprint())
    summaries.append(run_faults_surface_fingerprint())
    summaries.append(run_chaos_fingerprint())
    summaries.append(run_telemetry_fingerprint())
    summaries.append(run_cluster_fingerprint())
    summaries.append(run_obs_fingerprint())
    summaries.append(run_mutation_fingerprint())
    return summaries


def run_faults_surface_fingerprint() -> dict:
    """API-surface fingerprint of :mod:`repro.faults`.

    The fault plane is programmed against by the simulator, the
    drivers, the scheduler and the chaos suite; its public surface
    drifting silently would strand committed fault plans. The CRC32 of
    the exported names and their signatures is deterministic across
    machines and changes exactly when the API does.
    """
    import inspect
    import zlib

    import repro.faults as faults

    entries = []
    for name in sorted(faults.__all__):
        obj = getattr(faults, name)
        entries.append(name)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") or not callable(member):
                    continue
                entries.append(f"{name}.{attr}{inspect.signature(member)}")
    blob = "\n".join(entries).encode()
    return {
        "name": "faults_surface",
        "symbols": len(entries),
        "surface_crc32": zlib.crc32(blob),
    }


def run_chaos_fingerprint() -> dict:
    """Chaos-plane fingerprint: one seeded fault plan through the solo
    driver. Everything injected and everything recovered runs on the
    virtual clock, so fault counts, restart counts and the recovered
    elapsed time drift exactly when the injection or recovery machinery
    changes."""
    from repro.faults import FaultPlan, FaultRule, levels_fingerprint
    from repro.xbfs.driver import XBFS

    graph = rmat(12, 8, seed=2)
    plan = FaultPlan(seed=1337, name="gate", rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch",
                  probability=0.4, max_triggers=3),
        FaultRule(site="gcd.*", kind="latency", probability=0.3,
                  magnitude=2.0),
    ))
    injector = plan.injector()
    result = XBFS(graph, device=scaled_device(graph),
                  injector=injector).run(0)
    return {
        "name": "chaos",
        "faults_injected": injector.faults_injected,
        "level_restarts": result.level_restarts,
        "elapsed_ms": result.elapsed_ms,
        "levels_crc32": levels_fingerprint(result.levels),
    }


def run_telemetry_fingerprint() -> dict:
    """Observability fingerprint: the public surface of
    :mod:`repro.telemetry` plus the counter namespace a canonical
    seeded traced run exposes. Host clocks never enter the blob — the
    virtual span count, event count and dotted counter names are pure
    functions of the model, so the CRC drifts exactly when the
    telemetry API or the instrumentation points change."""
    import inspect
    import zlib

    import repro.telemetry as telemetry
    from repro.telemetry import CounterRegistry, Tracer

    entries = []
    for name in sorted(telemetry.__all__):
        obj = getattr(telemetry, name)
        entries.append(name)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") or not callable(member):
                    continue
                entries.append(f"{name}.{attr}{inspect.signature(member)}")
    surface_blob = "\n".join(entries).encode()

    tracer = Tracer()
    XBFS(rmat(12, 8, seed=2), tracer=tracer).run(0)
    registry = CounterRegistry()
    registry.attach_tracer(tracer)
    names_blob = "\n".join(registry.names()).encode()
    return {
        "name": "telemetry",
        "symbols": len(entries),
        "surface_crc32": zlib.crc32(surface_blob),
        "counters": len(registry.names()),
        "counter_names_crc32": zlib.crc32(names_blob),
        "spans": len(tracer.spans),
        "events": len(tracer.events),
    }


def run_service_fingerprint() -> dict:
    """Serving-layer fingerprint: a fixed synthetic trace through the
    registry + coalescing scheduler + admission stack. Latency
    percentiles and service GTEPS are pure functions of the model, so
    they drift exactly when the model (or the scheduler) changes."""
    from repro.service import BFSService, synthetic_trace

    service = BFSService(workers=2, window_ms=5.0, seed=0)
    sizes = {"rmat:10": 1024, "rmat:11": 2048, "rmat:12": 4096}
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=96, seed=23, burst=8, mean_gap_ms=1.0
    )
    return service.replay(trace).summary("service")


def run_routing_fingerprint() -> dict:
    """Engine-selection fingerprint: a fixed synthetic trace replayed
    through a service whose distributed threshold forces the larger
    graphs onto the multi-GCD pod. Which engine serves which dispatch
    — and the routed latency/GTEPS — are pure functions of the routing
    policy, so this summary drifts exactly when the policy (or the
    distributed cost model under it) changes. Routed levels are also
    CRC'd against the answer the replay actually returned."""
    from repro.faults import levels_fingerprint
    from repro.service import BFSService, synthetic_trace

    service = BFSService(
        workers=2,
        window_ms=5.0,
        seed=0,
        num_gcds=4,
        # rmat:11/rmat:12 land above ~0.15 MiB of CSR; rmat:10 stays on
        # the single-GCD engines.
        distributed_threshold_mb=0.15,
    )
    sizes = {"rmat:10": 1024, "rmat:11": 2048, "rmat:12": 4096}
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=72, seed=31, burst=6, mean_gap_ms=1.0
    )
    report = service.replay(trace)
    summary = report.summary("routing")
    routed = [o for o in report.served if o.engine == "multigcd"]
    assert routed, "routing fingerprint trace never reached the pod"
    import zlib

    crc = 0
    for o in routed:
        crc = zlib.crc32(
            levels_fingerprint(o.levels).to_bytes(8, "little"), crc
        )
    summary["routed_queries"] = len(routed)
    summary["routed_levels_crc32"] = crc
    return summary


def run_linalg_batch_fingerprint() -> dict:
    """Batch-width routing fingerprint: wide same-graph bursts replayed
    through a service with the linear-algebra tier armed. Which bursts
    clear the threshold, the bitmap engine's per-level direction
    schedule and the word-wide kernel costs are all pure functions of
    the model, so the summary drifts exactly when the tier's policy or
    the masked-SpMM cost model changes. Served levels are CRC'd so a
    wrong answer can never hide behind stable timing."""
    import zlib

    import numpy as np

    from repro.faults import levels_fingerprint
    from repro.service import BFSService, Query

    service = BFSService(
        workers=2,
        window_ms=5.0,
        seed=0,
        linalg_batch_threshold=96,
    )
    rng = np.random.default_rng(41)
    queries = []
    t = 0.0
    # Wide bursts clear the threshold and run on the bitmap engine; the
    # narrow burst stays on the concurrent path — both tiers in one
    # fingerprint.
    for spec, width in (("rmat:11", 150), ("rmat:10", 24),
                        ("rmat:12", 200), ("rmat:11", 150)):
        n = 1 << int(spec.rsplit(":", 1)[1])
        for s in rng.choice(n, size=width, replace=False):
            queries.append(
                Query(qid=len(queries), graph=spec, source=int(s),
                      arrival_ms=t)
            )
        t += 50.0
    report = service.replay(queries)
    summary = report.summary("linalg_batch")
    routed = [o for o in report.served if o.engine == "linalg_batch"]
    assert routed, "linalg fingerprint trace never reached the bitmap tier"
    crc = 0
    for o in routed:
        crc = zlib.crc32(
            levels_fingerprint(o.levels).to_bytes(8, "little"), crc
        )
    summary["routed_queries"] = len(routed)
    summary["routed_levels_crc32"] = crc
    return summary


def run_exchange_plane_fingerprint() -> dict:
    """Exchange-plane fingerprint: one seeded graph through the 1D pod
    (codec + overlap) and the 2D grid. Wire/raw byte totals, the
    per-format message mix, hidden-latency accounting and the routed
    2D service summary are all pure functions of the cost model, so
    they drift exactly when the codec's format choice, the overlap
    accounting or the grid collectives change. Levels are CRC'd so a
    wrong answer can never hide behind stable byte counts."""
    import numpy as np

    from repro.faults import levels_fingerprint
    from repro.multigcd import Grid2dBFS, MultiGcdBFS

    graph = rmat(12, 8, seed=2)
    source = np.array([0])
    one_d = MultiGcdBFS(
        graph, 4, codec=True, overlap=True
    ).run_batch(source)
    two_d = Grid2dBFS(
        graph, 9, codec=True, overlap=True
    ).run_batch(source)
    assert np.array_equal(one_d.levels, two_d.levels)

    def messages(result, fmt: str) -> int:
        return sum(f[fmt] for f in result.level_formats)

    return {
        "name": "exchange_plane",
        "levels_crc32": levels_fingerprint(one_d.levels[0]),
        "1d_bytes_wire": one_d.bytes_exchanged,
        "1d_bytes_raw": one_d.bytes_raw,
        "1d_messages_sparse": messages(one_d, "sparse"),
        "1d_messages_bitmap": messages(one_d, "bitmap"),
        "1d_elapsed_ms": one_d.elapsed_ms,
        "1d_overlap_saved_ms": one_d.overlap_saved_ms,
        "2d_bytes_wire": two_d.bytes_exchanged,
        "2d_bytes_raw": two_d.bytes_raw,
        "2d_messages_sparse": messages(two_d, "sparse"),
        "2d_messages_bitmap": messages(two_d, "bitmap"),
        "2d_elapsed_ms": two_d.elapsed_ms,
        "2d_overlap_saved_ms": two_d.overlap_saved_ms,
    }


def run_cluster_fingerprint() -> dict:
    """Cluster-layer fingerprint: the :mod:`repro.cluster` public
    surface (same CRC32 scheme as the faults surface) plus one
    seeded multi-tenant replay through a 3-replica cluster with a
    replica-death storm. Placement, stealing, quota decisions, QoS
    tails and the recovery counters are all pure functions of the
    model, so the numbers drift exactly when the cluster layer (or
    anything it routes onto) changes — and the served answers are
    CRC'd, so a drifting answer can never hide behind stable timing."""
    import inspect
    import zlib

    import repro.cluster as cluster
    from repro.cluster import (
        ClusterRouter,
        TenantQuota,
        death_plan,
    )
    from repro.faults import levels_fingerprint
    from repro.service.trace import synthetic_trace

    entries = []
    for name in sorted(cluster.__all__):
        obj = getattr(cluster, name)
        entries.append(name)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") or not callable(member):
                    continue
                entries.append(f"{name}.{attr}{inspect.signature(member)}")
    surface_blob = "\n".join(entries).encode()

    sizes = {"rmat:10": 1024, "rmat:11": 2048, "rmat:12": 4096}
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=96, seed=23, tenants=3,
        interactive_frac=0.7, mean_gap_ms=1.0, burst=8,
    )
    router = ClusterRouter(
        replicas=3,
        workers=2,
        window_ms=5.0,
        seed=0,
        quotas={"t0": TenantQuota(rate_per_s=500, burst=4)},
        fault_plan=death_plan(seed=1, probability=0.05, restart_ms=150.0,
                              max_triggers=2),
    )
    report = router.replay(trace)
    summary = report.summary("cluster")
    # Keep the committed baseline flat: nested per-replica/placement/
    # quota detail is exercised by the cluster test tier, not the gate.
    for key in ("per_replica", "placement", "quota"):
        summary.pop(key, None)
    crc = 0
    for o in report.served:
        crc = zlib.crc32(
            levels_fingerprint(o.levels).to_bytes(8, "little"), crc
        )
    summary["served_levels_crc32"] = crc
    summary["symbols"] = len(entries)
    summary["surface_crc32"] = zlib.crc32(surface_blob)
    return summary


def run_obs_fingerprint() -> dict:
    """Observability-plane fingerprint: the :mod:`repro.obs` public
    surface (same CRC32 scheme as the faults surface) plus one
    seeded multi-tenant replay through a 2-replica cluster with the
    whole plane on — decision audit, SLO burn rules, bounded sketch
    metrics. The audit record counts per stage, the alert tally and
    the sketch percentiles are pure functions of the model; the served
    answers are CRC'd so the plane can never silently perturb them."""
    import inspect
    import zlib

    import repro.obs as obs
    from repro.cluster import ClusterRouter, TenantQuota
    from repro.faults import levels_fingerprint
    from repro.obs import AuditLog, SloEngine, SloSpec
    from repro.service.trace import synthetic_trace

    entries = []
    for name in sorted(obs.__all__):
        obj = getattr(obs, name)
        entries.append(name)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_") or not callable(member):
                    continue
                entries.append(f"{name}.{attr}{inspect.signature(member)}")
    surface_blob = "\n".join(entries).encode()

    audit = AuditLog()
    slo = SloEngine([
        SloSpec(name="interactive", latency_target_ms=30.0, objective=0.9,
                qos="interactive"),
        SloSpec(name="batch", latency_target_ms=200.0, objective=0.95,
                qos="batch"),
    ])
    sizes = {"rmat:10": 1024, "rmat:11": 2048}
    trace = synthetic_trace(
        list(sizes), sizes, num_queries=64, seed=29, tenants=2,
        interactive_frac=0.6, mean_gap_ms=1.0, burst=6,
    )
    router = ClusterRouter(
        replicas=2,
        workers=2,
        window_ms=5.0,
        seed=0,
        quotas={"t0": TenantQuota(rate_per_s=400, burst=3)},
        audit=audit,
        slo=slo,
        bounded_metrics=True,
        # Route through the 2D grid so the per-level direction switches
        # and the exchange-codec picks land in the audit counts.
        distributed_threshold_mb=0.05,
        partition="2d",
    )
    report = router.replay(trace)

    crc = 0
    for o in report.served:
        crc = zlib.crc32(
            levels_fingerprint(o.levels).to_bytes(8, "little"), crc
        )
    summary: dict = {
        "name": "obs",
        "runs": 1,
        "queries_served": len(report.served),
        "served_levels_crc32": crc,
        "alerts_fired": sum(s["alerts_fired"] for s in slo.status()),
        "symbols": len(entries),
        "surface_crc32": zlib.crc32(surface_blob),
    }
    for stage, count in sorted(audit.counters().items()):
        summary[f"audit_{stage}"] = count
    sketch = router.replicas[0].service.metrics.latency_sketch
    summary["sketch_count"] = sketch.count
    summary["sketch_buckets"] = sketch.num_buckets
    for q in (50, 95, 99):
        summary[f"sketch_p{q}_ms"] = sketch.percentile(q)
    return summary


def run_mutation_fingerprint() -> dict:
    """Dynamic-graph fingerprint: a chained seeded mutate/repair replay
    plus one service trace with interleaved mutation barriers. The
    repaired level CRCs, the relaxed-edge totals, the registry's
    version/mutation counters and the executor's repair-vs-recompute
    decisions are all pure functions of the model, so they drift
    exactly when the delta algebra, the repair relaxation or the
    invalidation policy changes — and every answer is CRC'd, so a wrong
    repaired level can never hide behind stable counts."""
    import zlib

    import numpy as np

    from repro.faults import levels_fingerprint
    from repro.graph import GraphDelta, apply_delta, random_delta
    from repro.obs import AuditLog
    from repro.service import BFSService, Query
    from repro.xbfs.driver import XBFS
    from repro.xbfs.repair import repair_levels

    # Part 1: three chained insert-only deltas repaired in sequence —
    # each repaired array must be bit-identical to a fresh traversal.
    graph = rmat(12, 8, seed=2)
    levels = XBFS(graph).run(0).levels
    crc = zlib.crc32(levels_fingerprint(levels).to_bytes(8, "little"))
    relaxed = affected = 0
    for step in range(3):
        delta = random_delta(graph, num_inserts=64, seed=100 + step)
        graph = apply_delta(graph, delta)
        rep = repair_levels(graph, levels, delta.inserts)
        assert np.array_equal(rep.levels, XBFS(graph).run(0).levels)
        levels = rep.levels
        relaxed += rep.relaxed_edges
        affected += rep.affected_vertices
        crc = zlib.crc32(
            levels_fingerprint(levels).to_bytes(8, "little"), crc
        )

    # Part 2: the same machinery end to end — queries interleaved with
    # mutate barriers through the serving runtime, audit plane on.
    audit = AuditLog()
    service = BFSService(workers=2, window_ms=5.0, seed=0, audit=audit)
    spec = "rmat:10"
    base = service.registry.get(spec)[0].graph
    rng = np.random.default_rng(47)
    sources = rng.choice(base.num_vertices, size=12, replace=False)
    queries: list[Query] = []
    t = 0.0
    small = random_delta(base, num_inserts=8, seed=53)
    big = random_delta(
        apply_delta(base, small), num_inserts=4, num_deletes=4, seed=59
    )
    for phase, delta in ((0, small), (1, big), (2, None)):
        for s in sources:
            queries.append(Query(qid=len(queries), graph=spec,
                                 source=int(s), arrival_ms=t))
            t += 1.0
        if delta is not None:
            queries.append(Query(qid=len(queries), graph=spec, source=0,
                                 arrival_ms=t, op="mutate", delta=delta))
            t += 5.0
    report = service.replay(queries)
    served_crc = 0
    for o in report.served:
        served_crc = zlib.crc32(
            levels_fingerprint(o.levels).to_bytes(8, "little"), served_crc
        )
    counters = audit.counters()
    stats = service.registry.stats()
    return {
        "name": "mutation",
        "repair_levels_crc32": crc,
        "repair_relaxed_edges": relaxed,
        "repair_affected_vertices": affected,
        "queries_served": len(report.served),
        "served_levels_crc32": served_crc,
        "graph_version": service.registry.graph_version(spec),
        "registry_mutations": stats["mutations"],
        "dispatches_repair": report.metrics.engine_dispatches.get(
            "repair", 0
        ),
        "audit_records_mutation": counters.get("records_mutation", 0),
        "audit_records_repair": counters.get("records_repair", 0),
    }


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] not in ("record", "check"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, path = sys.argv[1], sys.argv[2]
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.02
    summaries = run_matrix()
    if mode == "record":
        save_results(summaries, path)
        print(f"recorded {len(summaries)} fingerprints to {path}")
        return 0
    baseline = load_results(path)
    moved = diff_results(baseline, summaries, tolerance=0.0)
    drifts = [d for d in moved if abs(d.relative) > tolerance]
    within = [d for d in moved if abs(d.relative) <= tolerance]
    if within:
        # Moves under the gate still pass, but never silently.
        print(f"moved within {tolerance:.0%}:")
        _print_drifts(within)
    if not drifts:
        print(f"no drift beyond {tolerance:.0%} against {path}")
        return 0
    print(f"DRIFT beyond {tolerance:.0%}:")
    _print_drifts(drifts)
    return 1


def _print_drifts(drifts) -> None:
    for d in drifts:
        print(
            f"  {d.name}.{d.metric}: {d.baseline:.6g} -> {d.candidate:.6g} "
            f"({d.relative:+.3%})"
        )


if __name__ == "__main__":
    raise SystemExit(main())
