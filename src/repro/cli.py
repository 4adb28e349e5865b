"""Command-line interface.

The subcommands cover the common workflows without writing Python:

* ``repro run``          — BFS on a graph spec, print the strategy
  trace and modelled GTEPS (``--concurrent`` batches the sources
  through the iBFS-style engine and reports the sharing factor).
* ``repro trace``        — the same run with the telemetry tracer on;
  exports the dual-clock timeline as Chrome/Perfetto ``trace_event``
  JSON (and optionally raw JSONL).
* ``repro datasets``     — the Table II inventory at a chosen scale.
* ``repro experiment``   — regenerate any paper table/figure.
* ``repro generate``     — materialise a graph spec into a ``.csrbin``.
* ``repro serve``        — replay a JSONL query trace through the
  serving runtime (registry + coalescing scheduler + admission).
  Trace records with ``"op": "mutate"`` carry an edge-delta
  (``insert``/``delete`` lists) instead of a source: they act as a
  barrier that flushes pending queries on that graph, then bumps the
  registry version so later queries see the mutated graph (small
  insert-only deltas are served by incremental BFS repair).
* ``repro service-bench``— synthetic open-loop load through the same
  runtime.
* ``repro cluster-bench``— replica-count scale-out sweep of the
  sharded multi-tenant cluster (``repro.cluster``) with optional
  replica-death storms, checked against the single-service oracle.

Graph specs (the ``--graph`` argument):

* ``rmat:S[:EF]``   — R-MAT at scale ``S`` (edge factor ``EF``, default 16),
* ``LJ`` / ``UP`` / ``OR`` / ``DB`` / ``R23`` / ``R25`` — Table II
  stand-ins (``--scale-factor`` selects the down-scale),
* ``file:PATH``     — a ``.csrbin`` written by ``repro generate``.

Exposed as ``python -m repro`` and the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import PAPER_DATASETS
from repro.graph.generators import rmat
from repro.graph.io import load_csr_binary, save_csr_binary
from repro.graph.stats import pick_sources

__all__ = ["main", "parse_graph_spec"]


def parse_graph_spec(spec: str, *, scale_factor: int = 64, seed: int = 0) -> CSRGraph:
    """Resolve a ``--graph`` spec string into a graph."""
    if spec.startswith("rmat:"):
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ReproError(f"bad rmat spec {spec!r}; expected rmat:S[:EF]")
        scale = int(parts[1])
        edge_factor = int(parts[2]) if len(parts) == 3 else 16
        return rmat(scale, edge_factor, seed=seed)
    if spec.startswith("file:"):
        return load_csr_binary(spec[len("file:"):])
    if spec in PAPER_DATASETS:
        return PAPER_DATASETS[spec].build(scale_factor, seed)
    raise ReproError(
        f"unknown graph spec {spec!r}; use rmat:S[:EF], file:PATH or one of "
        f"{sorted(PAPER_DATASETS)}"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import scaled_device
    from repro.metrics.tables import format_ratio
    from repro.telemetry import Tracer
    from repro.xbfs.classifier import AdaptiveClassifier
    from repro.xbfs.driver import XBFS

    graph = parse_graph_spec(
        args.graph, scale_factor=args.scale_factor, seed=args.seed
    )
    print(f"graph: {graph}")
    if args.concurrent:
        return _run_concurrent(graph, args)
    device = scaled_device(graph) if args.scaled_cache else None
    tracer = Tracer() if args.host_profile else None
    engine = XBFS(
        graph,
        rearrange=args.rearrange,
        classifier=AdaptiveClassifier(alpha=args.alpha),
        **({"device": device} if device is not None else {}),
        tracer=tracer,
    )
    sources = pick_sources(graph, args.sources, seed=args.seed + 1)
    batch = engine.run_many(sources, force_strategy=args.force)
    run = batch.steady_runs[0]
    if args.trace:
        print(f"{'level':>5}  {'strategy':<12} {'ratio':>10}  {'ms':>10}")
        for lr in run.level_results:
            ratio = lr.records[-1].ratio if lr.records else 0.0
            print(
                f"{lr.level:>5}  {lr.strategy:<12} "
                f"{format_ratio(ratio):>10}  {lr.runtime_ms:>10.4f}"
            )
    print(
        f"sources: {sources.size}  depth: {run.depth}  "
        f"reached: {run.reached:,}/{graph.num_vertices:,}"
    )
    print(f"steady n-to-n: {batch.steady_gteps:.3f} GTEPS (modelled)")
    if tracer is not None:
        # Correlate the run the lines above describe; its ``bfs.run``
        # span has the same index as the run in ``batch.runs``.
        index = next(i for i, r in enumerate(batch.runs) if r is run)
        _print_correlation(tracer, run_index=index)
    if args.profile_csv:
        engine._gcd.profiler.to_csv(args.profile_csv)
        print(f"wrote kernel counters to {args.profile_csv}")
    return 0


def _print_correlation(tracer, *, run_index: int = -1) -> None:
    """The per-level virtual/host table of one ``bfs.run`` span (by
    index in run order; the last by default), read back through the
    registry."""
    from repro.telemetry import CounterRegistry

    registry = CounterRegistry()
    registry.attach_tracer(tracer)
    span = tracer.spans_named("bfs.run")[run_index]
    source = span.attrs.get("source")
    print(
        f"per-level virtual/host correlation (telemetry registry, "
        f"trace {span.trace_id}"
        + (f", source {source}" if source is not None else "")
        + "):"
    )
    print(registry.render_correlation(
        registry.level_correlation(trace_id=span.trace_id)
    ))


def _run_concurrent(graph, args: argparse.Namespace) -> int:
    """``repro run --concurrent``: one iBFS-style shared traversal."""
    from repro.experiments.common import scaled_device
    from repro.telemetry import Tracer
    from repro.xbfs.concurrent import ConcurrentBFS

    if args.force is not None:
        raise ReproError("--force cannot be combined with --concurrent "
                         "(the batched engine has no per-level strategies)")
    device = scaled_device(graph) if args.scaled_cache else None
    tracer = Tracer() if args.host_profile else None
    engine = ConcurrentBFS(
        graph,
        **({"device": device} if device is not None else {}),
        tracer=tracer,
    )
    sources = pick_sources(graph, args.sources, seed=args.seed + 1)
    result = engine.run(sources)
    reached = int((result.levels[0] >= 0).sum())
    print(
        f"concurrent batch: {sources.size} sources  depth: {result.depth}  "
        f"reached(src0): {reached:,}/{graph.num_vertices:,}"
    )
    print(
        f"union edges: {result.union_edges:,}  "
        f"solo edges: {result.solo_edges:,}  "
        f"sharing factor: {result.sharing_factor:.2f}x"
    )
    print(f"aggregate: {result.gteps:.3f} GTEPS (modelled)")
    if tracer is not None:
        _print_correlation(tracer)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: one traced BFS run, exported for Perfetto."""
    from repro.experiments.common import scaled_device
    from repro.telemetry import Tracer, write_chrome_trace, write_jsonl

    graph = parse_graph_spec(
        args.graph, scale_factor=args.scale_factor, seed=args.seed
    )
    print(f"graph: {graph}")
    tracer = Tracer(sample_every=args.sample_every)
    device = scaled_device(graph) if args.scaled_cache else None
    sources = pick_sources(graph, args.sources, seed=args.seed + 1)
    if args.concurrent:
        from repro.xbfs.concurrent import ConcurrentBFS

        engine = ConcurrentBFS(
            graph,
            tracer=tracer,
            **({"device": device} if device is not None else {}),
        )
        engine.run(sources)
    else:
        from repro.xbfs.driver import XBFS

        engine = XBFS(
            graph,
            tracer=tracer,
            **({"device": device} if device is not None else {}),
        )
        for src in sources:
            engine.run(int(src))
    write_chrome_trace(tracer, args.out)
    print(
        f"wrote Chrome trace to {args.out} "
        f"({tracer.traces} traces, {len(tracer.spans)} spans, "
        f"{len(tracer.events)} events) — open in ui.perfetto.dev"
    )
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)
        print(f"wrote JSONL span/event log to {args.jsonl}")
    _print_correlation(tracer)
    return 0


def _export_service_telemetry(service, args: argparse.Namespace) -> None:
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        return
    from repro.telemetry import (
        CounterRegistry,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )

    tracer = service.tracer
    if trace_out:
        if str(trace_out).endswith(".jsonl"):
            write_jsonl(tracer, trace_out)
        else:
            write_chrome_trace(tracer, trace_out)
        print(
            f"wrote trace to {trace_out} "
            f"({tracer.traces} traces, {len(tracer.spans)} spans, "
            f"{len(tracer.events)} events)"
        )
    if metrics_out:
        registry = CounterRegistry()
        registry.attach("service", service.metrics)
        registry.attach_tracer(tracer)
        inj = service.fault_injector
        if inj is not None:
            registry.attach(
                "faults",
                lambda: {
                    "injected": inj.faults_injected,
                    "visits": inj.visits,
                },
            )
        write_prometheus(registry, metrics_out)
        print(f"wrote Prometheus metrics snapshot to {metrics_out}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import BFSService, load_trace

    queries = load_trace(args.trace)
    service = _service_from_args(args, BFSService)
    report = service.replay(queries)
    print(f"replayed {len(queries)} queries from {args.trace}")
    print(report.render())
    if args.validate:
        _validate_outcomes(service, report)
        print(f"validated {len(report.served)} served queries against "
              f"the serial oracle: all levels match")
    if args.out:
        _save_service_summary(report, args)
    _export_service_telemetry(service, args)
    _export_obs(service, args)
    return 0


def _cmd_service_bench(args: argparse.Namespace) -> int:
    from repro.service import BFSService, synthetic_trace

    service = _service_from_args(args, BFSService)
    specs = [s.strip() for s in args.graphs.split(",") if s.strip()]
    sizes = {}
    for spec in specs:
        entry, _ = service.registry.get(spec)
        sizes[spec] = entry.graph.num_vertices
    queries = synthetic_trace(
        specs,
        sizes,
        num_queries=args.queries,
        seed=args.seed,
        mean_gap_ms=args.gap_ms,
        burst=args.burst,
        deadline_ms=args.deadline_ms,
    )
    report = service.replay(queries)
    print(f"synthetic open-loop load: {len(queries)} queries over "
          f"{len(specs)} graphs (burst {args.burst}, "
          f"mean gap {args.gap_ms} ms)")
    print(report.render())
    if args.out:
        _save_service_summary(report, args)
    _export_service_telemetry(service, args)
    _export_obs(service, args)
    return 0


def _service_from_args(args: argparse.Namespace, cls):
    fault_plan = None
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_json(args.fault_plan)
    tracer = None
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from repro.telemetry import Tracer

        tracer = Tracer()
    audit, slo = _obs_from_args(args, tracer)
    return cls(
        memory_budget_mb=args.memory_budget_mb,
        workers=args.workers,
        max_batch=args.max_batch,
        window_ms=args.window_ms,
        max_queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        scale_factor=args.scale_factor,
        seed=args.seed,
        num_gcds=args.num_gcds,
        distributed_threshold_mb=args.distributed_threshold,
        linalg_batch_threshold=args.linalg_batch_threshold,
        partition=args.partition,
        fault_plan=fault_plan,
        audit=audit,
        slo=slo,
        bounded_metrics=getattr(args, "bounded_metrics", False),
        **({"tracer": tracer} if tracer is not None else {}),
    )


def _validate_outcomes(service, report) -> None:
    from repro.graph.stats import bfs_levels_reference

    import numpy as np

    # Keyed by graph *version* too: a pre-mutation answer must check
    # against the graph as it stood when the query was served, not the
    # registry's current head.
    graphs: dict[tuple[str, int], object] = {}
    oracle: dict[tuple[str, int, int], object] = {}
    for outcome in report.served:
        gkey = (outcome.query.graph, outcome.graph_version)
        if gkey not in graphs:
            graphs[gkey] = service.registry.graph_at_version(*gkey)
        key = (*gkey, outcome.query.source)
        if key not in oracle:
            oracle[key] = bfs_levels_reference(graphs[gkey], outcome.query.source)
        if not np.array_equal(outcome.levels, oracle[key]):
            raise ReproError(
                f"query {outcome.query.qid} ({key[0]} v{key[1]}, source "
                f"{key[2]}): served levels diverge from the solo oracle"
            )


def _save_service_summary(report, args: argparse.Namespace) -> None:
    from repro.metrics.results_io import save_results

    save_results([report.summary("service")], args.out)
    print(f"wrote service summary to {args.out}")


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=2,
                        help="simulated GCD workers in the dispatch pool")
    parser.add_argument("--max-batch", type=int, default=None,
                        help="max distinct sources per coalesced batch "
                        "(default: the active engine's cap — 64 "
                        "concurrent, lifted to the linalg-batch "
                        "engine's cap when --linalg-batch-threshold "
                        "is set)")
    parser.add_argument("--window-ms", type=float, default=5.0,
                        help="coalescing window (virtual ms)")
    parser.add_argument("--queue-depth", type=int, default=256,
                        help="admission limit on pending queries")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="default per-query deadline (virtual ms)")
    parser.add_argument("--memory-budget-mb", type=float, default=256.0,
                        help="graph-registry LRU budget")
    parser.add_argument("--num-gcds", type=int, default=4,
                        help="pod width of the distributed engine (2/4/8 "
                        "simulated GCDs) used above the routing threshold")
    parser.add_argument("--distributed-threshold", type=float, default=None,
                        metavar="MB",
                        help="CSR footprint (MiB) above which a graph is "
                        "served by the multi-GCD engine instead of a "
                        "single simulated GCD (default: never)")
    parser.add_argument("--linalg-batch-threshold", type=int, default=None,
                        metavar="K",
                        help="same-graph batches of >= K distinct sources "
                        "run as one masked CSR x matrix product on the "
                        "bitmap linear-algebra engine instead of 64-source "
                        "concurrent batches (default: tier disabled)")
    parser.add_argument("--partition", choices=("1d", "2d"), default="1d",
                        help="decomposition of the distributed tier: 1d "
                        "(edge-balanced rows, naive exchange) or 2d "
                        "(checkerboard grid with the compressed frontier-"
                        "exchange codec and comm/compute overlap)")
    parser.add_argument("--scale-factor", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fault-plan", default=None, metavar="PATH",
                        help="JSON fault plan (see repro.faults) to "
                        "inject while serving; recovery keeps answers "
                        "bit-identical")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="save the service summary JSON here")


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the correlated dual-clock timeline here "
                        "(Chrome trace_event JSON for ui.perfetto.dev; a "
                        ".jsonl suffix writes the raw span/event log "
                        "instead)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a Prometheus-style text snapshot of the "
                        "service counters here")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--audit-out", default=None, metavar="PATH",
                        help="record every admission / placement / routing-"
                        "tier / direction / codec decision and write the "
                        "audit log here as JSONL (render chains with "
                        "'repro explain')")
    parser.add_argument("--slo", action="append", default=None, metavar="SPEC",
                        help="attach an SLO, e.g. 'name=interactive,"
                        "target_ms=50,objective=0.99,qos=interactive'; "
                        "repeatable. Burn-rate alerts print after the "
                        "replay")
    parser.add_argument("--bounded-metrics", action="store_true",
                        help="replace exact per-class latency lists with "
                        "mergeable log-bucket sketches (O(buckets) memory; "
                        "percentiles within ~1%%)")


def _obs_from_args(args: argparse.Namespace, tracer=None):
    """(audit, slo) observers requested on the command line."""
    audit = None
    if getattr(args, "audit_out", None):
        from repro.obs import AuditLog

        audit = AuditLog()
    slo = None
    specs = getattr(args, "slo", None)
    if specs:
        from repro.obs import SloEngine, parse_slo_spec

        try:
            slo = SloEngine([parse_slo_spec(s) for s in specs], tracer=tracer)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    return audit, slo


def _export_obs(service, args: argparse.Namespace) -> None:
    audit = getattr(service, "audit", None)
    if audit is not None and getattr(args, "audit_out", None):
        audit.write(args.audit_out)
        print(f"wrote {len(audit)} audit records for "
              f"{len(audit.queries())} queries to {args.audit_out} "
              f"(inspect with: repro explain <qid> --audit {args.audit_out})")
    slo = getattr(service, "slo", None)
    if slo is not None:
        print(slo.render())


def _cmd_cluster_bench(args: argparse.Namespace) -> int:
    """Sweep replica counts over one open-loop multi-tenant trace.

    Every sweep point replays the *same* trace through a fresh
    :class:`~repro.cluster.router.ClusterRouter`; a fault-free
    single-service replay provides the answer oracle, so the sweep
    doubles as the cluster's differential check (sharding, stealing
    and replica deaths must never change an answer).
    """
    from repro.cluster import TenantQuota, death_plan, run_scaleout_sweep
    from repro.metrics.tables import render_table

    counts = [int(c) for c in args.replicas.split(",") if c.strip()]
    if not counts or any(c < 1 for c in counts):
        raise ReproError(f"--replicas must be positive ints, got {args.replicas!r}")
    specs = [s.strip() for s in args.graphs.split(",") if s.strip()]
    sizes = {
        spec: parse_graph_spec(
            spec, scale_factor=args.scale_factor, seed=args.seed
        ).num_vertices
        for spec in specs
    }

    fault_plan = None
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_json(args.fault_plan)
    elif args.death_probability > 0:
        fault_plan = death_plan(
            seed=args.death_seed,
            probability=args.death_probability,
            restart_ms=args.restart_ms,
            max_triggers=args.max_deaths if args.max_deaths >= 0 else None,
        )

    quotas = None
    if args.quota_rate is not None:
        quotas = {
            f"t{i}": TenantQuota(
                rate_per_s=args.quota_rate, burst=args.quota_burst
            )
            for i in range(args.tenants)
        }

    router_kwargs = dict(
        memory_budget_mb=args.memory_budget_mb,
        workers=args.workers,
        max_batch=args.max_batch,
        window_ms=args.window_ms,
        max_queue_depth=args.queue_depth,
        scale_factor=args.scale_factor,
        seed=args.seed,
        num_gcds=args.num_gcds,
        distributed_threshold_mb=args.distributed_threshold,
        linalg_batch_threshold=args.linalg_batch_threshold,
        partition=args.partition,
        steal_threshold=args.steal_threshold,
        balance_factor=args.balance_factor,
        quotas=quotas,
        bounded_metrics=getattr(args, "bounded_metrics", False),
    )

    tracers: dict[int, object] = {}
    tracer_factory = None
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from repro.telemetry import Tracer

        def tracer_factory(count):
            tracers[count] = Tracer()
            return tracers[count]

    summaries = run_scaleout_sweep(
        counts,
        graphs=specs,
        num_vertices=sizes,
        num_queries=args.queries,
        seed=args.seed,
        tenants=args.tenants,
        interactive_frac=args.interactive_frac,
        mean_gap_ms=args.gap_ms,
        burst=args.burst,
        deadline_ms=args.deadline_ms,
        fault_plan=fault_plan,
        router_kwargs=router_kwargs,
        tracer_factory=tracer_factory,
    )

    rows = []
    for s in summaries:
        rows.append([
            s["replicas"],
            s["queries_served"],
            s["rejected_quota"],
            f"{s.get('qos_interactive_p99_ms', 0.0):.3f}",
            f"{s.get('qos_batch_p99_ms', 0.0):.3f}",
            f"{s['balance_ratio']:.2f}",
            s["steals"],
            s["deaths"],
            s["redispatched_queries"],
            f"{s['cluster_gteps']:.3f}",
            "yes" if s["bit_identical"] else "NO",
        ])
    print(render_table(
        ["replicas", "served", "quota rej", "int p99 ms", "batch p99 ms",
         "balance", "steals", "deaths", "redisp", "GTEPS", "identical"],
        rows,
        title=(
            f"cluster scale-out: {args.queries} queries, "
            f"{args.tenants} tenants over {specs}"
            + (f", fault plan {fault_plan.name!r}" if fault_plan else "")
        ),
    ))
    identical = sum(s["bit_identical"] for s in summaries)
    print(f"bit-identical to the single-service oracle: "
          f"{identical}/{len(summaries)} sweep points")
    if args.out:
        from repro.metrics.results_io import save_results

        save_results(summaries, args.out)
        print(f"wrote cluster sweep summaries to {args.out}")
    _export_cluster_telemetry(summaries, tracers, args)
    return 0 if identical == len(summaries) else 1


def _export_cluster_telemetry(summaries, tracers, args) -> None:
    """Export the *last* sweep point's timeline + counter snapshot."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not tracers or not (trace_out or metrics_out):
        return
    from repro.telemetry import (
        CounterRegistry,
        write_chrome_trace,
        write_jsonl,
        write_prometheus,
    )

    last_count = max(tracers)
    tracer = tracers[last_count]
    if trace_out:
        if str(trace_out).endswith(".jsonl"):
            write_jsonl(tracer, trace_out)
        else:
            write_chrome_trace(tracer, trace_out)
        print(
            f"wrote {last_count}-replica trace to {trace_out} "
            f"({tracer.traces} traces, {len(tracer.spans)} spans, "
            f"{len(tracer.events)} events)"
        )
    if metrics_out:
        summary = next(
            s for s in summaries if s["replicas"] == last_count
        )
        numeric = {
            k: v for k, v in summary.items() if isinstance(v, (int, float))
        }
        registry = CounterRegistry()
        registry.attach("cluster", lambda: numeric)
        registry.attach_tracer(tracer)
        write_prometheus(registry, metrics_out)
        print(f"wrote Prometheus metrics snapshot to {metrics_out}")


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.experiments import table2
    from repro.experiments.common import ExperimentScale

    result = table2.run(
        ExperimentScale(dataset_scale_factor=args.scale_factor, seed=args.seed)
    )
    print(result.render())
    return 0


_EXPERIMENTS = {
    "table1": "table1",
    "table2": "table2",
    "table3": ("profiles", "run_table3"),
    "table4": ("profiles", "run_table4"),
    "table5": ("profiles", "run_table5"),
    "table6": "table6",
    "fig5": "fig5",
    "fig6": "fig6",
    "fig7": "fig7",
    "fig8": "fig8",
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.experiments as experiments
    from repro.experiments.common import DEFAULT, FAST, ExperimentScale

    scales = {
        "fast": FAST,
        "bench": ExperimentScale(
            dataset_scale_factor=128, rmat_scale=17, num_sources=4
        ),
        "default": DEFAULT,
    }
    scale = scales[args.scale]
    target = _EXPERIMENTS[args.name]
    if isinstance(target, tuple):
        module_name, func_name = target
        runner = getattr(getattr(experiments, module_name), func_name)
    else:
        runner = getattr(experiments, target).run
    print(runner(scale).render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(
        args.graph, scale_factor=args.scale_factor, seed=args.seed
    )
    save_csr_binary(graph, args.out)
    print(f"wrote {graph} to {args.out}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Render the decision chain of one query from an audit JSONL."""
    from repro.obs import AuditLog

    audit = AuditLog.load(args.audit)
    for qid in args.qids:
        print(audit.render_chain(qid))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """One-screen cluster health: replay a deterministic synthetic
    multi-tenant load through a cluster and snapshot its state."""
    from repro.cluster import ClusterRouter, TenantQuota
    from repro.service.trace import synthetic_trace
    from repro.obs import cluster_health, render_health, write_health

    _, slo = _obs_from_args(args)
    specs = [s.strip() for s in args.graphs.split(",") if s.strip()]
    sizes = {
        spec: parse_graph_spec(
            spec, scale_factor=args.scale_factor, seed=args.seed
        ).num_vertices
        for spec in specs
    }
    quotas = None
    if args.quota_rate is not None:
        quotas = {
            f"t{i}": TenantQuota(rate_per_s=args.quota_rate,
                                 burst=args.quota_burst)
            for i in range(args.tenants)
        }
    router = ClusterRouter(
        replicas=args.replicas,
        workers=args.workers,
        window_ms=args.window_ms,
        scale_factor=args.scale_factor,
        seed=args.seed,
        quotas=quotas,
        slo=slo,
        bounded_metrics=getattr(args, "bounded_metrics", False),
    )
    trace = synthetic_trace(
        specs, sizes,
        num_queries=args.queries,
        seed=args.seed,
        tenants=args.tenants,
        mean_gap_ms=args.gap_ms,
        burst=args.burst,
    )
    router.replay(trace)
    snapshot = cluster_health(router, slo=slo)
    print(render_health(snapshot))
    if args.json:
        write_health(snapshot, args.json)
        print(f"wrote health snapshot JSON to {args.json}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XBFS-on-AMD-GPUs reproduction: BFS engines on a "
        "simulated MI250X GCD.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run BFS and report modelled GTEPS")
    run.add_argument("--graph", required=True, help="graph spec (see module docs)")
    run.add_argument("--sources", type=int, default=8, help="n-to-n source count")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scale-factor", type=int, default=64,
                     help="down-scale for dataset specs")
    run.add_argument("--alpha", type=float, default=0.1,
                     help="bottom-up switch ratio")
    run.add_argument("--force", choices=["scan_free", "single_scan", "bottom_up"],
                     default=None, help="pin one strategy for every level")
    run.add_argument("--rearrange", action="store_true",
                     help="degree-aware neighbour re-arrangement")
    run.add_argument("--concurrent", action="store_true",
                     help="batch all sources through the iBFS-style "
                     "concurrent engine and report the sharing factor")
    run.add_argument("--trace", action="store_true",
                     help="print the per-level strategy trace")
    run.add_argument("--no-scaled-cache", dest="scaled_cache",
                     action="store_false",
                     help="keep the full 8 MiB L2 instead of scaling it "
                     "with the graph")
    run.add_argument("--host-profile", action="store_true",
                     help="trace the run and print its per-level host "
                          "wall-clock next to the modelled time "
                          "(machine-dependent, never part of the "
                          "deterministic fingerprints)")
    run.add_argument("--profile-csv", default=None, metavar="PATH",
                     help="dump the per-kernel rocprofiler-style counters "
                     "of the last run to CSV")
    run.set_defaults(func=_cmd_run)

    datasets = sub.add_parser("datasets", help="print the Table II inventory")
    datasets.add_argument("--scale-factor", type=int, default=64)
    datasets.add_argument("--seed", type=int, default=0)
    datasets.set_defaults(func=_cmd_datasets)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.add_argument("--scale", choices=["fast", "bench", "default"],
                            default="bench")
    experiment.set_defaults(func=_cmd_experiment)

    generate = sub.add_parser("generate", help="write a graph to .csrbin")
    generate.add_argument("--graph", required=True)
    generate.add_argument("--out", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--scale-factor", type=int, default=64)
    generate.set_defaults(func=_cmd_generate)

    serve = sub.add_parser(
        "serve", help="replay a JSONL query trace through the serving runtime"
    )
    serve.add_argument("--trace", required=True, metavar="PATH",
                       help="JSONL trace (see repro.service.trace; records "
                       "with op=mutate apply edge deltas between queries)")
    serve.add_argument("--validate", action="store_true",
                       help="check every served level array against the "
                       "serial oracle")
    _add_service_args(serve)
    _add_telemetry_args(serve)
    _add_obs_args(serve)
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="run BFS with tracing on and export the dual-clock timeline",
    )
    trace.add_argument("--graph", required=True,
                       help="graph spec (see module docs)")
    trace.add_argument("--sources", type=int, default=1,
                       help="number of traced runs (or batch size with "
                       "--concurrent)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--scale-factor", type=int, default=64,
                       help="down-scale for dataset specs")
    trace.add_argument("--concurrent", action="store_true",
                       help="trace one batched run through the iBFS-style "
                       "engine instead of solo runs")
    trace.add_argument("--sample-every", type=int, default=1,
                       help="keep one trace (top-level run) in every N")
    trace.add_argument("--no-scaled-cache", dest="scaled_cache",
                       action="store_false",
                       help="keep the full 8 MiB L2 instead of scaling it "
                       "with the graph")
    trace.add_argument("--out", required=True, metavar="PATH",
                       help="Chrome trace_event JSON output path")
    trace.add_argument("--jsonl", default=None, metavar="PATH",
                       help="also write the raw JSONL span/event log here")
    trace.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "service-bench",
        help="synthetic open-loop load through the serving runtime",
    )
    bench.add_argument("--graphs", default="rmat:10,rmat:11,rmat:12",
                       help="comma-separated graph specs")
    bench.add_argument("--queries", type=int, default=200)
    bench.add_argument("--burst", type=int, default=8,
                       help="same-graph queries per arrival burst")
    bench.add_argument("--gap-ms", type=float, default=1.0,
                       help="mean inter-burst gap (virtual ms)")
    _add_service_args(bench)
    _add_telemetry_args(bench)
    _add_obs_args(bench)
    bench.set_defaults(func=_cmd_service_bench)

    cluster = sub.add_parser(
        "cluster-bench",
        help="sweep replica counts over an open-loop multi-tenant trace "
        "and check every answer against the single-service oracle",
    )
    cluster.add_argument("--replicas", default="1,2,4,8",
                         help="comma-separated replica counts to sweep")
    cluster.add_argument("--graphs", default="rmat:10,rmat:11,rmat:12",
                         help="comma-separated graph specs")
    cluster.add_argument("--queries", type=int, default=160)
    cluster.add_argument("--tenants", type=int, default=4,
                         help="tenants drawing queries (t0..tN-1)")
    cluster.add_argument("--interactive-frac", type=float, default=0.7,
                         help="fraction of queries in the interactive "
                         "QoS class (rest are batch)")
    cluster.add_argument("--burst", type=int, default=8,
                         help="same-graph queries per arrival burst")
    cluster.add_argument("--gap-ms", type=float, default=1.0,
                         help="mean inter-burst gap (virtual ms)")
    cluster.add_argument("--steal-threshold", type=int, default=8,
                         help="queue-depth gap that triggers cross-replica "
                         "work stealing")
    cluster.add_argument("--balance-factor", type=float, default=1.5,
                         help="placed-bytes overshoot (x fair share) that "
                         "overrides the hash-ring owner")
    cluster.add_argument("--quota-rate", type=float, default=None,
                         metavar="PER_S",
                         help="token-bucket refill rate applied to every "
                         "tenant (default: no quotas)")
    cluster.add_argument("--quota-burst", type=float, default=8.0,
                         help="token-bucket burst size per tenant")
    cluster.add_argument("--death-probability", type=float, default=0.0,
                         help="per-liveness-probe replica-death probability "
                         "(builds a seeded cluster.replica fault plan; "
                         "ignored when --fault-plan is given)")
    cluster.add_argument("--death-seed", type=int, default=0)
    cluster.add_argument("--restart-ms", type=float, default=200.0,
                         help="virtual ms a dead replica takes to restart")
    cluster.add_argument("--max-deaths", type=int, default=2,
                         help="cap on injected deaths (-1 = unlimited)")
    _add_service_args(cluster)
    _add_telemetry_args(cluster)
    cluster.add_argument("--bounded-metrics", action="store_true",
                         help="bounded-memory latency sketches on every "
                         "replica instead of exact per-class lists")
    cluster.set_defaults(func=_cmd_cluster_bench)

    explain = sub.add_parser(
        "explain",
        help="render the decision-audit chain of one or more queries",
    )
    explain.add_argument("qids", type=int, nargs="+",
                         help="query id(s) to explain")
    explain.add_argument("--audit", required=True, metavar="PATH",
                         help="audit JSONL written by --audit-out")
    explain.set_defaults(func=_cmd_explain)

    top = sub.add_parser(
        "top",
        help="one-screen cluster health snapshot over a synthetic load",
    )
    top.add_argument("--replicas", type=int, default=3)
    top.add_argument("--graphs", default="rmat:10,rmat:11",
                     help="comma-separated graph specs of the load")
    top.add_argument("--queries", type=int, default=96)
    top.add_argument("--tenants", type=int, default=3)
    top.add_argument("--burst", type=int, default=8)
    top.add_argument("--gap-ms", type=float, default=1.0)
    top.add_argument("--workers", type=int, default=2)
    top.add_argument("--window-ms", type=float, default=5.0)
    top.add_argument("--quota-rate", type=float, default=None,
                     help="per-tenant token rate/s (default: no quotas)")
    top.add_argument("--quota-burst", type=float, default=8.0)
    top.add_argument("--scale-factor", type=int, default=64)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--slo", action="append", default=None, metavar="SPEC",
                     help="attach an SLO (same syntax as service --slo)")
    top.add_argument("--bounded-metrics", action="store_true")
    top.add_argument("--json", default=None, metavar="PATH",
                     help="also write the snapshot as JSON here")
    top.set_defaults(func=_cmd_top)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
