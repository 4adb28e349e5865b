"""Command-line interface.

The subcommands cover the common workflows without writing Python:

* ``repro run``          — BFS on a graph spec, print the strategy
  trace and modelled GTEPS (``--concurrent`` batches the sources
  through the iBFS-style engine and reports the sharing factor;
  ``--trace-out`` exports the run's dual-clock timeline).
* ``repro datasets``     — the Table II inventory at a chosen scale.
* ``repro experiment``   — regenerate any paper table/figure.
* ``repro generate``     — materialise a graph spec into a ``.csrbin``.
* ``repro serve``        — replay queries through the serving runtime
  (registry + coalescing scheduler + admission). The queries come
  from a JSONL trace (``--trace``) or from seeded synthetic open-loop
  load over ``--graphs`` (``--queries``/``--burst``/``--gap-ms``).
  Trace records with ``"op": "mutate"`` carry an edge-delta
  (``insert``/``delete`` lists) instead of a source: they act as a
  barrier that flushes pending queries on that graph, then bumps the
  registry version so later queries see the mutated graph (small
  insert-only deltas are served by incremental BFS repair).
* ``repro explain``      — render the decision chain of queries from
  an audit log written by ``repro serve --audit-out``.
* ``repro top``          — one-screen health snapshot of a sharded
  multi-tenant cluster (``repro.cluster``) over a synthetic load.

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
    tracer = Tracer() if args.host_profile or args.trace_out else None
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
    if args.host_profile:
        # Correlate the run the lines above describe; its ``bfs.run``
        # span has the same index as the run in ``batch.runs``.
        index = next(i for i, r in enumerate(batch.runs) if r is run)
        _print_correlation(tracer, run_index=index)
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
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
    tracer = Tracer() if args.host_profile or args.trace_out else None
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
    if args.host_profile:
        _print_correlation(tracer)
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    return 0


def _write_trace(tracer, path: str) -> None:
    """Export ``tracer``'s dual-clock timeline to ``path``: the raw
    span/event log when it ends in ``.jsonl``, else Chrome/Perfetto
    ``trace_event`` JSON."""
    from repro.telemetry import write_chrome_trace, write_jsonl

    if str(path).endswith(".jsonl"):
        write_jsonl(tracer, path)
    else:
        write_chrome_trace(tracer, path)
    print(
        f"wrote trace to {path} "
        f"({tracer.traces} traces, {len(tracer.spans)} spans, "
        f"{len(tracer.events)} events)"
    )


def _export_service_telemetry(service, args: argparse.Namespace) -> None:
    if not args.trace_out and not args.metrics_out:
        return
    from repro.telemetry import CounterRegistry, write_prometheus

    tracer = service.tracer
    if args.trace_out:
        _write_trace(tracer, args.trace_out)
    if args.metrics_out:
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
        write_prometheus(registry, args.metrics_out)
        print(f"wrote Prometheus metrics snapshot to {args.metrics_out}")


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import load_trace, synthetic_trace

    service = _service_from_args(args)
    if args.trace:
        queries = load_trace(args.trace)
        origin = f"replayed {len(queries)} queries from {args.trace}"
    else:
        specs = [s.strip() for s in args.graphs.split(",") if s.strip()]
        # Sizing the source draws builds every graph into the registry,
        # so the replay starts warm.
        sizes = {
            spec: service.registry.get(spec)[0].graph.num_vertices
            for spec in specs
        }
        queries = synthetic_trace(
            specs,
            sizes,
            num_queries=args.queries,
            seed=args.seed,
            mean_gap_ms=args.gap_ms,
            burst=args.burst,
            deadline_ms=args.deadline_ms,
        )
        origin = (f"synthetic open-loop load: {len(queries)} queries over "
                  f"{len(specs)} graphs (burst {args.burst}, "
                  f"mean gap {args.gap_ms} ms)")
    report = service.replay(queries)
    print(origin)
    print(report.render())
    if args.validate:
        _validate_outcomes(service, report)
        print(f"validated {len(report.served)} served queries against "
              f"the serial oracle: all levels match")
    if args.out:
        from repro.metrics.results_io import save_results

        save_results([report.summary("service")], args.out)
        print(f"wrote service summary to {args.out}")
    _export_service_telemetry(service, args)
    _export_obs(service, args)
    return 0


def _service_from_args(args: argparse.Namespace):
    from repro.service import BFSService

    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_json(args.fault_plan)
    tracer = None
    if args.trace_out or args.metrics_out:
        from repro.telemetry import Tracer

        tracer = Tracer()
    audit = None
    if args.audit_out:
        from repro.obs import AuditLog

        audit = AuditLog()
    return BFSService(
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
        slo=_slo_from_args(args, tracer),
        bounded_metrics=args.bounded_metrics,
        tracer=tracer,
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


def _slo_from_args(args: argparse.Namespace, tracer=None):
    """The SLO engine the ``--slo`` specs ask for, or None."""
    if not args.slo:
        return None
    from repro.obs import SloEngine, parse_slo_spec

    try:
        return SloEngine([parse_slo_spec(s) for s in args.slo], tracer=tracer)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _export_obs(service, args: argparse.Namespace) -> None:
    if args.audit_out:
        audit = service.audit
        audit.write(args.audit_out)
        print(f"wrote {len(audit)} audit records for "
              f"{len(audit.queries())} queries to {args.audit_out} "
              f"(inspect with: repro explain <qid> --audit {args.audit_out})")
    if service.slo is not None:
        print(service.slo.render())


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

    slo = _slo_from_args(args)
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
        bounded_metrics=args.bounded_metrics,
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
    run.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the run's dual-clock timeline here "
                     "(Chrome trace_event JSON for ui.perfetto.dev; a "
                     ".jsonl suffix writes the raw span/event log "
                     "instead)")
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
        "serve", help="replay a JSONL or synthetic query trace through "
        "the serving runtime"
    )
    origin = serve.add_mutually_exclusive_group(required=True)
    origin.add_argument("--trace", metavar="PATH",
                        help="JSONL trace (see repro.service.trace; records "
                        "with op=mutate apply edge deltas between queries)")
    origin.add_argument("--graphs", metavar="SPECS",
                        help="comma-separated graph specs to draw seeded "
                        "synthetic open-loop load over")
    serve.add_argument("--queries", type=int, default=200,
                       help="synthetic queries (with --graphs)")
    serve.add_argument("--burst", type=int, default=8,
                       help="same-graph queries per arrival burst (with "
                       "--graphs)")
    serve.add_argument("--gap-ms", type=float, default=1.0,
                       help="mean inter-burst gap, virtual ms (with "
                       "--graphs)")
    serve.add_argument("--validate", action="store_true",
                       help="check every served level array against the "
                       "serial oracle")
    serve.add_argument("--workers", type=int, default=2,
                       help="simulated GCD workers in the dispatch pool")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="max distinct sources per coalesced batch "
                       "(default: the active engine's cap — 64 "
                       "concurrent, lifted to the linalg-batch "
                       "engine's cap when --linalg-batch-threshold "
                       "is set)")
    serve.add_argument("--window-ms", type=float, default=5.0,
                       help="coalescing window (virtual ms)")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="admission limit on pending queries")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="default per-query deadline (virtual ms)")
    serve.add_argument("--memory-budget-mb", type=float, default=256.0,
                       help="graph-registry LRU budget")
    serve.add_argument("--num-gcds", type=int, default=4,
                       help="pod width of the distributed engine (2/4/8 "
                       "simulated GCDs) used above the routing threshold")
    serve.add_argument("--distributed-threshold", type=float, default=None,
                       metavar="MB",
                       help="CSR footprint (MiB) above which a graph is "
                       "served by the multi-GCD engine instead of a "
                       "single simulated GCD (default: never)")
    serve.add_argument("--linalg-batch-threshold", type=int, default=None,
                       metavar="K",
                       help="same-graph batches of >= K distinct sources "
                       "run as one masked CSR x matrix product on the "
                       "bitmap linear-algebra engine instead of 64-source "
                       "concurrent batches (default: tier disabled)")
    serve.add_argument("--partition", choices=("1d", "2d"), default="1d",
                       help="decomposition of the distributed tier: 1d "
                       "(edge-balanced rows, naive exchange) or 2d "
                       "(checkerboard grid with the compressed frontier-"
                       "exchange codec and comm/compute overlap)")
    serve.add_argument("--scale-factor", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="JSON fault plan (see repro.faults) to "
                       "inject while serving; recovery keeps answers "
                       "bit-identical")
    serve.add_argument("--out", default=None, metavar="PATH",
                       help="save the service summary JSON here")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write the correlated dual-clock timeline here "
                       "(Chrome trace_event JSON for ui.perfetto.dev; a "
                       ".jsonl suffix writes the raw span/event log "
                       "instead)")
    serve.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write a Prometheus-style text snapshot of the "
                       "service counters here")
    serve.add_argument("--audit-out", default=None, metavar="PATH",
                       help="record every admission / placement / routing-"
                       "tier / direction / codec decision and write the "
                       "audit log here as JSONL (render chains with "
                       "'repro explain')")
    serve.add_argument("--slo", action="append", default=None, metavar="SPEC",
                       help="attach an SLO, e.g. 'name=interactive,"
                       "target_ms=50,objective=0.99,qos=interactive'; "
                       "repeatable. Burn-rate alerts print after the "
                       "replay")
    serve.add_argument("--bounded-metrics", action="store_true",
                       help="replace exact per-class latency lists with "
                       "mergeable log-bucket sketches (O(buckets) memory; "
                       "percentiles within ~1%%)")
    serve.set_defaults(func=_cmd_serve)

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
