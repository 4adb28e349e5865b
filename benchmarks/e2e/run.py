"""End-to-end, layer-by-layer serving benchmark.

Replays four seeded traces through the cluster front door
(:meth:`repro.cluster.router.ClusterRouter.replay`) and reports both
clocks: host (CPU-time) throughput and set-up time, and the modelled
(virtual-clock) latency and GTEPS of the serving stack. Traced replays
break host time down by layer (:mod:`layers`). See README.md.

Run every workload, one subprocess each::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed S]

or one workload in this process::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

``--trace 0`` measures the end-to-end metrics only, ``--trace 1`` adds
traced replays and reports the per-layer metrics; without ``--trace``
both are reported. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the run exits 1 when
any answer is wrong or any replay fails to repeat replay 1 bit for bit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

#: Seed of the checked-in numbers, and the one kept back to test that a
#: claimed gain is not tuned to the default seed's inputs.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
#: Timed replays per run, at least; more while ``--seconds`` lasts.
MIN_REPS = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Distinct (graph, version, source) answers checked against the oracle.
ORACLE_CAP = 1024
#: Order of the workloads in a full run.
ORDER = ("solo-sparse", "batch-burst", "pod-large", "churn-ops")


def _metric_table() -> dict:
    spec = json.loads(SPEC.read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def _load_program() -> None:
    """Import the program from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program from {src}: {exc}")
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: repro was imported from {repro.__file__}, not {src}")


# ----------------------------------------------------------------------
# One replay and what it is checked against

def _digest(report, workload, attempted: int):
    """(per-query answer CRCs, modelled metrics) of one replay.

    Two replays of one trace must agree on both bit for bit.
    """
    import numpy as np

    answers = {}
    for o in report.outcomes:
        if o.served:
            answers[o.query.qid] = zlib.crc32(np.ascontiguousarray(o.levels))
        else:
            answers[o.query.qid] = o.rejected
    served = report.served
    lat = [report.latency_of(o) for o in served]
    busy_ms = sum(
        w["busy_ms"] for rep in report.replicas for w in rep["report"].worker_stats
    )
    edges = sum(o.traversed_edges for o in served)
    model = {
        "model_p50_ms": float(np.percentile(lat, 50)),
        "model_p99_ms": float(np.percentile(lat, 99)),
        "model_gteps": edges / (busy_ms * 1e-3) / 1e9,
        "served_frac": len(served) / attempted,
        "slo_met_frac": sum(x <= workload.slo_ms for x in lat) / attempted,
        "served": len(served),
    }
    return answers, model


class Replay(NamedTuple):
    cpu_s: float
    wall_s: float
    digest: tuple
    extra: object


def _replay(workload, graphs, seed, queries, attempted, obs=True, recorder=None) -> Replay:
    """One replay on a fresh (cold) router: host seconds on both clocks,
    the digest, and what ``recorder(report)`` returns.

    Throughput uses the process's CPU seconds: a replay runs on one
    thread and never waits for I/O, so CPU time is its wall-clock time
    without the time other processes held the core. The report is
    dropped before returning, so no two replays hold a report at once.
    """
    router = workload.router(graphs, seed, obs=obs)
    c0, w0 = time.process_time(), time.perf_counter()
    report = router.replay(queries)
    cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - w0
    digest = _digest(report, workload, attempted)
    extra = None if recorder is None else recorder(report)
    del report, router
    gc.collect()
    return Replay(cpu_s, wall_s, digest, extra)


def _mismatches(ref, digest) -> int:
    """Queries whose outcome differs from replay 1's (or is missing)."""
    ref_answers, _ = ref
    answers, _ = digest
    return sum(answers.get(qid) != crc for qid, crc in ref_answers.items())


def check_answers(report, trace, seed: int) -> dict:
    """Compare served answers with the serial oracle on the graph version
    each was served against.

    Distinct (graph, version, source) triples are sampled, seeded, up to
    :data:`ORACLE_CAP`, round-robin over the engines that served them so
    every engine is covered; every outcome of a sampled triple is
    compared.
    """
    import numpy as np

    from repro.graph.stats import bfs_levels_reference

    groups: dict[tuple, list] = {}
    for o in report.served:
        groups.setdefault((o.query.graph, o.graph_version, o.query.source), []).append(o)
    queues: dict[str, list] = {}
    for key, outs in groups.items():
        for engine in {o.engine for o in outs}:
            queues.setdefault(engine, []).append(key)
    rng = np.random.default_rng(seed)
    for engine, keys in queues.items():
        queues[engine] = [keys[i] for i in rng.permutation(len(keys))]
    chosen: dict[tuple, None] = {}
    target = min(ORACLE_CAP, len(groups))
    while len(chosen) < target:
        for engine in sorted(queues):
            keys = queues[engine]
            while keys and keys[-1] in chosen:
                keys.pop()
            if keys and len(chosen) < target:
                chosen[keys.pop()] = None
    checked = wrong = 0
    engines: set[str] = set()
    for spec, version, source in chosen:
        expect = bfs_levels_reference(trace.versions[spec][version], source)
        for o in groups[(spec, version, source)]:
            checked += 1
            wrong += not np.array_equal(o.levels, expect)
            engines.add(o.engine)
    return {"checked_answers": checked, "wrong_answers": wrong, "engines": sorted(engines)}


# ----------------------------------------------------------------------
# One workload

def run_workload(name: str, seed: int, *, seconds: float, trace: bool,
                 num_queries: int | None = None, trace_path: Path | None = None) -> dict:
    """Set up, check, time and (with ``trace``) trace one workload.

    Returns ``{"metrics", "checks", "host"}``: ``metrics`` holds every
    end-to-end metric and, with ``trace``, every per-layer metric.
    """
    import resource

    import layers
    from workloads import WORKLOADS, build_graphs

    workload = WORKLOADS[name]
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.process_time()
        graphs = build_graphs(workload.specs)
        workload.router(graphs, seed)
        setup.append(time.process_time() - t0)

    trace_ = workload.trace(graphs, seed, num_queries)
    queries = trace_.queries
    attempted = len(trace_.bfs)

    # Replay 1: every later replay must repeat it, and its answers are
    # checked against the oracle.
    checks: dict = {}

    def oracle(report):
        checks.update(check_answers(report, trace_, seed))
        checks["lost"] = attempted - len(report.outcomes)

    ref = _replay(workload, graphs, seed, queries, attempted, recorder=oracle).digest

    # Each round: one plain replay; with tracing, also one traced replay
    # and, on churn-ops, one obs-off replay of the same trace (the obs
    # A/B). Interleaving keeps drift of the host out of both ratios.
    times: list[float] = []
    off_times: list[float] = []
    traced_times: list[float] = []
    traced = {}

    def traced_replay(**kwargs):
        with layers.traced() as rec:
            out = _replay(**kwargs, recorder=lambda r: layers.layer_metrics(rec, r))
        traced.update(recorder=rec, metrics=out.extra, wall_s=out.wall_s)
        return out

    rounds = [(_replay, True, times)]
    if trace and workload.churn:
        rounds.append((_replay, False, off_times))
    if trace:
        rounds.append((traced_replay, True, traced_times))
    mismatched = 0
    repeated = True
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        for replay, obs, sink in rounds:
            out = replay(
                workload=workload, graphs=graphs, seed=seed, queries=queries,
                attempted=attempted, obs=obs,
            )
            sink.append(out.cpu_s)
            mismatched += _mismatches(ref, out.digest)
            repeated &= out.digest[1] == ref[1]
    host_s = statistics.median(times)

    model = dict(ref[1])
    served = model.pop("served")
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host_qps": served / host_s,
        **model,
    }
    host = {"replay_s": times, "setup_s": setup}

    if trace:
        rec = traced["recorder"]
        metrics.update(traced["metrics"])
        metrics["obs.overhead_frac"] = (
            host_s / statistics.median(off_times) - 1.0 if off_times else 0.0
        )
        metrics["trace.overhead_frac"] = statistics.median(traced_times) / host_s - 1.0
        host.update(
            traced_s=traced_times, traced_wall_s=traced["wall_s"],
            obs_off_replay_s=off_times, spans=len(rec.spans),
        )
        if trace_path is not None:
            layers.write_spans(rec, trace_path)

    checks.update(mismatched=mismatched, repeated=repeated)
    replays = 1 + len(times) + len(off_times) + len(traced_times)
    failed = checks["wrong_answers"] + mismatched + checks["lost"]
    correct = failed == 0 and repeated and checks["checked_answers"] > 0
    return {
        "correct": correct,
        "attempted": attempted * replays,
        "failed": failed,
        "metrics": metrics,
        "checks": checks,
        "host": host,
    }


# ----------------------------------------------------------------------
# Output

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(name: str, seed: int, result: dict, table: dict) -> str:
    m, checks, host = result["metrics"], result["checks"], result["host"]
    lines = [
        f"== {name} (seed {seed}): {len(host['replay_s'])} timed replays, "
        f"median {statistics.median(host['replay_s']):.3f} s"
    ]
    for metric, spec in table["end_to_end"].items():
        lines.append(f"  {metric:<14} {_fmt(m[metric]):>12} {spec['unit']}")
    lines.append(
        f"  wrong_answers={checks['wrong_answers']} "
        f"checked_answers={checks['checked_answers']} "
        f"(engines: {', '.join(checks['engines'])}); "
        f"replays repeat replay 1: {'yes' if checks['repeated'] and not checks['mismatched'] else 'NO'}"
    )
    if "traced_s" not in host:
        return "\n".join(lines)
    traced_ms = host["traced_wall_s"] * 1e3
    total = 0.0
    lines.append(
        f"  per-layer (last traced replay {traced_ms / 1e3:.3f} s, {host['spans']} spans, "
        f"trace.overhead_frac {m['trace.overhead_frac']:+.3f}):"
    )
    for layer in _layers(table):
        self_ms = m[f"{layer}.self_ms"]
        total += self_ms
        rest = "  ".join(
            f"{metric.rsplit('.', 1)[1]}={_fmt(m[metric])}"
            for metric in table["per_layer"]
            if metric.rsplit(".", 1)[0] == layer and metric != f"{layer}.self_ms"
        )
        lines.append(
            f"    {layer:<18} {self_ms:10.1f} ms {100 * self_ms / traced_ms:5.1f}%  {rest}"
        )
    lines.append(f"    {'sum of self_ms':<18} {total:10.1f} ms {100 * total / traced_ms:5.1f}%")
    return "\n".join(lines)


def _layers(table: dict) -> list[str]:
    return [n[: -len(".self_ms")] for n in table["per_layer"] if n.endswith(".self_ms")]


def result_line(result: dict, table: dict, kinds) -> dict:
    names = [n for kind in kinds for n in table[kind]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise SystemExit(f"error: the run did not produce metrics {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": result["metrics"][n], "unit": spec["unit"]}
            for kind in kinds
            for n, spec in table[kind].items()
        },
    }


def _write_results(seed: int, workloads: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(
        json.dumps({"seed": seed, "workloads": workloads}, indent=1) + "\n"
    )


# ----------------------------------------------------------------------

def run_one(args) -> int:
    _load_program()
    table = _metric_table()
    trace = args.trace != 0
    OUT.mkdir(exist_ok=True)
    result = run_workload(
        args.workload, args.seed, seconds=args.seconds, trace=trace,
        trace_path=OUT / f"{args.workload}.trace.jsonl" if trace else None,
    )
    kinds = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}
    line = result_line(result, table, kinds[args.trace])
    print(render(args.workload, args.seed, result, table))
    _write_results(args.seed, {args.workload: line})
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    lines = {}
    status = 0
    for name in ORDER:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.trace is not None:
            cmd += ["--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        status = status or proc.returncode
        try:
            lines[name] = json.loads(out[-1])
        except json.JSONDecodeError:
            print(f"error: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
    _write_results(args.seed, lines)
    ok = all(line["correct"] for line in lines.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{name}/{metric}": value
            for name, line in lines.items()
            for metric, value in line["metrics"].items()
        },
    }))
    return status or (0 if ok else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=ORDER, help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help=f"measure for this long (at least {MIN_REPS} timed replays)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args(argv)
    # One process generates the load; nproc is 2, so BLAS stays single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
