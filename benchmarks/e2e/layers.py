"""Per-layer host time, measured from outside the program.

:func:`traced` replaces the public entry points of every layer with a
timing wrapper for the length of one replay and puts the originals back
afterwards; the program itself is never edited. Each wrapped call
records one span: layer, function, host start and end, the enclosing
span, and the query ids it serves (front-door calls carry their query's
id, a dispatch carries its live queries' ids, and everything below
inherits its parent's). A layer's *self* time is its spans' durations
minus the time their child spans cover, so the self times of all layers
add up to the traced replay.

Modelled counts are read from what the wrapped calls return
(``KernelRecord``, the engines' ``*Result`` objects,
``DistributedBatchResult``, registry hits) or from the replay's
:class:`~repro.cluster.report.ClusterReport`; they repeat exactly for a
given trace.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro.service.execution as execution_module
import repro.service.registry as registry_module
from repro.cluster.router import ClusterRouter
from repro.faults.injector import FaultInjector
from repro.gcd.simulator import GCD
from repro.multigcd.distributed_bfs import MultiGcdBFS
from repro.multigcd.grid2d import Grid2dBFS
from repro.obs.audit import AuditLog
from repro.obs.slo import SloEngine
from repro.service.admission import AdmissionController
from repro.service.execution import ExecutionEngine
from repro.service.metrics import ServiceMetrics
from repro.service.registry import GraphRegistry
from repro.service.scheduler import CoalescingScheduler
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS

__all__ = ["LAYERS", "ENGINES", "Recorder", "traced", "layer_metrics", "write_spans"]

# Span slots (a list per span keeps the wrapper cheap).
_LAYER, _FN, _T0, _T1, _PARENT, _QIDS, _OUT, _ERR = range(8)


def _front_door_qids(args):
    return (args[1].qid,)


def _dispatch_qids(args):
    return tuple(q.qid for q in args[2])


def _batch_digest(out):
    return (len(out.sources), out.elapsed_ms, out.solo_edges, out.union_edges)


#: layer -> ((owner, attribute, qids_of(args) or None, digest(result) or None), ...)
#: ``xbfs.repair`` and ``graph.delta`` are patched where the serving
#: stack looks them up, so only calls made by the service are timed.
LAYERS: dict[str, tuple] = {
    "cluster": (
        (ClusterRouter, "submit", _front_door_qids, None),
        (ClusterRouter, "drain", None, None),
    ),
    "service.admission": (
        (AdmissionController, "admit", None, None),
        (AdmissionController, "check_deadline", None, None),
    ),
    "service.scheduler": (
        (CoalescingScheduler, "submit", None, None),
        (CoalescingScheduler, "run_until_idle", None, None),
        (CoalescingScheduler, "apply_mutation", None, None),
    ),
    "service.registry": (
        (GraphRegistry, "get", None, lambda out: (out[1], out[0].build_ms)),
        (GraphRegistry, "mutate", None, None),
        (GraphRegistry, "evict", None, None),
    ),
    "service.execution": (
        (ExecutionEngine, "run", _dispatch_qids, lambda out: out[3]),
    ),
    "xbfs.driver": (
        (XBFS, "run", None, lambda out: (out.elapsed_ms, out.traversed_edges, out.depth)),
    ),
    "xbfs.concurrent": ((ConcurrentBFS, "run", None, _batch_digest),),
    "xbfs.linalg_batch": ((LinAlgBatchBFS, "run", None, _batch_digest),),
    "xbfs.repair": (
        (execution_module, "repair_levels", None,
         lambda out: (out.relaxed_edges, out.elapsed_ms)),
    ),
    "multigcd": tuple(
        (cls, "run_batch", None,
         lambda out: (len(out.sources), out.elapsed_ms, out.comm_ms, out.bytes_exchanged))
        for cls in (MultiGcdBFS, Grid2dBFS)
    ),
    "gcd": (
        (GCD, "launch", None, lambda out: (out,)),
        (GCD, "launch_concurrent", None, tuple),
        (GCD, "sync", None, None),
    ),
    "graph.delta": ((registry_module, "apply_delta", None, None),),
    "obs": (
        (AuditLog, "record", None, None),
        (SloEngine, "observe", None, None),
    ),
    "service.metrics": (
        (ServiceMetrics, "record_outcome", None, None),
        (ServiceMetrics, "record_batch", None, None),
    ),
    "faults": (
        (FaultInjector, "visit", None, None),
        (FaultInjector, "pulse", None, len),
    ),
}

#: Engines whose dispatch counts the execution layer reports.
ENGINES = ("solo", "concurrent", "linalg_batch", "multigcd", "serial", "repair")


class Recorder:
    """In-memory span log filled by the wrappers :func:`traced` installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, qids_of, digest):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if qids_of is not None:
                qids = qids_of(args)
            else:
                qids = spans[parent][_QIDS] if parent >= 0 else ()
            span = [layer, name, 0.0, 0.0, parent, qids, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[_T0] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[_ERR] = type(exc).__name__
                raise
            finally:
                span[_T1] = clock()
                stack.pop()
            if digest is not None:
                span[_OUT] = digest(out)
            return out

        return wrapped

    def self_ms(self) -> list[float]:
        """Per span: its duration minus its direct children's, in ms."""
        own = [(s[_T1] - s[_T0]) * 1e3 for s in self.spans]
        selfs = list(own)
        for i, s in enumerate(self.spans):
            if s[_PARENT] >= 0:
                selfs[s[_PARENT]] -= own[i]
        return selfs


@contextmanager
def traced():
    """Install a wrapper on every function in :data:`LAYERS`; yield the
    :class:`Recorder`; restore every original object on exit."""
    recorder = Recorder()
    saved = []
    try:
        for layer, targets in LAYERS.items():
            for owner, attr, qids_of, digest in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(layer, attr, original, qids_of, digest))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(recorder: Recorder, path: Path) -> None:
    """One JSON object per span, times in ms from the first span."""
    if not recorder.spans:
        path.write_text("")
        return
    origin = recorder.spans[0][_T0]
    selfs = recorder.self_ms()
    with path.open("w") as fh:
        for i, s in enumerate(recorder.spans):
            rec = {
                "id": i,
                "parent": s[_PARENT],
                "layer": s[_LAYER],
                "fn": s[_FN],
                "start_ms": round((s[_T0] - origin) * 1e3, 6),
                "end_ms": round((s[_T1] - origin) * 1e3, 6),
                "self_ms": round(selfs[i], 6),
                "qids": list(s[_QIDS]),
            }
            if s[_ERR] is not None:
                rec["error"] = s[_ERR]
            fh.write(json.dumps(rec) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, report) -> dict:
    """The per-layer metrics of one traced replay (see README), except
    the two overhead ratios, which need untraced replays too."""
    spans = recorder.spans
    selfs = recorder.self_ms()
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for i, s in enumerate(spans):
        by_layer[s[_LAYER]].append(i)

    def calls(layer, fn=None):
        return [spans[i] for i in by_layer[layer] if fn is None or spans[i][_FN] == fn]

    m: dict[str, float] = {}
    for layer, idx in by_layer.items():
        m[f"{layer}.self_ms"] = sum(selfs[i] for i in idx)

    service = [rep["report"] for rep in report.replicas]
    metrics = [r.metrics for r in service]

    m["cluster.calls"] = len(by_layer["cluster"])
    m["cluster.steals"] = report.counters["steals"]
    m["cluster.redispatched"] = report.counters["redispatched_queries"]
    m["cluster.deaths"] = report.counters["deaths"]
    m["cluster.quota_rejects"] = sum(
        s[_ERR] == "QuotaExceededError" for s in calls("cluster", "submit")
    )

    m["service.admission.calls"] = len(by_layer["service.admission"])
    m["service.admission.rejects"] = sum(
        s[_ERR] is not None for s in calls("service.admission")
    )

    dispatches = sum(x.dispatches for x in metrics)
    waits = [o.start_ms - report.arrival0[o.query.qid] for o in report.served]
    workers = [w for r in service for w in r.worker_stats]
    arrivals = list(report.arrival0.values())
    makespan = max((o.finish_ms for o in report.served), default=0.0) - min(arrivals, default=0.0)
    m["service.scheduler.dispatches"] = dispatches
    m["service.scheduler.queries_per_dispatch"] = _ratio(
        sum(x.batch_size_sum for x in metrics), dispatches
    )
    m["service.scheduler.wait_p50_ms"] = float(np.percentile(waits, 50)) if waits else 0.0
    m["service.scheduler.wait_p99_ms"] = float(np.percentile(waits, 99)) if waits else 0.0
    m["service.scheduler.busy_frac"] = _ratio(
        sum(w["busy_ms"] for w in workers), len(workers) * makespan
    )

    gets = [s[_OUT] for s in calls("service.registry", "get") if s[_OUT] is not None]
    m["service.registry.gets"] = len(gets)
    m["service.registry.hit_rate"] = _ratio(sum(hit for hit, _ in gets), len(gets))
    m["service.registry.evictions"] = sum(r.registry_stats["evictions"] for r in service)
    m["service.registry.build_ms"] = sum(build for hit, build in gets if not hit)
    m["service.registry.mutates"] = len(calls("service.registry", "mutate"))

    engines = [s[_OUT] for s in calls("service.execution") if s[_OUT] is not None]
    for engine in ENGINES:
        m[f"service.execution.dispatches_{engine}"] = engines.count(engine)
    m["service.execution.retries"] = sum(x.retries for x in metrics)
    m["service.execution.fallbacks"] = sum(x.fallbacks for x in metrics)
    m["service.execution.level_restarts"] = sum(x.level_restarts for x in metrics)
    m["service.execution.repair_frac"] = _ratio(engines.count("repair"), len(engines))

    def done(layer):
        return [s[_OUT] for s in calls(layer) if s[_OUT] is not None]

    solo = done("xbfs.driver")
    m["xbfs.driver.calls"] = len(by_layer["xbfs.driver"])
    m["xbfs.driver.model_ms"] = sum(d[0] for d in solo)
    m["xbfs.driver.edges"] = sum(d[1] for d in solo)
    m["xbfs.driver.levels"] = sum(d[2] for d in solo)

    for layer in ("xbfs.concurrent", "xbfs.linalg_batch"):
        runs = done(layer)
        m[f"{layer}.calls"] = len(by_layer[layer])
        m[f"{layer}.sources"] = sum(d[0] for d in runs)
        m[f"{layer}.model_ms"] = sum(d[1] for d in runs)
        m[f"{layer}.sharing"] = _ratio(sum(d[2] for d in runs), sum(d[3] for d in runs))

    repairs = done("xbfs.repair")
    m["xbfs.repair.calls"] = len(by_layer["xbfs.repair"])
    m["xbfs.repair.relaxed_edges"] = sum(d[0] for d in repairs)
    m["xbfs.repair.model_ms"] = sum(d[1] for d in repairs)

    pods = done("multigcd")
    pod_ms = sum(d[1] for d in pods)
    m["multigcd.calls"] = len(by_layer["multigcd"])
    m["multigcd.sources"] = sum(d[0] for d in pods)
    m["multigcd.model_ms"] = pod_ms
    m["multigcd.comm_ms"] = sum(d[2] for d in pods)
    m["multigcd.comm_frac"] = _ratio(m["multigcd.comm_ms"], pod_ms)
    m["multigcd.bytes_exchanged"] = sum(d[3] for d in pods)

    records = [r for recs in done("gcd") for r in recs]
    kernel_ms = sum(r.runtime_ms for r in records)
    m["gcd.launches"] = len(records)
    m["gcd.kernel_ms"] = kernel_ms
    m["gcd.fetch_mb"] = sum(r.fetch_kb for r in records) / 1024.0
    m["gcd.mem_frac"] = _ratio(sum(r.mem_ms for r in records), kernel_ms)
    m["gcd.overhead_frac"] = _ratio(sum(r.overhead_ms for r in records), kernel_ms)

    deltas = calls("graph.delta")
    m["graph.delta.calls"] = len(deltas)
    m["graph.delta.ms_per_call"] = _ratio(
        sum(s[_T1] - s[_T0] for s in deltas) * 1e3, len(deltas)
    )

    m["obs.calls"] = len(by_layer["obs"])
    m["service.metrics.calls"] = len(by_layer["service.metrics"])
    m["faults.visits"] = len(calls("faults", "pulse"))
    m["faults.injected"] = sum(done("faults"))
    return m
