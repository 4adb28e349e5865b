"""repro.telemetry — the unified tracing/metrics plane.

The paper's methodology *is* observability: its per-level rocprofiler
counter study (Tables III–V, Fig 5) is what justifies the adaptive
direction switch. This package turns that methodology into runtime
infrastructure every layer emits into, instead of silos
(`repro.gcd.Profiler`, `repro.service.ServiceMetrics`) that could not
be correlated. The tracer's host clock is the package's only host
timer: ``repro run --host-profile``, ``--trace-out`` (on ``repro run``
and ``repro serve``) and the end-to-end harness all read host time
from its spans.

* :mod:`repro.telemetry.tracer`   — :class:`Tracer`: structured spans
  and point events with **dual clocks** (simulated virtual ms + host
  wall seconds), deterministic trace/span ids, clock rebasing so the
  service scheduler, the BFS engines, the GCD simulator and the fault
  injector all land on one correlated timeline, and a zero-overhead
  disabled path (:data:`NULL_TRACER`).
* :mod:`repro.telemetry.counters` — :class:`CounterRegistry`: one
  namespaced ``dotted.name -> number`` read API over the kernel
  counters, serving aggregates and the tracer itself.
* :mod:`repro.telemetry.export`   — JSONL event log, Chrome/Perfetto
  ``trace_event`` JSON, and a Prometheus-style text snapshot.
* :mod:`repro.telemetry.stats`    — the shared :func:`percentile`
  every summary in the package interpolates with.

Quick start::

    from repro import XBFS, rmat
    from repro.telemetry import Tracer, write_chrome_trace

    tracer = Tracer()
    XBFS(rmat(12, 8, seed=0), tracer=tracer).run(0)
    write_chrome_trace(tracer, "trace.json")   # open in ui.perfetto.dev

or, from the shell: ``repro run --graph rmat:12 --trace-out trace.json``
and ``repro serve --trace ... --trace-out trace.json --metrics-out m.prom``
(a ``.jsonl`` path writes the raw span/event log instead).
"""

from repro.telemetry.counters import CounterRegistry
from repro.telemetry.export import (
    chrome_trace,
    render_prometheus,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.stats import percentile
from repro.telemetry.tracer import NULL_TRACER, EventRecord, SpanRecord, Tracer

__all__ = [
    "CounterRegistry",
    "EventRecord",
    "NULL_TRACER",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "percentile",
    "render_prometheus",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]
