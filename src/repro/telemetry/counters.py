"""One namespaced read API over every counter surface in the package.

The counter surfaces — the virtual-time kernel counters of
:class:`repro.gcd.profiler.Profiler`, the serving aggregates of
:class:`repro.service.metrics.ServiceMetrics` and the
:class:`~repro.telemetry.tracer.Tracer` itself — each keep their own
summary shape. A :class:`CounterRegistry` attaches any number of them
under namespaces and flattens everything into one
``dotted.name -> number`` view, so regression gates, experiments and
the Prometheus exporter consume a single source of truth. Host
wall-clock time is not a counter: it lives on the tracer's spans (see
:meth:`CounterRegistry.level_correlation`).

Keys are ``<namespace>.<metric>``; collection happens at
:meth:`CounterRegistry.snapshot` time, so one registry can be read
repeatedly as the run progresses. Adapters are duck-typed on the
source object; a plain callable returning a flat dict works too, which
is how new layers join without touching this module.
"""

from __future__ import annotations

from typing import Callable, Mapping

__all__ = ["CounterRegistry"]


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, Mapping):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(value, bool):
        out[prefix] = int(value)
    elif isinstance(value, (int, float)):
        out[prefix] = value
    # Non-numeric leaves (names, lists of strategies) are not counters.


def _collect_gcd_profiler(profiler) -> dict:
    """Kernel-counter totals from :class:`repro.gcd.profiler.Profiler`."""
    out = {
        "kernels": len(profiler.records),
        "total_runtime_ms": profiler.total_runtime_ms,
        "total_fetch_mb": profiler.total_fetch_mb,
        "atomic_ops": sum(r.atomic_ops for r in profiler.records),
    }
    for name, ms in sorted(profiler.per_kernel_totals().items()):
        out[f"kernel.{name}.runtime_ms"] = ms
    for row in profiler.per_level_totals():
        out[f"level.{row.level}.runtime_ms"] = row.runtime_ms
        out[f"level.{row.level}.kernels"] = row.kernels
    return out


def _collect_service_metrics(metrics) -> dict:
    """Flattened :meth:`ServiceMetrics.summary` (minus the name)."""
    summary = metrics.summary("service")
    summary.pop("name", None)
    out: dict = {}
    for key, value in summary.items():
        _flatten(key, value, out)
    return out


def _collect_tracer(tracer) -> dict:
    out = {
        "traces": tracer.traces,
        "spans": len(tracer.spans),
        "events": len(tracer.events),
        "open_spans": tracer.open_depth,
    }
    by_name: dict[str, int] = {}
    for e in tracer.events:
        by_name[e.name] = by_name.get(e.name, 0) + 1
    for name, n in sorted(by_name.items()):
        out[f"event.{name}"] = n
    return out


class CounterRegistry:
    """Namespaced, read-only view over attached counter sources."""

    def __init__(self) -> None:
        self._sources: dict[str, Callable[[], dict]] = {}
        self._tracer = None

    # ------------------------------------------------------------------
    def attach(self, namespace: str, source) -> None:
        """Attach one counter source under ``namespace``.

        ``source`` may be a zero-argument callable returning a flat
        ``metric -> number`` dict, or one of the known surfaces
        (gcd ``Profiler``, ``ServiceMetrics``, ``Tracer``), which get
        the matching adapter.
        """
        if not namespace or "." in namespace:
            raise ValueError(f"bad namespace {namespace!r} (no dots, non-empty)")
        if namespace in self._sources:
            raise ValueError(f"namespace {namespace!r} already attached")
        collect = self._adapter_for(source)
        self._sources[namespace] = collect

    def attach_tracer(self, tracer, namespace: str = "trace") -> None:
        """Attach a :class:`~repro.telemetry.tracer.Tracer` (also kept
        by reference for :meth:`level_correlation`)."""
        self._tracer = tracer
        self.attach(namespace, tracer)

    def _adapter_for(self, source) -> Callable[[], dict]:
        if hasattr(source, "records") and hasattr(source, "per_kernel_totals"):
            return lambda: _collect_gcd_profiler(source)
        if hasattr(source, "record_outcome") and hasattr(source, "summary"):
            return lambda: _collect_service_metrics(source)
        if hasattr(source, "spans") and hasattr(source, "events"):
            return lambda: _collect_tracer(source)
        if callable(source):
            return source
        raise TypeError(
            f"no counter adapter for {type(source).__name__}; attach a "
            f"callable returning a flat dict instead"
        )

    # ------------------------------------------------------------------
    def namespaces(self) -> list[str]:
        """Attached namespaces, sorted."""
        return sorted(self._sources)

    def snapshot(self) -> dict[str, float]:
        """Collect every source now: ``{namespace.metric: value}``."""
        out: dict[str, float] = {}
        for namespace in sorted(self._sources):
            for key, value in self._sources[namespace]().items():
                out[f"{namespace}.{key}"] = value
        return out

    def read(self, name: str) -> float:
        """One counter by its full dotted name (KeyError when absent)."""
        namespace = name.split(".", 1)[0]
        collect = self._sources.get(namespace)
        if collect is None:
            raise KeyError(f"no namespace {namespace!r} (have {self.namespaces()})")
        flat = {f"{namespace}.{k}": v for k, v in collect().items()}
        return flat[name]

    def names(self) -> list[str]:
        """Every counter name currently readable, sorted."""
        return sorted(self.snapshot())

    # ------------------------------------------------------------------
    def level_correlation(self, *, trace_id: str | None = None) -> list[dict]:
        """Per-level virtual/host rows from the attached tracer's
        ``bfs.level`` spans (empty without a tracer)."""
        if self._tracer is None:
            return []
        return self._tracer.level_correlation(trace_id=trace_id)

    def render_correlation(self, rows: list[dict] | None = None) -> str:
        """The per-level virtual/host correlation table as text."""
        if rows is None:
            rows = self.level_correlation()
        if not rows:
            return "(no level spans recorded)"
        lines = [
            f"{'level':>5}  {'strategy':<12} {'virtual ms':>12} "
            f"{'host ms':>10} {'ratio':>8}"
        ]
        for r in rows:
            lines.append(
                f"{r['level']:>5}  {r['strategy']:<12} "
                f"{r['virtual_ms']:>12.4f} {r['host_ms']:>10.3f} "
                f"{r['ratio']:>8.4f}"
            )
        return "\n".join(lines)
