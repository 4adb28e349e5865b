#!/usr/bin/env python
"""Generate API.md: a reference of every public item with its summary.

Walks the package's public surface (every ``__all__`` of every module),
pulls the first docstring line and the signature, and writes a compact
markdown reference. Deterministic; re-run after API changes:

    python tools/generate_api_md.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re

import repro

#: Modules whose __all__ constitutes the public API, in document order.
MODULES = [
    "repro",
    "repro.graph.csr",
    "repro.graph.delta",
    "repro.graph.generators",
    "repro.graph.datasets",
    "repro.graph.io",
    "repro.graph.rearrange",
    "repro.graph.relabel",
    "repro.graph.stats",
    "repro.gcd.device",
    "repro.gcd.memory",
    "repro.gcd.cache",
    "repro.gcd.atomics",
    "repro.gcd.wavefront",
    "repro.gcd.kernel",
    "repro.gcd.simulator",
    "repro.gcd.profiler",
    "repro.gcd.lane_interpreter",
    "repro.xbfs.status",
    "repro.xbfs.scratch",
    "repro.xbfs.frontier",
    "repro.xbfs.scan_free",
    "repro.xbfs.single_scan",
    "repro.xbfs.bottom_up",
    "repro.xbfs.classifier",
    "repro.xbfs.workload",
    "repro.xbfs.driver",
    "repro.xbfs.concurrent",
    "repro.xbfs.bitmap",
    "repro.xbfs.linalg_batch",
    "repro.xbfs.tuning",
    "repro.xbfs.repair",
    "repro.baselines.serial",
    "repro.baselines.gunrock",
    "repro.baselines.enterprise",
    "repro.baselines.hierarchical",
    "repro.baselines.sssp",
    "repro.baselines.linalg",
    "repro.multigcd.partition",
    "repro.multigcd.comm",
    "repro.multigcd.exchange",
    "repro.multigcd.topology",
    "repro.multigcd.distributed_bfs",
    "repro.multigcd.grid2d",
    "repro.apps.components",
    "repro.apps.scc",
    "repro.apps.probes",
    "repro.metrics.gteps",
    "repro.metrics.efficiency",
    "repro.metrics.tables",
    "repro.metrics.graph500",
    "repro.metrics.results_io",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.recovery",
    "repro.faults.chaos",
    "repro.service.request",
    "repro.service.registry",
    "repro.service.admission",
    "repro.service.scheduler",
    "repro.service.execution",
    "repro.service.metrics",
    "repro.service.trace",
    "repro.service.runtime",
    "repro.cluster.placement",
    "repro.cluster.qos",
    "repro.cluster.replica",
    "repro.cluster.router",
    "repro.cluster.report",
    "repro.cluster.bench",
    "repro.telemetry.tracer",
    "repro.telemetry.counters",
    "repro.telemetry.export",
    "repro.telemetry.stats",
    "repro.telemetry.sketch",
    "repro.obs.slo",
    "repro.obs.audit",
    "repro.obs.health",
    "repro.obs.stream",
    "repro.paperdata",
    "repro.experiments.common",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n", 1)[0].strip()


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return ""


#: The address in a default ``repr`` (``<... at 0x7f2bb8d84e00>``).
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def render(value) -> str:
    """A constant's value as API.md shows it.

    Its ``repr``, unless that carries a memory address (which would
    change on every run): then functions and classes render by
    qualified name, other objects by type, and containers and
    dataclasses item by item.
    """
    text = repr(value)
    if not _ADDRESS.search(text):
        return text
    if inspect.isroutine(value) or inspect.isclass(value):
        return value.__qualname__
    if dataclasses.is_dataclass(value):
        fields = ", ".join(
            f"{f.name}={render(getattr(value, f.name))}"
            for f in dataclasses.fields(value) if f.repr
        )
        return f"{type(value).__qualname__}({fields})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{render(k)}: {render(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(render(v) for v in value) + "]"
    if isinstance(value, tuple):
        items = [render(v) for v in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return f"<{type(value).__qualname__}>"


def describe(module, name: str) -> str | None:
    obj = getattr(module, name, None)
    if obj is None:
        return f"- `{name}` — *(constant)*"
    if inspect.isclass(obj):
        lines = [f"- **class `{name}`** — {first_line(obj)}"]
        for meth_name, meth in sorted(vars(obj).items()):
            if meth_name.startswith("_"):
                continue
            if callable(meth):
                summary = first_line(meth)
                if summary:
                    lines.append(f"  - `.{meth_name}{signature_of(meth)}` — {summary}")
            elif isinstance(meth, property):
                summary = first_line(meth.fget) if meth.fget else ""
                if summary:
                    lines.append(f"  - `.{meth_name}` *(property)* — {summary}")
        return "\n".join(lines)
    if callable(obj):
        return f"- `{name}{signature_of(obj)}` — {first_line(obj)}"
    return f"- `{name}` = `{render(obj)}`" if not inspect.ismodule(obj) else None


def main() -> None:
    out = [
        "# API reference\n",
        "Generated by `python tools/generate_api_md.py`; regenerate after "
        "API changes. One entry per `__all__` member.\n",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        public = getattr(module, "__all__", None)
        if not public:
            continue
        out.append(f"\n## `{module_name}`\n")
        summary = first_line(module)
        if summary:
            out.append(f"{summary}\n")
        for name in public:
            entry = describe(module, name)
            if entry:
                out.append(entry)
    with open("API.md", "w") as fh:
        fh.write("\n".join(out) + "\n")
    print(f"wrote API.md ({len(out)} entries over {len(MODULES)} modules)")


if __name__ == "__main__":
    main()
