"""The first-launch warm-up each serving dispatch paid, measured once
for the service and cluster warm-up tests.

:func:`spy_dispatches` records every dispatch :meth:`ExecutionEngine.run
<repro.service.execution.ExecutionEngine.run>` returns.
:func:`extra_ms` reads each engine-served one against a warm run of the
same tier on the same graph and sources, on a fresh engine outside the
service: the difference is the warm-up the dispatch paid, either
:data:`WARMUP_MS` or 0.
"""

from __future__ import annotations

from repro.experiments.common import scaled_device
from repro.gcd.device import MI250X_GCD
from repro.service.execution import _TIERS, ExecutionEngine

#: The warm-up every device in these tests pays (scaled devices keep it).
WARMUP_MS = MI250X_GCD.first_launch_warmup_ms


def spy_dispatches(monkeypatch) -> list:
    """Record ``(executor, entry, live, sources, worker, dispatch)`` for
    every dispatch the executor runs."""
    seen = []
    original = ExecutionEngine.run

    def run(self, entry, live, sources, batched, **kwargs):
        out = original(self, entry, live, sources, batched, **kwargs)
        seen.append((self, entry, live, sources, kwargs["worker"], out))
        return out

    monkeypatch.setattr(ExecutionEngine, "run", run)
    return seen


def _warm_elapsed(executor, entry, tier, live, sources) -> float:
    row = _TIERS[tier]
    engine = row.build(executor, entry.graph, device=scaled_device(entry.graph))
    row.call(engine, live, sources)
    return row.call(engine, live, sources).elapsed_ms


def extra_ms(seen) -> list[tuple[str, int, float]]:
    """``(tier, worker index, ms)`` per dispatch an engine served:
    its ``elapsed_ms`` minus a warm run's. Repair and serial dispatches
    run no device and are left out."""
    out = []
    for executor, entry, live, sources, worker, dispatch in seen:
        tier = dispatch.engine
        if _TIERS[tier].build is None:
            continue
        warm = _warm_elapsed(executor, entry, tier, live, sources)
        out.append((tier, worker.index, dispatch.elapsed_ms - warm))
    return out
