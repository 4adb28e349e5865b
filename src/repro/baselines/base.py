"""Shared result type and helpers for the baseline BFS engines.

Every baseline is a :class:`~repro.xbfs.common.SoloEngine`: it runs on
the same warm simulated GCD as XBFS — same cache model, same
launch/sync costs, same atomic accounting — and its n-to-n loop returns
the same :class:`~repro.xbfs.common.BatchResult`, so the Fig 8
comparison isolates *algorithmic* differences (frontier generation
style, duplicate work, redundant relaxations), not differences in how
generously each engine is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gcd.kernel import KernelRecord
from repro.metrics.gteps import gteps

__all__ = ["BaselineResult", "baseline_result"]


@dataclass
class BaselineResult:
    """Outcome of one baseline BFS run."""

    engine: str
    source: int
    levels: np.ndarray
    elapsed_ms: float
    traversed_edges: int
    records: list[KernelRecord] = field(default_factory=list)
    paid_warmup: bool = False
    #: Engine-specific work counter (duplicate frontier entries for
    #: Gunrock, redundant relaxations for SSSP, ...).
    redundant_work: int = 0

    @property
    def gteps(self) -> float:
        return gteps(self.traversed_edges, self.elapsed_ms)

    @property
    def depth(self) -> int:
        lv = self.levels[self.levels >= 0]
        return int(lv.max()) + 1 if lv.size else 0


def baseline_result(
    engine, gcd, source: int, levels: np.ndarray, paid_warmup: bool,
    redundant_work: int = 0,
) -> BaselineResult:
    """``engine``'s run from ``source`` that ended with ``levels`` on
    ``gcd``: the device's clock and kernel records, and the out-degrees
    of every reached vertex as its traversed edges."""
    return BaselineResult(
        engine=engine.ENGINE,
        source=source,
        levels=levels,
        elapsed_ms=gcd.elapsed_ms,
        traversed_edges=int(engine.graph.degrees[levels >= 0].sum()),
        records=list(gcd.profiler.records),
        paid_warmup=paid_warmup,
        redundant_work=redundant_work,
    )
