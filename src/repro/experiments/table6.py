"""Table VI — total memory read (MB) and runtime per level for all
three strategies, same seed, same source.

The shape assertions the paper's discussion makes, which this driver's
result exposes as booleans for tests:

* levels 0–1: scan-free strictly cheapest (memory and time); bottom-up
  catastrophically expensive;
* the peak-ratio levels: bottom-up strictly cheapest;
* the level right before the peak (paper's level 2): single-scan's
  runtime beats scan-free *despite reading more bytes*;
* tail levels: scan-free reads the least.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.common import DEFAULT, ExperimentScale, cached_rmat, scaled_device, sources_for
from repro.gcd.profiler import LevelSummary, Profiler
from repro.metrics.tables import level_totals_table
from repro.xbfs.classifier import BOTTOM_UP, SCAN_FREE, SINGLE_SCAN
from repro.xbfs.driver import XBFS

__all__ = ["Table6Result", "run"]

_STRATEGIES = (SCAN_FREE, SINGLE_SCAN, BOTTOM_UP)


@dataclass(frozen=True)
class Table6Result:
    summaries: dict[str, list[LevelSummary]]
    ratios: list[float]

    @property
    def depth(self) -> int:
        return len(self.ratios)

    def winner_at(self, level: int) -> str:
        """Strategy with the lowest total runtime at a level."""
        best, best_rt = "", float("inf")
        for name, rows in self.summaries.items():
            for s in rows:
                if s.level == level and s.runtime_ms < best_rt:
                    best, best_rt = name, s.runtime_ms
        return best

    def fetch_at(self, level: int, strategy: str) -> float:
        for s in self.summaries[strategy]:
            if s.level == level:
                return s.fetch_mb
        return float("nan")

    @property
    def peak_level(self) -> int:
        return int(np.argmax(self.ratios))

    def render(self) -> str:
        body = level_totals_table(
            self.summaries,
            title="Table VI: total memory read (MB) / runtime (ms) per level "
            "(* = fastest)",
        )
        return f"{body}\n(ratio peak at level {self.peak_level})"


def run(scale: ExperimentScale = DEFAULT) -> Table6Result:
    """Regenerate Table VI.

    Warm runs (the paper's level-0 ~20 ms warm-up rows are an artifact
    its own discussion sets aside when comparing strategies, so the
    comparison here uses steady-state numbers).
    """
    graph = cached_rmat(scale.rmat_scale, 16, scale.seed)
    source = int(sources_for(graph, scale)[0])
    summaries: dict[str, list[LevelSummary]] = {}
    ratios: list[float] = []
    device = scaled_device(graph)
    for strategy in _STRATEGIES:
        engine = XBFS(graph, device=device)
        engine.run(source, force_strategy=strategy)  # warm up
        result = engine.run(source, force_strategy=strategy)
        prof = Profiler()
        prof.extend([r for r in result.records if r.strategy == strategy])
        summaries[strategy] = prof.per_level_totals()
        if strategy == SCAN_FREE:
            ratios = [
                lr.records[0].ratio if lr.records else 0.0
                for lr in result.level_results
            ]
    return Table6Result(summaries=summaries, ratios=ratios)
