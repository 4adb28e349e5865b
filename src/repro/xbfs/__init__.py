"""XBFS core: adaptive frontier-queue generation BFS.

Public surface: :class:`~repro.xbfs.driver.XBFS` (the engine),
:class:`~repro.xbfs.classifier.AdaptiveClassifier` (the α/growth
strategy selector), the three strategy modules, and the status
primitives they share.
"""

from repro.xbfs import bottom_up, scan_free, single_scan
from repro.xbfs.classifier import (
    BOTTOM_UP,
    SCAN_FREE,
    SINGLE_SCAN,
    AdaptiveClassifier,
    Decision,
)
from repro.xbfs.bitmap import BitmapBatchResult
from repro.xbfs.common import UNVISITED, BatchResult
from repro.xbfs.concurrent import MAX_CONCURRENT, ConcurrentBFS
from repro.xbfs.driver import XBFS, XBFSResult
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH, LinAlgBatchBFS
from repro.xbfs.level import LevelResult
from repro.xbfs.repair import (
    REPAIR_MS_PER_MEDGE,
    RepairResult,
    repair_cost_ms,
    repair_levels,
)
from repro.xbfs.status import StatusArray
from repro.xbfs.tuning import (
    StrategyRuntimePoint,
    alpha_sweep,
    best_alpha,
    strategy_runtime_vs_ratio,
)
from repro.xbfs.workload import (
    DegreeBins,
    balanced_scan_lengths,
    classify_frontier,
    split_for_streams,
)

__all__ = [
    "XBFS",
    "XBFSResult",
    "BatchResult",
    "AdaptiveClassifier",
    "Decision",
    "SCAN_FREE",
    "SINGLE_SCAN",
    "BOTTOM_UP",
    "UNVISITED",
    "ConcurrentBFS",
    "MAX_CONCURRENT",
    "LinAlgBatchBFS",
    "BitmapBatchResult",
    "MAX_LINALG_BATCH",
    "RepairResult",
    "repair_levels",
    "repair_cost_ms",
    "REPAIR_MS_PER_MEDGE",
    "StatusArray",
    "LevelResult",
    "scan_free",
    "single_scan",
    "bottom_up",
    "DegreeBins",
    "classify_frontier",
    "split_for_streams",
    "balanced_scan_lengths",
    "StrategyRuntimePoint",
    "strategy_runtime_vs_ratio",
    "best_alpha",
    "alpha_sweep",
]
