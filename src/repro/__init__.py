"""repro — reproduction of "Establish the basis for Breadth-First Search
on Frontier System: XBFS on AMD GPUs" (SC 2024).

Quick start::

    from repro import XBFS, rmat, pick_sources

    graph = rmat(18, 16, seed=0)
    engine = XBFS(graph, rearrange=True)
    batch = engine.run_many(pick_sources(graph, 16, seed=1))
    print(f"{batch.steady_gteps:.1f} GTEPS (modeled, one MI250X GCD)")

Layers:

* :mod:`repro.graph`     — CSR graphs, generators, Table II datasets,
  degree-aware re-arrangement.
* :mod:`repro.gcd`       — the simulated MI250X GCD substrate (cache,
  wavefronts, atomics, kernel cost model, rocprofiler equivalent).
* :mod:`repro.xbfs`      — the paper's contribution: scan-free /
  single-scan / bottom-up strategies under an adaptive classifier.
* :mod:`repro.baselines` — Gunrock-, Enterprise-, hierarchical-queue-
  and SSSP-style engines on the same substrate.
* :mod:`repro.multigcd`  — distributed BFS over several GCDs.
* :mod:`repro.metrics`   — GTEPS, bandwidth efficiency, tables.
* :mod:`repro.telemetry` — dual-clock tracing, the unified counter
  registry and the JSONL/Chrome-trace/Prometheus exporters.
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro.errors import (
    AdmissionError,
    BatchSourceError,
    DeadlineExceededError,
    DeviceModelError,
    ExperimentError,
    GraphFormatError,
    GraphTooLargeError,
    KernelLaunchError,
    PartitionError,
    QueueFullError,
    ReproError,
    ServiceError,
    TraversalError,
)
from repro.gcd import GCD, MI250X_GCD, P6000, V100, DeviceProfile, ExecConfig
from repro.graph import (
    CSRGraph,
    PAPER_DATASETS,
    bfs_levels_reference,
    example_graph,
    load,
    pick_sources,
    rearrange_by_degree,
    rmat,
)
from repro.xbfs import (
    XBFS,
    AdaptiveClassifier,
    BatchResult,
    ConcurrentBFS,
    LinAlgBatchBFS,
    XBFSResult,
)
from repro.baselines import EnterpriseBFS, GunrockBFS, HierarchicalBFS, LinAlgBFS, SsspBFS
from repro.multigcd import MultiGcdBFS
from repro.service import BFSService, GraphRegistry, Query, QueryOptions, ServiceReport
from repro.telemetry import CounterRegistry, Tracer, write_chrome_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "GraphFormatError",
    "DeviceModelError",
    "KernelLaunchError",
    "TraversalError",
    "BatchSourceError",
    "ExperimentError",
    "PartitionError",
    "ServiceError",
    "AdmissionError",
    "QueueFullError",
    "DeadlineExceededError",
    "GraphTooLargeError",
    "CSRGraph",
    "rmat",
    "load",
    "PAPER_DATASETS",
    "example_graph",
    "pick_sources",
    "bfs_levels_reference",
    "rearrange_by_degree",
    "GCD",
    "DeviceProfile",
    "ExecConfig",
    "MI250X_GCD",
    "P6000",
    "V100",
    "XBFS",
    "XBFSResult",
    "BatchResult",
    "AdaptiveClassifier",
    "ConcurrentBFS",
    "LinAlgBatchBFS",
    "GunrockBFS",
    "EnterpriseBFS",
    "HierarchicalBFS",
    "LinAlgBFS",
    "SsspBFS",
    "MultiGcdBFS",
    "BFSService",
    "ServiceReport",
    "GraphRegistry",
    "Query",
    "QueryOptions",
    "Tracer",
    "CounterRegistry",
    "write_chrome_trace",
]
