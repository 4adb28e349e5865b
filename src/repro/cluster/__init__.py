"""Sharded multi-replica BFS serving: the cluster layer.

N :class:`~repro.service.runtime.BFSService` replicas share one
virtual-time world behind a single front door, completing the serving
stack's placement / dispatch / execution split:

* :mod:`repro.cluster.placement` — consistent hashing (crc32 virtual
  nodes) with a size/load-aware override reusing the CSR-footprint
  reasoning of the scheduler's engine routing; sticky graph→replica
  assignments, re-placed only on replica death.
* :mod:`repro.cluster.qos`       — QoS classes (interactive deadlines
  vs. batch) and per-tenant token-bucket quotas on the virtual clock.
* :mod:`repro.cluster.replica`   — one :class:`BFSService` as a
  composable unit: own registry/scheduler/metrics (the failure
  domain), shared tracer tracks and fault stream.
* :mod:`repro.cluster.router`    — the front door: quota admission,
  QoS deadlines, placement, cross-replica work stealing, and
  replica-death recovery through the fault plane's
  ``cluster.replica`` site (graphs re-placed, in-flight queries
  re-dispatched — answers bit-identical to a fault-free run).
* :mod:`repro.cluster.report`    — merged outcomes, per-QoS tail
  latency, placement balance, recovery cost.
* :mod:`repro.cluster.bench`     — replica-death plans and the
  replica-count scale-out sweep that
  ``benchmarks/bench_cluster_scaleout.py`` records and gates.

Everything is deterministic: one shared injector RNG, crc32
placement, virtual-time quotas. A replayed trace is bit-for-bit
reproducible and every served answer is bit-identical to a solo
``XBFS.run`` — including under replica-death storms.

Quick start::

    from repro.cluster import ClusterRouter
    from repro.service.trace import synthetic_trace

    router = ClusterRouter(replicas=4, workers=2, seed=0)
    sizes = {"rmat:10": 1024, "rmat:11": 2048}
    trace = synthetic_trace(list(sizes), sizes, num_queries=96,
                            seed=7, tenants=3)
    report = router.replay(trace)
    print(report.render())
"""

from repro.cluster.bench import death_plan, run_scaleout_sweep
from repro.cluster.placement import HashRing, PlacementMap, stable_hash
from repro.cluster.qos import (
    DEFAULT_QOS_CLASSES,
    QosClass,
    QuotaLedger,
    TenantQuota,
)
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport
from repro.cluster.router import ClusterRouter

__all__ = [
    "ClusterReport",
    "ClusterRouter",
    "DEFAULT_QOS_CLASSES",
    "HashRing",
    "PlacementMap",
    "QosClass",
    "QuotaLedger",
    "Replica",
    "TenantQuota",
    "death_plan",
    "run_scaleout_sweep",
    "stable_hash",
]
