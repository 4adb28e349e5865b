"""Simulated AMD GCD substrate: device profiles, L2/HBM memory model,
wavefront primitives, atomics, kernel cost model, streams and a
rocprofiler-equivalent counter collector.

This package is the hardware substitution documented in DESIGN.md: the
paper ran on MI250X GCDs; we run the same kernels functionally (exact
traversal results, exact work counts) against an analytic cost model
calibrated to the same architectural parameters.
"""

from repro.gcd.atomics import AtomicStats, atomic_claim, enqueue_stats
from repro.gcd.cache import AnalyticCacheModel, CacheOutcome, SetAssociativeCache
from repro.gcd.device import MI250X_GCD, P6000, V100, DeviceProfile, profile_by_name
from repro.gcd.kernel import ComputeWork, ExecConfig, KernelCostModel, KernelRecord
from repro.gcd.memory import AccessStream, Pattern, rand_read, rand_write, seq_read, seq_write
from repro.gcd.profiler import LevelSummary, Profiler
from repro.gcd.simulator import GCD
from repro.gcd.wavefront import (
    WavefrontView,
    all_,
    any_,
    ballot,
    iter_wavefronts,
    lane_mask_dtype,
    popc,
    popcll,
    shfl,
    shfl_down,
    shfl_up,
    wavefront_reduce_max,
)

__all__ = [
    "AtomicStats",
    "atomic_claim",
    "enqueue_stats",
    "AnalyticCacheModel",
    "CacheOutcome",
    "SetAssociativeCache",
    "DeviceProfile",
    "MI250X_GCD",
    "P6000",
    "V100",
    "profile_by_name",
    "ComputeWork",
    "ExecConfig",
    "KernelCostModel",
    "KernelRecord",
    "AccessStream",
    "Pattern",
    "seq_read",
    "seq_write",
    "rand_read",
    "rand_write",
    "LevelSummary",
    "Profiler",
    "GCD",
    "ballot",
    "any_",
    "all_",
    "popc",
    "popcll",
    "shfl",
    "shfl_down",
    "shfl_up",
    "lane_mask_dtype",
    "WavefrontView",
    "iter_wavefronts",
    "wavefront_reduce_max",
]
