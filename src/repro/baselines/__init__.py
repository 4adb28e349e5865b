"""Baseline BFS engines: the comparison points of the related-work
taxonomy and the Fig 8 evaluation, all running on the same simulated
GCD substrate as XBFS."""

from repro.baselines.base import BaselineResult
from repro.baselines.enterprise import EnterpriseBFS
from repro.baselines.gunrock import GunrockBFS
from repro.baselines.hierarchical import HierarchicalBFS
from repro.baselines.linalg import LinAlgBFS
from repro.baselines.serial import parent_tree, serial_bfs, validate_parents
from repro.baselines.sssp import SsspBFS

__all__ = [
    "BaselineResult",
    "GunrockBFS",
    "EnterpriseBFS",
    "HierarchicalBFS",
    "LinAlgBFS",
    "SsspBFS",
    "serial_bfs",
    "parent_tree",
    "validate_parents",
]
