"""Batched linear-algebra BFS: one masked CSR×matrix product per level.

The coalescing scheduler's hottest traffic — large same-graph
multi-source batches — outgrows :class:`~repro.xbfs.concurrent.ConcurrentBFS`
at 64 sources because the iBFS design spends one status *bit* per
source in a single 64-bit word. Following the BLEST / GraphBLAST line
(PAPERS.md), this engine drops the per-source frontier model entirely
and runs the whole batch as Boolean semiring linear algebra over the
bit-packed bitmaps of :mod:`repro.xbfs.bitmap`:

    F        — frontier matrix, (vertices × sources), packed 64/word
    next = (Aᵀ · F) ⊙ ¬visited      per level

One level is therefore a handful of word-wide vector kernels whatever
the batch width — the perfectly regular, balance-friendly shape the GCD
cost model rewards — and capacity grows 64 sources per extra word up to
:data:`MAX_LINALG_BATCH`.

Unlike the fixed-direction baseline
(:class:`~repro.baselines.linalg.LinAlgBFS`), every level picks its
product form with the adaptive classifier's frontier-density signal:

* **push** — sparse F: scatter-OR the frontier rows along the gathered
  adjacency of the occupied rows (an SpMM whose cost tracks the union
  frontier's edges);
* **pull** — dense F: every still-unvisited row OR-gathers its
  in-neighbours' frontier words (a masked gather whose cost tracks the
  *unvisited* remainder, the bottom-up saving XBFS gets from its α
  switch).

The classifier is the only direction source; a caller that wants every
level to pull hands in a classifier that always answers bottom-up.

The level loop itself — bitmaps, counter planes, spans, the host
product and the commit-after-sync fault replay — is the one both
bitmap engines share (:class:`~repro.xbfs.bitmap.BitmapBatchEngine`).
This engine supplies the per-level plan (the classifier's direction,
recorded as a :class:`~repro.xbfs.classifier.Decision`) and the charge:
one word-wide push or pull launch per level, built by the loop's one
launch helper (:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`),
which also writes the level's output — the next-frontier rows and one
run of new levels per discovered row. Every bitmap engine and both
pods charge that same output, so the batch width no longer buys a
second full-bitmap pass per level.

Answers are bit-identical to a solo :class:`~repro.xbfs.driver.XBFS`
run per source — property-tested, including under fault plans.
"""

from __future__ import annotations

import numpy as np

from repro.faults.recovery import RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ExecConfig
from repro.graph.csr import CSRGraph
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import BOTTOM_UP, SINGLE_SCAN, AdaptiveClassifier, Decision

__all__ = [
    "LinAlgBatchBFS",
    "MAX_LINALG_BATCH",
    "PUSH",
    "PULL",
]

#: Slot capacity of the bitmap engine: 16 words of sources per vertex
#: row. The cap is a memory/latency guardrail, not a representation
#: limit like :data:`~repro.xbfs.concurrent.MAX_CONCURRENT`'s single
#: status word.
MAX_LINALG_BATCH = 1024

#: Per-level product forms.
PUSH = "la_push"
PULL = "la_pull"


class LinAlgBatchBFS(bm.BitmapBatchEngine):
    """Whole-batch BFS as masked Boolean CSR×matrix products."""

    ENGINE = "linalg_batch"
    MAX_BATCH = MAX_LINALG_BATCH

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        classifier: AdaptiveClassifier | None = None,
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        super().__init__(
            graph, device=device, config=config, tracer=tracer,
            injector=injector, recovery=recovery,
        )
        #: Per-level direction chooser; the α-threshold frontier-density
        #: signal is exactly the solo driver's (dense levels pull,
        #: sparse levels push).
        self.classifier = classifier or AdaptiveClassifier()

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the (eventual) reverse CSR for the pull product plus a
        64-bit bitmap word per vertex of scratch."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    def run(self, sources: np.ndarray) -> bm.BitmapBatchResult:
        """Traverse from up to :data:`MAX_LINALG_BATCH` sources at once."""
        return self._traverse(sources)

    def _plan(self, level, active, frontier_edges, missing, prev_active, prev):
        """The classifier's direction on the frontier-density signal; a
        pull level gathers every row some source has not reached."""
        chosen = self.classifier.choose(
            ratio=frontier_edges / max(1, self.graph.num_edges),
            frontier_size=int(active.size),
            prev_frontier_size=prev_active,
            prev_strategy=(
                None
                if prev is None
                else (BOTTOM_UP if prev.strategy == PULL else SINGLE_SCAN)
            ),
            level=level,
            frontier_edges=frontier_edges,
        )
        if chosen.strategy == BOTTOM_UP:
            return Decision(PULL, chosen.reason, chosen.signals), bm.occupied_rows(missing)
        return Decision(PUSH, chosen.reason, chosen.signals), None

    def _charge(self, gcd, level, active, cand, fresh, newly, counts):
        """One word-wide launch per level in the plan's direction
        (:meth:`~repro.xbfs.bitmap.BitmapBatchEngine._launch`), which
        also writes the level's output.

        Push is an SpMM whose cost tracks the union frontier's edges.
        Pull is a masked gather over the candidates' in-edges: rows
        every source has visited drop out, so peak levels touch the
        *unvisited remainder*'s adjacency — the asymmetry XBFS's
        bottom-up switch buys."""
        if cand is None:
            return self._launch(gcd, "lab_spmm_push", level, active, fresh, newly,
                                counts)
        return self._launch(
            gcd, "lab_pull_gather", level, cand, fresh, newly, counts, pull=True
        )
