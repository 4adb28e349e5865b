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

The level loop itself — bitmaps, counter planes, spans, the host
product and the commit-after-sync fault replay — is the one both
bitmap engines share (:class:`~repro.xbfs.bitmap.BitmapBatchEngine`).
This engine supplies the per-level plan (the classifier's direction,
recorded as a :class:`~repro.xbfs.classifier.Decision`) and the charge
(the word-wide push or pull launch plus the masked assign).

Answers are bit-identical to a solo :class:`~repro.xbfs.driver.XBFS`
run per source — property-tested, including under fault plans.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraversalError
from repro.faults.recovery import RecoveryPolicy
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import rand_read, rand_write, segmented_read, seq_read, seq_write
from repro.graph.csr import CSRGraph
from repro.telemetry.tracer import Tracer
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import BOTTOM_UP, SINGLE_SCAN, AdaptiveClassifier, Decision
from repro.xbfs.common import segment_lines_touched
from repro.xbfs.concurrent import validate_batch_sources

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
_DIRECTIONS = ("auto", "push", "pull")


class LinAlgBatchBFS(bm.BitmapBatchEngine):
    """Whole-batch BFS as masked Boolean CSR×matrix products."""

    ENGINE = "linalg_batch"

    def __init__(
        self,
        graph: CSRGraph,
        *,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        classifier: AdaptiveClassifier | None = None,
        direction: str = "auto",
        tracer: Tracer | None = None,
        injector=None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if direction not in _DIRECTIONS:
            raise TraversalError(
                f"direction must be one of {_DIRECTIONS}, got {direction!r}"
            )
        super().__init__(
            graph, device=device, config=config, tracer=tracer,
            injector=injector, recovery=recovery,
        )
        #: Per-level direction chooser; the α-threshold frontier-density
        #: signal is exactly the solo driver's (dense levels pull,
        #: sparse levels push).
        self.classifier = classifier or AdaptiveClassifier()
        #: ``"auto"`` switches per level; ``"push"``/``"pull"`` pin the
        #: product form (the baseline's fixed-direction story, for
        #: ablations and the direction-boundary tests).
        self.direction = direction

    @property
    def warm_bytes(self) -> int:
        """Modelled warm footprint the registry charges for a cached
        engine: the (eventual) reverse CSR for the pull product plus a
        64-bit bitmap word per vertex of scratch."""
        return self.graph.memory_bytes + 8 * self.graph.num_vertices

    def run(self, sources: np.ndarray) -> bm.BitmapBatchResult:
        """Traverse from up to :data:`MAX_LINALG_BATCH` sources at once."""
        sources = np.asarray(sources, dtype=np.int64).ravel()
        validate_batch_sources(
            sources, self.graph.num_vertices, max_batch=MAX_LINALG_BATCH,
            engine=self.ENGINE,
        )
        return self._traverse(sources)

    def _plan(self, level, active, frontier_edges, missing, prev_active, prev):
        """The classifier's direction on the frontier-density signal
        (or the pinned one); a pull level gathers every row some source
        has not reached."""
        ratio = frontier_edges / max(1, self.graph.num_edges)
        if self.direction != "auto":
            pinned = PUSH if self.direction == "push" else PULL
            decision = Decision(
                pinned,
                f"direction pinned to {self.direction!r}",
                (("ratio", ratio), ("level", level)),
            )
        else:
            chosen = self.classifier.choose(
                ratio=ratio,
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
            decision = Decision(
                PULL if chosen.strategy == BOTTOM_UP else PUSH,
                chosen.reason,
                chosen.signals,
            )
        if decision.strategy == PULL:
            return decision, bm.occupied_rows(missing)
        return decision, None

    def _charge(self, gcd, level, active, frontier_edges, cand, fresh, newly):
        """The word-wide product launch, then the masked assign.

        Push is an SpMM over the occupied rows' adjacency, so its cost
        tracks the union frontier's edges. Pull is a masked gather over
        the candidates' in-edges. The mask is the saving: rows already
        visited by every source drop out of the candidate set entirely,
        so peak levels touch the *unvisited remainder*'s adjacency
        instead of the union frontier's — the same asymmetry XBFS's
        bottom-up switch buys.
        """
        graph = self.graph
        n = graph.num_vertices
        words = fresh.shape[1]
        line = gcd.device.cache_line_bytes
        fresh_words = int(newly.size) * words
        if cand is None:
            examined, rows = frontier_edges, active
            adj_lines = segment_lines_touched(
                graph.row_offsets[active], graph.degrees[active],
                element_bytes=4, line_bytes=line,
            )
            name = "lab_spmm_push"
            streams = [
                # The frontier operand: the occupied rows' words.
                seq_read("frontier_bitmap", int(active.size) * words, 8),
                rand_read("beg_pos", 2 * int(active.size), 2 * int(active.size), 8),
                segmented_read("col_idx", examined, adj_lines, 4),
                # Semiring accumulate: read-modify-OR of the destination
                # rows' words, one row per gathered edge.
                rand_read("bit_status", examined * words, n * words, 8),
                rand_write("bit_status", fresh_words, fresh_words, 8),
            ]
        else:
            rev = graph.reverse()
            examined, rows = int(rev.degrees[cand].sum()), cand
            adj_lines = segment_lines_touched(
                rev.row_offsets[cand], rev.degrees[cand],
                element_bytes=4, line_bytes=line,
            )
            name = "lab_pull_gather"
            streams = [
                # Candidate scan: the visited plane read once, sequentially.
                seq_read("visited_bitmap", n * words, 8),
                rand_read("beg_pos", 2 * int(cand.size), 2 * int(cand.size), 8),
                segmented_read("col_idx_rev", examined, adj_lines, 4),
                # The frontier operand, gathered per reverse edge.
                rand_read("frontier_bitmap", examined * words, n * words, 8),
                rand_write("bit_status", fresh_words, fresh_words, 8),
            ]
        gcd.launch(
            name,
            strategy=self.ENGINE,
            level=level,
            streams=streams,
            work=ComputeWork(flat_ops=float((examined + rows.size) * words)),
            work_items=int(rows.size),
        )
        # The ⊙ ¬visited mask plus the level write-back, charged like
        # the baseline's ``la_mask_assign`` but word-wide.
        assignments = int(np.bitwise_count(fresh).sum())
        gcd.launch(
            "lab_mask_assign",
            strategy=self.ENGINE,
            level=level,
            streams=[
                seq_read("y_bitmap", n * words, 8),
                seq_read("visited_bitmap", n * words, 8),
                seq_write("frontier_bitmap", n * words, 8),
                rand_write("levels", assignments, assignments, 4),
            ],
            work=ComputeWork(flat_ops=float(2 * n * words)),
            work_items=n,
        )
        return examined
