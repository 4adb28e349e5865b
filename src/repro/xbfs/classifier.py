"""Adaptive strategy selection (Section III, tuned in Sections V-C/D).

The decision inputs are exactly the paper's: the *ratio* of edges to be
expanded at this level to the total edge count (compared against α),
the frontier growth rate (scan-free vs single-scan), and the previous
level's strategy (the no-frontier-generation hand-off after bottom-up).

Defaults reproduce the published operating point: α = 0.1 (Section
V-F), single-scan in the steep-growth band before the ratio peak
(Table VI's level-2 bold), scan-free at the sparse head and tail
levels, and single-scan immediately after bottom-up even when raw
memory counts favour scan-free, because skipping queue generation wins
end-to-end (the paper's level-5 remark).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TraversalError

__all__ = ["AdaptiveClassifier", "Decision", "DecisionAudit",
           "SCAN_FREE", "SINGLE_SCAN", "BOTTOM_UP"]

SCAN_FREE = "scan_free"
SINGLE_SCAN = "single_scan"
BOTTOM_UP = "bottom_up"
_STRATEGIES = (SCAN_FREE, SINGLE_SCAN, BOTTOM_UP)


@dataclass(frozen=True)
class Decision:
    """A strategy choice plus the rule that produced it (for traces).

    ``signals`` carries the classifier inputs behind the choice as a
    tuple of ``(name, value)`` pairs — the raw material the
    decision-audit plane (``repro explain``) renders so an operator
    can see *why* a level switched direction. Purely descriptive: the
    choice is made from the arguments, never from this field.
    """

    strategy: str
    reason: str
    signals: tuple = ()


class DecisionAudit:
    """Audit rows of a run whose one level loop answered every query.

    Mixed into the results of solo XBFS and the bitmap batch engines,
    whose per-level :class:`Decision` list is ``self.decisions``.
    """

    def audit_rows(self, live):
        """The run's per-level ``direction`` audit rows.

        Rows are ``(stage, qids, decision, detail)``; each level's row
        lands on every query in ``live``, level-major.
        """
        qids = [q.qid for q in live]
        for level, dec in enumerate(self.decisions):
            signals = {k: v for k, v in dec.signals if k != "level"}
            detail = dict(level=level, reason=dec.reason, **signals)
            yield "direction", qids, dec.strategy, detail


@dataclass(frozen=True)
class AdaptiveClassifier:
    """Per-level strategy chooser.

    Parameters
    ----------
    alpha:
        Ratio threshold above which bottom-up is selected (the paper's
        α; 0.1 on Frontier).
    growth_threshold:
        Frontier-size growth factor beyond which single-scan replaces
        scan-free (the queue is about to explode; atomic enqueues and
        duplicate edge checks stop paying).
    min_single_scan_ratio:
        Growth alone is not enough on tiny frontiers — a level must
        carry at least this edge ratio before single-scan's O(|V|)
        sweep can amortise.
    use_no_gen:
        Enable the no-frontier-generation hand-off after bottom-up /
        scan-free (ablation switch).
    min_bottom_up_edges:
        Absolute floor of frontier edges below which bottom-up's
        five-kernel launch train cannot amortise regardless of ratio —
        one of the "parameter tuning" knobs of Section IV; it protects
        tiny graphs (the Dblp case) where fixed costs dominate.
    """

    alpha: float = 0.1
    growth_threshold: float = 4.0
    min_single_scan_ratio: float = 1e-3
    use_no_gen: bool = True
    min_bottom_up_edges: int = 32768

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise TraversalError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.growth_threshold <= 0:
            raise TraversalError("growth_threshold must be positive")
        if self.min_single_scan_ratio < 0:
            raise TraversalError("min_single_scan_ratio must be >= 0")

    # ------------------------------------------------------------------
    def choose(
        self,
        *,
        ratio: float,
        frontier_size: int,
        prev_frontier_size: int,
        prev_strategy: str | None,
        level: int,
        frontier_edges: int | None = None,
    ) -> Decision:
        """Pick the strategy for one level."""
        if prev_strategy is not None and prev_strategy not in _STRATEGIES:
            raise TraversalError(f"unknown previous strategy {prev_strategy!r}")
        enough_work = (
            frontier_edges is None or frontier_edges >= self.min_bottom_up_edges
        )
        growth = frontier_size / max(1, prev_frontier_size)
        signals = (
            ("ratio", ratio),
            ("alpha", self.alpha),
            ("frontier_size", frontier_size),
            ("growth", growth),
            ("frontier_edges", frontier_edges),
            ("prev_strategy", prev_strategy),
            ("level", level),
        )
        if ratio > self.alpha and enough_work:
            return Decision(
                BOTTOM_UP, f"ratio {ratio:.3g} > alpha {self.alpha}", signals
            )
        if prev_strategy == BOTTOM_UP:
            # Post-peak: reuse the bottom-up queue, skip generation.
            return Decision(
                SINGLE_SCAN,
                "after bottom-up: single-scan skips frontier generation",
                signals,
            )
        if (
            growth >= self.growth_threshold
            and ratio >= self.min_single_scan_ratio
        ):
            return Decision(
                SINGLE_SCAN,
                f"growth {growth:.1f}x >= {self.growth_threshold} at ratio {ratio:.3g}",
                signals,
            )
        return Decision(SCAN_FREE, f"small frontier (ratio {ratio:.3g})", signals)
