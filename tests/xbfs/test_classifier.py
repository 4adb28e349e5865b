"""Tests for the adaptive strategy classifier."""

import pytest

from repro.errors import TraversalError
from repro.xbfs.classifier import (
    BOTTOM_UP,
    SCAN_FREE,
    SINGLE_SCAN,
    AdaptiveClassifier,
)


def choose(clf, **kwargs):
    defaults = dict(
        ratio=0.0,
        frontier_size=1,
        prev_frontier_size=1,
        prev_strategy=None,
        level=0,
        frontier_edges=10**9,
    )
    defaults.update(kwargs)
    return clf.choose(**defaults)


class TestRules:
    def test_bottom_up_above_alpha(self):
        clf = AdaptiveClassifier(alpha=0.1)
        assert choose(clf, ratio=0.11).strategy == BOTTOM_UP
        assert choose(clf, ratio=0.09).strategy != BOTTOM_UP

    def test_alpha_boundary_exclusive(self):
        clf = AdaptiveClassifier(alpha=0.1)
        assert choose(clf, ratio=0.1).strategy != BOTTOM_UP

    def test_single_scan_after_bottom_up(self):
        """The no-frontier-generation hand-off (paper's level-5 rule)."""
        clf = AdaptiveClassifier()
        d = choose(clf, ratio=0.01, prev_strategy=BOTTOM_UP)
        assert d.strategy == SINGLE_SCAN
        assert "skips frontier generation" in d.reason

    def test_growth_triggers_single_scan(self):
        clf = AdaptiveClassifier(growth_threshold=4.0, min_single_scan_ratio=1e-3)
        d = choose(clf, ratio=5e-3, frontier_size=100, prev_frontier_size=10)
        assert d.strategy == SINGLE_SCAN

    def test_growth_without_enough_ratio_stays_scan_free(self):
        clf = AdaptiveClassifier(min_single_scan_ratio=1e-3)
        d = choose(clf, ratio=1e-6, frontier_size=100, prev_frontier_size=10)
        assert d.strategy == SCAN_FREE

    def test_small_stable_frontier_scan_free(self):
        clf = AdaptiveClassifier()
        d = choose(clf, ratio=1e-5, frontier_size=3, prev_frontier_size=3)
        assert d.strategy == SCAN_FREE

    def test_min_bottom_up_edges_guard(self):
        """Tiny graphs (Dblp) never amortise the 5-kernel launch train."""
        clf = AdaptiveClassifier(min_bottom_up_edges=1000)
        assert choose(clf, ratio=0.5, frontier_edges=500).strategy != BOTTOM_UP
        assert choose(clf, ratio=0.5, frontier_edges=1500).strategy == BOTTOM_UP

    def test_guard_bypassed_when_edges_unknown(self):
        clf = AdaptiveClassifier(min_bottom_up_edges=1000)
        assert choose(clf, ratio=0.5, frontier_edges=None).strategy == BOTTOM_UP

    def test_paper_trace_shape(self):
        """The Table VI narrative as a classifier trace: scan-free at
        the sparse head, bottom-up at the peak, single-scan right after,
        scan-free at the tail."""
        clf = AdaptiveClassifier(alpha=0.1)
        prev = None
        prev_size = 0
        trace = []
        for ratio, size in [
            (1e-9, 1),
            (1e-6, 10),
            (0.7, 100_000),
            (0.27, 150_000),
            (2e-3, 2_000),
            (1e-5, 50),
        ]:
            d = clf.choose(
                ratio=ratio,
                frontier_size=size,
                prev_frontier_size=prev_size,
                prev_strategy=prev,
                level=len(trace),
                frontier_edges=10**9,
            )
            trace.append(d.strategy)
            prev, prev_size = d.strategy, size
        assert trace == [
            SCAN_FREE,
            SCAN_FREE,
            BOTTOM_UP,
            BOTTOM_UP,
            SINGLE_SCAN,
            SCAN_FREE,
        ]


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(TraversalError):
            AdaptiveClassifier(alpha=0.0)
        with pytest.raises(TraversalError):
            AdaptiveClassifier(alpha=1.5)

    def test_growth_positive(self):
        with pytest.raises(TraversalError):
            AdaptiveClassifier(growth_threshold=0)

    def test_min_ratio_non_negative(self):
        with pytest.raises(TraversalError):
            AdaptiveClassifier(min_single_scan_ratio=-1)

    def test_unknown_prev_strategy(self):
        clf = AdaptiveClassifier()
        with pytest.raises(TraversalError, match="unknown previous"):
            choose(clf, prev_strategy="dfs")
