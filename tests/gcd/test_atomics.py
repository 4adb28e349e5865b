"""Tests for the atomic-operation semantics and accounting."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.gcd.atomics import AtomicStats, atomic_claim, enqueue_stats


class TestAtomicClaim:
    def test_basic_claim(self):
        status = np.full(5, -1, dtype=np.int32)
        winners, stats = atomic_claim(status, np.array([1, 3]), 2, expected=-1)
        assert sorted(winners.tolist()) == [1, 3]
        assert status[1] == status[3] == 2
        assert stats.operations == 2
        assert stats.conflicts == 0

    def test_duplicates_single_winner(self):
        """Racing lanes on one address: exactly one CAS succeeds."""
        status = np.full(4, -1, dtype=np.int32)
        winners, stats = atomic_claim(status, np.array([2, 2, 2, 2]), 1, expected=-1)
        assert winners.tolist() == [2]
        assert stats.operations == 4
        assert stats.conflicts == 3

    def test_already_visited_fails_without_conflict(self):
        """A CAS on a non-matching slot fails but does not serialise."""
        status = np.array([0, -1], dtype=np.int32)
        winners, stats = atomic_claim(status, np.array([0, 1]), 5, expected=-1)
        assert winners.tolist() == [1]
        assert status[0] == 0  # untouched
        assert stats.conflicts == 0

    def test_empty(self):
        status = np.full(3, -1, dtype=np.int32)
        winners, stats = atomic_claim(status, np.array([], dtype=np.int64), 1, expected=-1)
        assert winners.size == 0
        assert stats.operations == 0

    def test_first_attempt_order_preserved(self):
        status = np.full(6, -1, dtype=np.int32)
        winners, _ = atomic_claim(status, np.array([5, 2, 5, 4]), 1, expected=-1)
        assert winners.tolist() == [5, 2, 4]

    def test_rejects_2d(self):
        status = np.full(3, -1, dtype=np.int32)
        with pytest.raises(TraversalError, match="flat"):
            atomic_claim(status, np.zeros((2, 2), dtype=int), 1, expected=-1)

    def test_deterministic_bfs_equivalence(self, rng):
        """Whatever the interleaving, the set of claimed vertices is the
        set of candidates currently holding `expected` — verify against
        a brute-force sequential execution."""
        status = rng.choice([-1, 0, 1], size=50).astype(np.int32)
        reference = status.copy()
        candidates = rng.integers(0, 50, size=200)
        winners, _ = atomic_claim(status, candidates, 7, expected=-1)
        # Brute force.
        expected_winners = []
        for c in candidates.tolist():
            if reference[c] == -1:
                reference[c] = 7
                expected_winners.append(c)
        assert sorted(winners.tolist()) == sorted(expected_winners)
        assert np.array_equal(status, reference)


class TestEnqueueStats:
    @pytest.mark.parametrize(
        "n, expected", [(0, (0, 0)), (1, (1, 0)), (64, (1, 0)), (65, (2, 1))]
    )
    def test_one_add_per_wavefront_on_one_tail(self, n, expected):
        """Warp-aggregated enqueue: ceil(n / 64) adds on one address,
        all but the first colliding."""
        stats = enqueue_stats(n, 64)
        assert (stats.operations, stats.conflicts) == expected


class TestAtomicStats:
    def test_merge(self):
        a = AtomicStats(3, 1)
        b = AtomicStats(4, 2)
        m = a.merge(b)
        assert (m.operations, m.conflicts) == (7, 3)

    def test_default_zero(self):
        s = AtomicStats()
        assert s.operations == s.conflicts == 0
