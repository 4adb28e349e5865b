"""Tests for the status array and frontier queues."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.xbfs.frontier import FrontierQueue, sorted_queue_from_mask
from repro.xbfs.status import UNVISITED, StatusArray


class TestStatusArray:
    def test_init_all_unvisited(self):
        s = StatusArray(5)
        assert np.all(s.levels == UNVISITED)
        assert s.count_unvisited() == 5
        assert s.visited_count() == 0

    def test_set_source(self):
        s = StatusArray(5)
        s.set_source(3)
        assert s.levels[3] == 0
        assert s.at_level(0).tolist() == [3]
        assert s.count_unvisited() == 4

    def test_set_source_resets(self):
        s = StatusArray(5)
        s.set_source(0)
        s.levels[1] = 4
        s.set_source(2)
        assert s.levels[1] == UNVISITED
        assert s.levels[2] == 0

    def test_source_out_of_range(self):
        s = StatusArray(3)
        with pytest.raises(TraversalError):
            s.set_source(3)

    def test_zero_vertices_rejected(self):
        with pytest.raises(TraversalError):
            StatusArray(0)

    def test_at_level_sorted(self):
        s = StatusArray(6)
        s.levels[[5, 1, 3]] = 2
        assert s.at_level(2).tolist() == [1, 3, 5]

    def test_bitmap(self):
        s = StatusArray(10)
        s.levels[[0, 9]] = 0
        bits = np.unpackbits(s.visited_bitmap())[:10]
        assert bits.tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    def test_bitmap_is_32x_denser(self):
        # 1 bit per vertex vs an int32 level: the bottom-up "bit status
        # check" representation is 32x smaller.
        s = StatusArray(1024)
        assert s.levels.nbytes == 32 * s.visited_bitmap().nbytes

    def test_max_level(self):
        s = StatusArray(4)
        assert s.max_level() == -1
        s.levels[2] = 7
        assert s.max_level() == 7

    def test_copy_independent(self):
        s = StatusArray(3)
        c = s.copy()
        c.levels[0] = 5
        assert s.levels[0] == UNVISITED

    def test_validate_against(self):
        s = StatusArray(3)
        s.levels[:] = [0, 1, -1]
        s.validate_against(np.array([0, 1, -1], dtype=np.int32))
        with pytest.raises(TraversalError, match="mismatch"):
            s.validate_against(np.array([0, 2, -1], dtype=np.int32))


class TestFrontierQueue:
    def test_append_and_read(self):
        q = FrontierQueue(8)
        q.append(np.array([3, 1]))
        q.append(np.array([7]))
        assert len(q) == 3
        assert q.as_array().tolist() == [3, 1, 7]

    def test_read_only_view(self):
        q = FrontierQueue(4)
        q.append(np.array([1]))
        with pytest.raises(ValueError):
            q.as_array()[0] = 9

    def test_overflow(self):
        q = FrontierQueue(2)
        with pytest.raises(TraversalError, match="overflow"):
            q.append(np.array([1, 2, 3]))

    def test_atomic_stats_accumulate(self):
        q = FrontierQueue(8)
        q.append(np.array([1, 2]))
        q.append(np.array([3]))
        assert q.atomic_stats.operations == 3

    def test_reset(self):
        q = FrontierQueue(4)
        q.append(np.array([1, 2]))
        q.reset()
        assert len(q) == 0

    def test_of_constructor(self):
        q = FrontierQueue.of(np.array([5, 6]))
        assert q.as_array().tolist() == [5, 6]
        empty = FrontierQueue.of(np.array([], dtype=np.int64))
        assert len(empty) == 0

    def test_capacity_validation(self):
        with pytest.raises(TraversalError):
            FrontierQueue(0)


class TestSortedQueue:
    def test_from_mask(self):
        mask = np.array([True, False, True, True, False])
        assert sorted_queue_from_mask(mask).tolist() == [0, 2, 3]

    def test_empty_mask(self):
        assert sorted_queue_from_mask(np.zeros(4, dtype=bool)).size == 0
