"""Tests for the status array."""

import numpy as np
import pytest

from repro.errors import TraversalError
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

