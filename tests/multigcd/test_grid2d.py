"""Tests for the 2D (checkerboard) partitioned BFS; a one-source
batch (``run_batch([s])``) is the per-vertex traversal."""

import numpy as np
import pytest

from repro.errors import PartitionError, TraversalError
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.multigcd.grid2d import Grid2dBFS, _square_grid


class TestSquareGrid:
    def test_perfect_squares(self):
        assert _square_grid(16) == (4, 4)
        assert _square_grid(4) == (2, 2)
        assert _square_grid(1) == (1, 1)

    def test_rectangles(self):
        assert _square_grid(8) == (2, 4)
        assert _square_grid(12) == (3, 4)

    def test_primes_degenerate_to_1d(self):
        assert _square_grid(7) == (1, 7)


class TestCorrectness:
    @pytest.mark.parametrize("num_gcds", [1, 4, 8, 16])
    def test_matches_oracle(self, small_rmat, num_gcds):
        source = int(np.argmax(small_rmat.degrees))
        result = Grid2dBFS(small_rmat, num_gcds).run_batch([source])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(small_rmat, source)
        )

    def test_disconnected(self, disconnected_graph):
        result = Grid2dBFS(disconnected_graph, 4).run_batch([0])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(disconnected_graph, 0)
        )

    def test_validation(self, small_rmat):
        with pytest.raises(PartitionError):
            Grid2dBFS(small_rmat, 0)
        with pytest.raises(TraversalError):
            Grid2dBFS(small_rmat, 4).run_batch([-1])


class TestCommunicationShape:
    def test_volume_beats_1d_at_scale(self, social_graph):
        """The 2D argument: per-level exchange is O(|V|/sqrt(P)) per
        GCD instead of frontier-proportional all-to-all — with a
        machine-spanning frontier the 2D total volume is lower."""
        from repro.multigcd import MultiGcdBFS

        source = int(np.argmax(social_graph.degrees))
        one_d = MultiGcdBFS(social_graph, 16).run_batch([source])
        two_d = Grid2dBFS(social_graph, 16).run_batch([source])
        assert np.array_equal(one_d.levels, two_d.levels)
        assert two_d.bytes_exchanged < 4 * one_d.bytes_exchanged

    def test_grid_shape_recorded(self, small_rmat):
        engine = Grid2dBFS(small_rmat, 8)
        assert (engine.rows, engine.cols) == (2, 4)
        assert engine.run_batch([0]).num_gcds == 8

    def test_single_gcd_no_comm(self, small_rmat):
        result = Grid2dBFS(small_rmat, 1).run_batch([0])
        assert result.comm_ms == 0.0
        assert result.bytes_exchanged == 0

    def test_per_level_bytes_recorded(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        result = Grid2dBFS(small_rmat, 4).run_batch([source])
        depth = int(result.levels.max()) + 1
        assert len(result.level_comm_bytes) == depth
        assert sum(result.level_comm_bytes) == result.bytes_exchanged
        assert sum(result.level_raw_bytes) == result.bytes_raw

    def test_gteps_positive(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        eng = Grid2dBFS(small_rmat, 4)
        eng.run_batch([source])
        assert eng.run_batch([source]).gteps > 0
