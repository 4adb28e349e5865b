"""Tests for the shared vectorised kernel helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraversalError
from repro.graph.csr import CSRGraph
from repro.xbfs import common


class TestSegmentIds:
    def test_basic(self):
        assert common.segment_ids(np.array([2, 0, 3])).tolist() == [0, 0, 2, 2, 2]

    def test_empty(self):
        assert common.segment_ids(np.array([], dtype=np.int64)).size == 0


class TestUniqueVertices:
    """The flag-scan claim is ``np.unique`` on every input, on both
    sides of its ``np.unique`` crossover."""

    @given(
        n=st.integers(1, 3000),
        shape=st.sampled_from(["random", "all_duplicates", "full_range", "empty"]),
        dense=st.booleans(),
        dtype=st.sampled_from([np.int32, np.int64]),
        filtered=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, n, shape, dense, dtype, filtered, seed):
        rng = np.random.default_rng(seed)
        sparse_max = (n - 1) // common._FLAG_SCAN_RATIO
        k = (
            int(rng.integers(sparse_max + 1, 3 * n + 1))
            if dense
            else int(rng.integers(0, sparse_max + 1))
        )
        if shape == "random":
            ids = rng.integers(0, n, k)
        elif shape == "all_duplicates":
            ids = np.full(k, rng.integers(0, n))
        elif shape == "full_range":
            ids = np.concatenate([rng.permutation(n), rng.integers(0, n, k)])
        else:
            ids = np.zeros(0)
        ids = ids.astype(dtype)
        levels = rng.integers(-1, 3, n).astype(np.int32) if filtered else None
        expected = np.unique(ids).astype(np.int64)
        if filtered:
            expected = expected[levels[expected] == common.UNVISITED]
        got = common.unique_vertices(ids, n, levels)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [10, 10_000], ids=["flag_scan", "np_unique"])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("bad", [-1, "n", "min"])
    def test_out_of_range_raises(self, n, dtype, bad):
        """A ``-1`` must raise, never wrap around to flag vertex V-1."""
        bad = {"n": n, "min": np.iinfo(dtype).min}.get(bad, bad)
        ids = np.array([0, bad, 3], dtype=dtype)
        with pytest.raises(TraversalError):
            common.unique_vertices(ids, n)


class TestGatherNeighbors:
    def test_matches_per_vertex_lists(self, small_rmat):
        frontier = np.array([0, 5, 9], dtype=np.int64)
        neighbors, owner = common.gather_neighbors(small_rmat, frontier)
        expected = np.concatenate([small_rmat.neighbors(int(v)) for v in frontier])
        assert np.array_equal(neighbors, expected)
        expected_owner = np.repeat(
            np.arange(3), [small_rmat.degrees[int(v)] for v in frontier]
        )
        assert np.array_equal(owner, expected_owner)

    def test_empty_frontier(self, small_rmat):
        neighbors, owner = common.gather_neighbors(
            small_rmat, np.array([], dtype=np.int64)
        )
        assert neighbors.size == 0 and owner.size == 0

    def test_zero_degree_vertices(self):
        g = CSRGraph.from_edges([0], [1], 3)
        neighbors, owner = common.gather_neighbors(g, np.array([2, 0, 2]))
        assert neighbors.tolist() == [1]
        assert owner.tolist() == [1]

    def test_duplicate_frontier_entries(self, small_rmat):
        """Gunrock-style duplicated frontiers must expand per copy."""
        neighbors, _ = common.gather_neighbors(small_rmat, np.array([3, 3]))
        assert neighbors.size == 2 * small_rmat.degrees[3]

    def test_out_of_range(self, small_rmat):
        with pytest.raises(TraversalError):
            common.gather_neighbors(small_rmat, np.array([-1]))


class TestFirstMatch:
    def test_basic(self):
        match = np.array([False, True, True, False, False, True])
        lengths = np.array([3, 2, 1])
        assert common.first_match_per_segment(match, lengths).tolist() == [1, -1, 0]

    def test_zero_length_segments(self):
        match = np.array([True])
        lengths = np.array([0, 1, 0])
        assert common.first_match_per_segment(match, lengths).tolist() == [-1, 0, -1]

    def test_all_empty(self):
        out = common.first_match_per_segment(
            np.array([], dtype=bool), np.array([0, 0])
        )
        assert out.tolist() == [-1, -1]

    def test_shape_mismatch(self):
        with pytest.raises(TraversalError):
            common.first_match_per_segment(np.array([True]), np.array([3]))

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=20),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, lengths, seed):
        lengths = np.asarray(lengths, dtype=np.int64)
        rng = np.random.default_rng(seed)
        match = rng.random(int(lengths.sum())) < 0.3
        got = common.first_match_per_segment(match, lengths)
        pos = 0
        for i, ln in enumerate(lengths.tolist()):
            seg = match[pos : pos + ln]
            expected = int(np.argmax(seg)) if seg.any() else -1
            assert got[i] == expected
            pos += ln


class TestSegmentLines:
    LINE = 128
    ELEM = 4
    PER_LINE = LINE // ELEM  # 32

    def test_single_aligned_segment(self):
        n = common.segment_lines_touched(
            np.array([0]), np.array([32]), element_bytes=4, line_bytes=128
        )
        assert n == 1

    def test_straddling_segment(self):
        # Elements 31..33 straddle two lines.
        n = common.segment_lines_touched(
            np.array([31]), np.array([3]), element_bytes=4, line_bytes=128
        )
        assert n == 2

    def test_zero_length_ignored(self):
        n = common.segment_lines_touched(
            np.array([0, 100]), np.array([0, 1]), element_bytes=4, line_bytes=128
        )
        assert n == 1

    def test_no_cross_segment_dedup(self):
        """Two segments in the same line still count twice — wavefronts
        fetch independently over time."""
        n = common.segment_lines_touched(
            np.array([0, 4]), np.array([2, 2]), element_bytes=4, line_bytes=128
        )
        assert n == 2

    def test_shape_mismatch(self):
        with pytest.raises(TraversalError):
            common.segment_lines_touched(
                np.array([0]), np.array([1, 2]), element_bytes=4, line_bytes=128
            )

    @given(st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 400)),
                    min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, segments):
        starts = np.array([s for s, _ in segments], dtype=np.int64)
        lens = np.array([l for _, l in segments], dtype=np.int64)
        got = common.segment_lines_touched(starts, lens, element_bytes=4, line_bytes=128)
        expected = 0
        for s, l in segments:
            if l > 0:
                expected += (s + l - 1) // 32 - s // 32 + 1
        assert got == expected


class TestWavefrontSerializedSteps:
    def test_single_wavefront_max(self):
        lens = np.array([1, 5, 3])
        assert common.wavefront_serialized_steps(lens, 64) == 5

    def test_multiple_wavefronts(self):
        lens = np.concatenate([np.full(64, 2), np.array([10])])
        assert common.wavefront_serialized_steps(lens, 64) == 2 + 10

    def test_empty(self):
        assert common.wavefront_serialized_steps(np.array([], dtype=np.int64), 64) == 0

    def test_wider_wavefront_wastes_more_lane_time(self, rng):
        """One long scan stalls 64 peers instead of 32: the lane-time
        (width x serialized steps) at width 64 is >= width 32 for any
        workload — the paper's idle-resource observation."""
        lens = rng.integers(0, 50, size=1000)
        assert 64 * common.wavefront_serialized_steps(
            lens, 64
        ) >= 32 * common.wavefront_serialized_steps(lens, 32)

    @given(st.lists(st.integers(0, 100), min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, lens):
        lens = np.asarray(lens, dtype=np.int64)
        got = common.wavefront_serialized_steps(lens, 64)
        expected = sum(
            int(lens[i : i + 64].max()) for i in range(0, len(lens), 64)
        ) if lens.size else 0
        assert got == expected

    def test_bounds(self, rng):
        """Σmax per wavefront lies between mean-bound and sum."""
        lens = rng.integers(0, 30, size=500)
        steps = common.wavefront_serialized_steps(lens, 64)
        assert steps >= int(np.ceil(lens.sum() / 64))
        assert steps <= int(lens.sum())
