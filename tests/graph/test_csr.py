"""Unit tests for the CSR graph container."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, coalesce_edge_list


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 3)
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]
        assert g.neighbors(2).tolist() == []

    def test_adjacency_sorted_by_id(self):
        g = CSRGraph.from_edges([0, 0, 0], [5, 2, 9], 10)
        assert g.neighbors(0).tolist() == [2, 5, 9]

    def test_symmetrize(self):
        g = CSRGraph.from_edges([0], [1], 2, symmetrize=True)
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [0]

    def test_remove_self_loops(self):
        g = CSRGraph.from_edges([0, 1], [0, 0], 2, remove_self_loops=True)
        assert g.num_edges == 1
        assert g.neighbors(1).tolist() == [0]

    def test_deduplicate(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 1], 2, deduplicate=True)
        assert g.num_edges == 1

    def test_parallel_edges_kept_without_dedup(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        assert g.num_edges == 2

    def test_empty(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degrees.tolist() == [0] * 5

    def test_arrays_read_only(self):
        g = CSRGraph.from_edges([0], [1], 2)
        with pytest.raises(ValueError):
            g.col_indices[0] = 0
        with pytest.raises(ValueError):
            g.row_offsets[0] = 1


class TestValidation:
    def test_bad_first_offset(self):
        with pytest.raises(GraphFormatError, match="row_offsets\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_last_offset_mismatch(self):
        with pytest.raises(GraphFormatError, match="num_edges"):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_decreasing_offsets(self):
        with pytest.raises(GraphFormatError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_column_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_negative_column(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            CSRGraph(np.array([0, 1]), np.array([-1]))

    def test_endpoint_out_of_range_in_edge_list(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            CSRGraph.from_edges([0], [7], 3)

    def test_mismatched_edge_arrays(self):
        with pytest.raises(GraphFormatError, match="equal-length"):
            coalesce_edge_list(np.array([0, 1]), np.array([0]), 2)


class TestProperties:
    def test_degrees_and_average(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 0], 4)
        assert g.degrees.tolist() == [2, 1, 0, 0]
        assert g.average_degree == pytest.approx(3 / 4)

    def test_memory_bytes_matches_paper_budget(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        # 8 bytes per offset entry (|V|+1), 4 bytes per column entry.
        assert g.memory_bytes == 8 * 3 + 4 * 2

    def test_neighbors_out_of_range(self):
        g = CSRGraph.empty(3)
        with pytest.raises(GraphFormatError):
            g.neighbors(3)
        with pytest.raises(GraphFormatError):
            g.neighbors(-1)

    def test_to_edge_arrays_round_trip(self, small_rmat):
        src, dst = small_rmat.to_edge_arrays()
        g2 = CSRGraph.from_edges(src, dst, small_rmat.num_vertices)
        assert g2 == small_rmat

    def test_equality_and_hash(self):
        a = CSRGraph.from_edges([0], [1], 2, name="a")
        b = CSRGraph.from_edges([0], [1], 2, name="b")
        c = CSRGraph.from_edges([1], [0], 2)
        assert a == b  # name does not participate
        assert a != c
        assert hash(a) == hash(b)
        assert a != "not a graph"  # NotImplemented path


class TestTransforms:
    def test_reverse(self):
        g = CSRGraph.from_edges([0, 0], [1, 2], 3)
        r = g.reverse()
        assert r.neighbors(1).tolist() == [0]
        assert r.neighbors(2).tolist() == [0]
        assert r.neighbors(0).tolist() == []

    def test_reverse_involution(self, small_rmat):
        assert small_rmat.reverse().reverse() == small_rmat

    def test_adjacency_order_within_segments(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 0], 3)
        # Swap vertex 0's two edges; keep vertex 1's edge in place.
        order = np.array([1, 0, 2])
        g2 = g.with_adjacency_order(order)
        assert g2.neighbors(0).tolist() == [2, 1]
        assert g2.neighbors(1).tolist() == [0]

    def test_adjacency_order_rejects_cross_vertex_moves(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        with pytest.raises(GraphFormatError, match="across vertices"):
            g.with_adjacency_order(np.array([1, 0]))

    def test_adjacency_order_rejects_bad_shape(self):
        g = CSRGraph.from_edges([0, 1], [1, 0], 2)
        with pytest.raises(GraphFormatError, match="shape"):
            g.with_adjacency_order(np.array([0]))
