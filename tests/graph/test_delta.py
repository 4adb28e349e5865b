"""Unit tests for edge-delta mutations (repro.graph.delta)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError, MutationError
from repro.graph.csr import CSRGraph
from repro.graph.delta import GraphDelta, apply_delta, random_delta
from repro.graph.generators import rmat


class TestGraphDelta:
    def test_normalised_and_hashable(self):
        a = GraphDelta(inserts=((3, 4), (1, 2), (3, 4)), deletes=((9, 0),))
        b = GraphDelta(inserts=[(1, 2), (3, 4)], deletes=[[9, 0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a.inserts == ((1, 2), (3, 4))

    def test_counts_and_flags(self):
        d = GraphDelta(inserts=((0, 1),), deletes=((1, 2), (2, 3)))
        assert d.num_inserts == 1
        assert d.num_deletes == 2
        assert d.num_edges == 3
        assert not d.is_empty
        assert not d.insert_only
        assert GraphDelta(inserts=((0, 1),)).insert_only
        assert GraphDelta().is_empty

    def test_overlap_rejected(self):
        with pytest.raises(MutationError, match="overlap"):
            GraphDelta(inserts=((0, 1),), deletes=((0, 1),))

    def test_malformed_pairs_rejected(self):
        with pytest.raises(MutationError):
            GraphDelta(inserts=((0, 1, 2),))
        with pytest.raises(MutationError, match="negative"):
            GraphDelta(inserts=((-1, 2),))

    def test_validate_range(self):
        d = GraphDelta(inserts=((0, 9),))
        d.validate(10)
        with pytest.raises(MutationError, match="out of range"):
            d.validate(9)

    def test_validate_names_first_bad_pair_inserts_before_deletes(self):
        d = GraphDelta(inserts=((0, 1), (2, 7), (9, 0)), deletes=((0, 8),))
        with pytest.raises(
            MutationError, match=r"^delta edge \(2, 7\) out of range for 5 vertices$"
        ):
            d.validate(5)
        # (0, 8) sorts first overall, but every insert is checked first.
        d = GraphDelta(inserts=((3, 9),), deletes=((0, 8),))
        with pytest.raises(MutationError, match=r"\(3, 9\)"):
            d.validate(5)
        d = GraphDelta(inserts=((0, 1),), deletes=((0, 8), (6, 0)))
        with pytest.raises(MutationError, match=r"\(0, 8\)"):
            d.validate(5)
        GraphDelta().validate(0)

    def test_dict_round_trip(self):
        d = GraphDelta(inserts=((1, 2), (3, 4)), deletes=((5, 6),))
        assert GraphDelta.from_dict(d.to_dict()) == d
        assert GraphDelta.from_dict({}) == GraphDelta()
        # Empty sides are omitted from the JSON payload.
        assert "delete" not in GraphDelta(inserts=((0, 1),)).to_dict()


@st.composite
def _mutation_cases(draw):
    """``(n, edges, shuffle_seed, inserts, deletes)``: a small multigraph
    (few vertices, so parallel edges are common), whether to store its
    adjacency out of id order, and a delta mixing re-inserts of existing
    edges, fresh inserts, deletes of existing edges and absent deletes."""
    n = draw(st.integers(min_value=0, max_value=8))
    if n == 0:
        return 0, [], None, [], []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=40))
    shuffle_seed = draw(st.none() | st.integers(0, 2**16))
    picks = st.lists(st.sampled_from(edges), max_size=4) if edges else st.just([])
    inserts = set(draw(st.lists(pair, max_size=6)) + draw(picks))
    deletes = set(draw(st.lists(pair, max_size=6)) + draw(picks)) - inserts
    return n, edges, shuffle_seed, sorted(inserts), sorted(deletes)


def _shuffled(g: CSRGraph, seed: int) -> CSRGraph:
    """``g`` with every adjacency list stored in a random order."""
    rng = np.random.default_rng(seed)
    return g.with_adjacency_order(np.concatenate([
        rng.permutation(np.arange(g.row_offsets[v], g.row_offsets[v + 1]))
        for v in range(g.num_vertices)
    ] + [np.zeros(0, dtype=np.int64)]))


@st.composite
def _delta_chains(draw):
    """``(n, edges, shuffle_seed, deltas)``: a small directed multigraph
    and a chain of deltas whose inserts and deletes mix fresh pairs,
    self-loops and picks of the base edges, so later deltas re-insert
    edges earlier ones deleted and delete edges already gone."""
    n = draw(st.integers(min_value=1, max_value=8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=40))
    shuffle_seed = draw(st.none() | st.integers(0, 2**16))
    picks = st.lists(st.sampled_from(edges), max_size=4) if edges else st.just([])
    deltas = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        inserts = set(draw(st.lists(pair, max_size=6)) + draw(picks))
        deletes = set(draw(st.lists(pair, max_size=6)) + draw(picks)) - inserts
        deltas.append(GraphDelta(inserts=inserts, deletes=deletes))
    return n, edges, shuffle_seed, deltas


class TestApplyDelta:
    def test_insert_and_delete(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 4)
        mutated = apply_delta(
            g, GraphDelta(inserts=((2, 3),), deletes=((0, 2),))
        )
        assert mutated.neighbors(0).tolist() == [1]
        assert mutated.neighbors(2).tolist() == [3]
        # The input graph is immutable and untouched.
        assert g.neighbors(0).tolist() == [1, 2]

    @given(_mutation_cases())
    @settings(max_examples=150, deadline=None)
    # empty graph, empty delta
    @example((0, [], None, [], []))
    # zero-edge graph: inserts on zero-degree vertices and the last
    # vertex, a delete of an absent edge
    @example((5, [], None, [(0, 4), (4, 4), (4, 0)], [(1, 2)]))
    # multigraph: one delete drops a run of three copies, a re-insert
    # of a parallel edge is a no-op, a delete of an absent edge
    @example((4, [(0, 1), (0, 1), (0, 1), (2, 3), (3, 3), (3, 3)], None,
              [(3, 3), (3, 0)], [(0, 1), (1, 1)]))
    # adjacency stored out of id order
    @example((4, [(0, 3), (0, 1), (0, 2), (0, 2), (3, 1), (3, 0)], 1,
              [(0, 0), (3, 2)], [(0, 2)]))
    def test_canonical_equals_from_scratch(self, case):
        n, edges, shuffle_seed, inserts, deletes = case
        g = CSRGraph.from_edges(
            [u for u, _ in edges], [v for _, v in edges], n, name="g"
        )
        if shuffle_seed is not None:
            g = _shuffled(g, shuffle_seed)
        offsets_before = g.row_offsets.copy()
        cols_before = g.col_indices.copy()
        delta = GraphDelta(inserts=inserts, deletes=deletes)

        mutated = apply_delta(g, delta)

        # Oracle: base multiset, minus every copy of each delete, plus
        # each insert not already present, built from scratch.
        multiset = Counter(edges)
        for e in delta.deletes:
            multiset.pop(e, None)
        for e in delta.inserts:
            multiset[e] = multiset[e] or 1
        expected = CSRGraph.from_edges(
            [u for u, _ in multiset.elements()],
            [v for _, v in multiset.elements()],
            n, name="g",
        )
        assert mutated.name == expected.name
        assert mutated.row_offsets.dtype == expected.row_offsets.dtype
        assert mutated.col_indices.dtype == expected.col_indices.dtype
        assert np.array_equal(mutated.row_offsets, expected.row_offsets)
        assert np.array_equal(mutated.col_indices, expected.col_indices)
        # The input graph is untouched.
        assert np.array_equal(g.row_offsets, offsets_before)
        assert np.array_equal(g.col_indices, cols_before)

    def test_insert_of_existing_edge_is_noop(self):
        # Parallel copies in the base survive a redundant insert.
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        mutated = apply_delta(g, GraphDelta(inserts=((0, 1),)))
        assert mutated.num_edges == 2

    def test_delete_removes_all_parallel_copies(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2], 3)
        mutated = apply_delta(g, GraphDelta(deletes=((0, 1),)))
        assert mutated.neighbors(0).tolist() == [2]

    def test_out_of_range_rejected(self):
        g = CSRGraph.from_edges([0], [1], 2)
        with pytest.raises(MutationError):
            apply_delta(g, GraphDelta(inserts=((0, 5),)))

    def test_chained_deltas_compose(self):
        g = rmat(8, 4, seed=1)
        d1 = random_delta(g, num_inserts=8, seed=11)
        d2 = random_delta(apply_delta(g, d1), num_deletes=4, seed=13)
        step = apply_delta(apply_delta(g, d1), d2)
        assert step.num_vertices == g.num_vertices
        # Replaying the log on a fresh base build converges on the
        # same CSR — the property registry rebuilds rely on.
        again = apply_delta(apply_delta(rmat(8, 4, seed=1), d1), d2)
        assert np.array_equal(step.col_indices, again.col_indices)


class TestCarriedReverse:
    def test_reverse_is_memoized(self):
        g = rmat(6, 4, seed=2)
        assert g.reverse() is g.reverse()

    def test_no_reverse_means_none_carried(self):
        g = rmat(6, 4, seed=2)
        mutated = apply_delta(g, random_delta(g, num_inserts=3, seed=1))
        assert "rev" not in g._cache
        assert "rev" not in mutated._cache

    @given(_delta_chains())
    @settings(max_examples=100, deadline=None)
    # parallel runs, self-loops, an absent delete, then a re-insert of
    # the deleted edge
    @example((3, [(0, 1), (0, 1), (1, 1), (2, 0)], None, [
        GraphDelta(inserts=((1, 1), (2, 2)), deletes=((0, 1), (1, 2))),
        GraphDelta(inserts=((0, 1),), deletes=((1, 1),)),
    ]))
    def test_carried_reverse_equals_fresh_transpose(self, case):
        n, edges, shuffle_seed, deltas = case
        g = CSRGraph.from_edges(
            [u for u, _ in edges], [v for _, v in edges], n, name="g"
        )
        if shuffle_seed is not None:
            g = _shuffled(g, shuffle_seed)
        g.reverse()
        for delta in deltas:
            g = apply_delta(g, delta)
            carried = g._cache["rev"]
            src, dst = g.to_edge_arrays()
            fresh = CSRGraph.from_edges(dst, src, n, name=f"{g.name}^T")
            assert carried.name == fresh.name
            for got, want in (
                (carried.row_offsets, fresh.row_offsets),
                (carried.col_indices, fresh.col_indices),
            ):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert g.reverse() is carried


class TestRandomDelta:
    def test_deterministic(self):
        g = rmat(8, 4, seed=2)
        a = random_delta(g, num_inserts=12, num_deletes=5, seed=42)
        b = random_delta(g, num_inserts=12, num_deletes=5, seed=42)
        assert a == b
        assert a != random_delta(g, num_inserts=12, num_deletes=5, seed=43)

    def test_inserts_are_fresh_non_loops(self):
        g = rmat(8, 4, seed=2)
        src, dst = g.to_edge_arrays()
        existing = set(zip(src.tolist(), dst.tolist()))
        d = random_delta(g, num_inserts=20, seed=7)
        assert d.num_inserts == 20
        for u, v in d.inserts:
            assert u != v
            assert (u, v) not in existing

    def test_deletes_are_existing_edges(self):
        g = rmat(8, 4, seed=2)
        src, dst = g.to_edge_arrays()
        existing = set(zip(src.tolist(), dst.tolist()))
        d = random_delta(g, num_deletes=10, seed=7)
        assert d.num_deletes == 10
        assert set(d.deletes) <= existing

    def test_too_many_deletes_rejected(self):
        g = CSRGraph.from_edges([0], [1], 2)
        with pytest.raises(GraphFormatError, match="delete"):
            random_delta(g, num_deletes=5, seed=0)
