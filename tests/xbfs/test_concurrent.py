"""Tests for the iBFS-style concurrent multi-source engine, and the
differential property both bitmap engines share."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import BatchSourceError, TraversalError
from repro.graph.csr import CSRGraph
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.xbfs.concurrent import (
    MAX_CONCURRENT,
    ConcurrentBFS,
    validate_batch_sources,
)
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS

from .directions import BY_MODE

#: Widest property batch: three bitmap words for the linalg engine.
_MAX_PROPERTY_SOURCES = 130


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 7, 16])
    def test_each_source_matches_oracle(self, small_rmat, k):
        sources = pick_sources(small_rmat, k, seed=3)
        result = ConcurrentBFS(small_rmat).run(sources)
        for i, s in enumerate(sources.tolist()):
            assert np.array_equal(
                result.levels[i], bfs_levels_reference(small_rmat, s)
            ), f"source {s}"

    def test_disconnected_sources(self, disconnected_graph):
        result = ConcurrentBFS(disconnected_graph).run(np.array([0, 3]))
        # Source 0's component never sees source 3's and vice versa.
        assert result.levels[0][3] == -1
        assert result.levels[1][0] == -1
        assert result.levels[0][0] == 0 and result.levels[1][3] == 0

    def test_max_batch_on_fig1(self, fig1_graph):
        sources = np.arange(9)
        result = ConcurrentBFS(fig1_graph).run(sources)
        for i in range(9):
            assert np.array_equal(
                result.levels[i], bfs_levels_reference(fig1_graph, i)
            )

    def test_validation(self, small_rmat):
        engine = ConcurrentBFS(small_rmat)
        with pytest.raises(TraversalError, match="1..64"):
            engine.run(np.arange(MAX_CONCURRENT + 1))
        with pytest.raises(TraversalError, match="distinct"):
            engine.run(np.array([1, 1]))
        with pytest.raises(TraversalError, match="out of range"):
            engine.run(np.array([-1]))

    def test_validation_errors_are_typed(self, small_rmat):
        """Malformed batches raise BatchSourceError (a TraversalError
        *and* a ValueError) before any modelled cost is charged."""
        engine = ConcurrentBFS(small_rmat)
        n = small_rmat.num_vertices
        for bad in (
            np.array([], dtype=np.int64),          # empty
            np.arange(MAX_CONCURRENT + 1),         # over capacity
            np.array([0, 5, 5]),                   # duplicate → bit alias
            np.array([0, n]),                      # past the last vertex
            np.array([-3]),                        # negative
        ):
            with pytest.raises(BatchSourceError):
                engine.run(bad)
            assert issubclass(BatchSourceError, ValueError)
        assert engine._gcd is None or engine._gcd.elapsed_ms == 0.0

    def test_validate_batch_sources_uncapped(self, small_rmat):
        n = small_rmat.num_vertices
        # max_batch=None lifts the slot cap (back-to-back engines) but
        # keeps the range/distinct checks.
        validate_batch_sources(
            np.arange(n, dtype=np.int64), n, max_batch=None
        )
        with pytest.raises(BatchSourceError, match="distinct"):
            validate_batch_sources(
                np.zeros(2, dtype=np.int64), n, max_batch=None
            )


class TestSharing:
    def test_sharing_factor_at_least_one(self, small_rmat):
        sources = pick_sources(small_rmat, 8, seed=1)
        result = ConcurrentBFS(small_rmat).run(sources)
        assert result.sharing_factor >= 1.0

    def test_more_sources_more_sharing(self, small_rmat):
        r2 = ConcurrentBFS(small_rmat).run(pick_sources(small_rmat, 2, seed=1))
        r16 = ConcurrentBFS(small_rmat).run(pick_sources(small_rmat, 16, seed=1))
        assert r16.sharing_factor > r2.sharing_factor

    def test_batch_beats_sequential_solo_runs(self, medium_rmat):
        """The iBFS claim: one shared traversal is cheaper than k solo
        traversals of the same sources."""
        sources = pick_sources(medium_rmat, 16, seed=2)
        batch_engine = ConcurrentBFS(medium_rmat)
        batch_engine.run(sources)            # warm-up
        batch = batch_engine.run(sources)    # steady

        solo_engine = XBFS(medium_rmat)
        solo = solo_engine.run_many(sources)
        solo_ms = sum(r.elapsed_ms for r in solo.steady_runs) * (
            len(sources) / max(1, len(solo.steady_runs))
        )
        assert batch.elapsed_ms < solo_ms

    def test_union_never_exceeds_solo(self, small_rmat):
        sources = pick_sources(small_rmat, 8, seed=5)
        result = ConcurrentBFS(small_rmat).run(sources)
        assert result.union_edges <= result.solo_edges

    def test_gteps_aggregates_all_sources(self, small_rmat):
        sources = pick_sources(small_rmat, 4, seed=0)
        engine = ConcurrentBFS(small_rmat)
        engine.run(sources)
        result = engine.run(sources)
        assert result.gteps > 0
        assert result.traversed_edges == result.solo_edges


class TestAccounting:
    def test_kernel_per_level(self, small_rmat):
        sources = pick_sources(small_rmat, 4, seed=0)
        engine = ConcurrentBFS(small_rmat)
        result = engine.run(sources)
        assert engine._gcd.launches == result.depth

    def test_warmup_flag(self, small_rmat):
        engine = ConcurrentBFS(small_rmat)
        first = engine.run(np.array([0, 1]))
        second = engine.run(np.array([0, 1]))
        assert first.paid_warmup and not second.paid_warmup


@st.composite
def _batch_cases(draw):
    """A directed multigraph (parallel edges and self-loops are common),
    a batch of 1..130 distinct sources on it, and a linalg direction
    mode."""
    n = draw(st.integers(min_value=2, max_value=160))
    m = draw(st.integers(min_value=0, max_value=4 * n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vertex, min_size=m, max_size=m))
    dst = draw(st.lists(vertex, min_size=m, max_size=m))
    k = draw(st.integers(min_value=1, max_value=min(_MAX_PROPERTY_SOURCES, n)))
    sources = draw(st.lists(vertex, min_size=k, max_size=k, unique=True))
    direction = draw(st.sampled_from(["auto", "push", "pull"]))
    return CSRGraph.from_edges(np.asarray(src), np.asarray(dst), n), sources, direction


def _run_counting_pulls(graph, sources):
    """``(result, pull levels)`` of one batched run."""
    result = ConcurrentBFS(graph).run(np.asarray(sources))
    assert len(result.decisions) == result.depth
    pulls = sum(d.reason.startswith("pull") for d in result.decisions)
    return result, pulls


def _assert_matches_oracle(graph, sources, result, *, union=True):
    """Levels equal the oracle's, and so do the direction-independent
    counts: a frontier never carries a bit its vertex was already
    visited by. ``union`` also checks the edges examined, which equal
    the union frontiers' out-degrees unless a linalg level pulled."""
    oracle = np.vstack([bfs_levels_reference(graph, s) for s in sources])
    assert np.array_equal(result.levels, oracle)
    depth = int(oracle.max()) + 1
    assert result.depth == depth
    degs = graph.degrees
    assert result.solo_edges == int((degs * (oracle >= 0).sum(axis=0)).sum())
    if union:
        assert result.union_edges == sum(
            int(degs[(oracle == t).any(axis=0)].sum()) for t in range(depth)
        )


class TestPropertyEquivalence:
    @pytest.mark.parametrize("engine", ["concurrent", "linalg_batch"])
    @given(case=_batch_cases())
    @settings(max_examples=60, deadline=None)
    # exactly 64 sources: the full-word mask is ~0
    @example(case=(
        CSRGraph.from_edges(
            np.arange(80) % 70, (np.arange(80) * 7 + 3) % 70, 70
        ),
        list(range(64)),
        "auto",
    ))
    # 130 sources: three words, the last one partial
    @example(case=(
        CSRGraph.from_edges(
            np.arange(400) % 150, (np.arange(400) * 11 + 5) % 150, 150
        ),
        list(range(130)),
        "pull",
    ))
    def test_batch_equals_solo_on_random_graphs(self, engine, case):
        """Property: for arbitrary graphs and batches, every source's
        level array from either bitmap engine equals a solo run's
        (ConcurrentBFS takes the first 64 sources; LinAlgBatchBFS runs
        the whole batch in the drawn direction mode)."""
        graph, sources, direction = case
        if engine == "concurrent":
            sources = sources[:MAX_CONCURRENT]
            bfs = ConcurrentBFS(graph)
        else:
            bfs = LinAlgBatchBFS(graph, classifier=BY_MODE[direction])
        result = bfs.run(np.asarray(sources))
        _assert_matches_oracle(
            graph, sources, result,
            union=engine == "concurrent" or direction == "push",
        )
        assert len(result.directions) == result.depth

    def test_full_word_batch_on_directed_multigraph(self):
        rng = np.random.default_rng(5)
        n = 300
        src = rng.integers(0, n, 1500)
        dst = rng.integers(0, n, 1500)
        graph = CSRGraph.from_edges(
            np.concatenate([src, src[:200]]), np.concatenate([dst, dst[:200]]), n
        )
        sources = rng.choice(n, size=MAX_CONCURRENT, replace=False).tolist()
        result, pulls = _run_counting_pulls(graph, sources)
        _assert_matches_oracle(graph, sources, result)
        assert 0 < pulls < result.depth

    def test_path_levels_only_push(self):
        """A directed path beside a dense cluster it never reaches: each
        level pushes one edge, while a pull would rescan the cluster's
        in-edges every time."""
        path = 30
        cluster = np.arange(path, path + 10)
        cu, cv = np.meshgrid(cluster, cluster)
        graph = CSRGraph.from_edges(
            np.concatenate([np.arange(path - 1), cu.ravel()]),
            np.concatenate([np.arange(1, path), cv.ravel()]),
            path + cluster.size,
        )
        sources = [0, 1, 5]
        result, pulls = _run_counting_pulls(graph, sources)
        _assert_matches_oracle(graph, sources, result)
        assert result.depth == path and pulls == 0

    def test_peak_levels_pull(self, small_rmat):
        sources = pick_sources(small_rmat, 8, seed=3).tolist()
        result, pulls = _run_counting_pulls(small_rmat, sources)
        _assert_matches_oracle(small_rmat, sources, result)
        assert 0 < pulls < result.depth
