"""Property tests: the bitmap host products against a naive per-row OR.

``push_product``, ``pull_product`` and the pod's per-member pull
(``MultiGcdBFS._pull_by_member``, built on ``pull_runs``) must equal
the plain definition of ``Aᵀ · F`` row by row, whichever gather they
take: the dense pass over contiguous reverse-CSR ranges, the sparse
adjacency gather, one block or many, the word-by-word scatter or the
2-D one. Graphs are directed multigraphs with self-loops and rows of
zero in-degree; candidate sets run from empty to every row.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.multigcd import MultiGcdBFS
from repro.xbfs import bitmap as bm

WORDS = (1, 2, 3, 16)

#: Block sizes in words: one word per block, a few edges per block, and
#: the production size (one block on these graphs).
BLOCKS = (1, 7, 64, bm._BLOCK_WORDS)


def naive_in_or(graph: CSRGraph, frontier: np.ndarray, rows) -> np.ndarray:
    """Row *i*: the OR of ``frontier[u]`` over every edge ``u -> rows[i]``."""
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    out = np.zeros((len(rows), frontier.shape[1]), dtype=np.uint64)
    for i, v in enumerate(rows):
        for u in src[graph.col_indices == v]:
            out[i] |= frontier[u]
    return out


def naive_push(graph: CSRGraph, frontier: np.ndarray, active) -> np.ndarray:
    """``incoming[v] |= frontier[u]`` along every out-edge of ``active``."""
    out = np.zeros_like(frontier)
    for u in active:
        lo, hi = graph.row_offsets[u], graph.row_offsets[u + 1]
        for v in graph.col_indices[lo:hi]:
            out[v] |= frontier[u]
    return out


@st.composite
def products(draw):
    """A graph, a frontier bitmap, a candidate set and a block size."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 6 * n))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                   dtype=np.int64)
    # Parallel copies of a prefix make a multigraph.
    dup = draw(st.integers(0, m))
    graph = CSRGraph.from_edges(np.r_[src, src[:dup]], np.r_[dst, dst[:dup]], n)
    words = draw(st.sampled_from(WORDS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**63, (n, words), dtype=np.int64).view(np.uint64)
    frontier = bits * (rng.random((n, 1)) < draw(st.floats(0.0, 1.0)))
    density = draw(st.sampled_from((0.0, 0.1, 0.5, 1.0)))
    cand = np.flatnonzero(rng.random(n) < density).astype(np.int64)
    return graph, frontier, cand, draw(st.sampled_from(BLOCKS))


class TestProductsAgainstNaive:
    @settings(max_examples=150, deadline=None)
    @given(products())
    def test_pull_product(self, case):
        graph, frontier, cand, block = case
        reverse = graph.reverse()
        with patch.object(bm, "_BLOCK_WORDS", block):
            got = bm.pull_product(reverse, frontier, cand)
        assert got.shape == (cand.size, frontier.shape[1])
        assert np.array_equal(got, naive_in_or(graph, frontier, cand))

    @settings(max_examples=150, deadline=None)
    @given(products())
    def test_push_product(self, case):
        graph, frontier, _, _ = case
        active = bm.occupied_rows(frontier)
        got = bm.push_product(graph, frontier, active)
        assert np.array_equal(got, naive_push(graph, frontier, active))

    @pytest.mark.parametrize("words", WORDS)
    @pytest.mark.parametrize("mode", ["dense", "sparse", "empty"])
    def test_pull_spans_several_blocks(self, words, mode):
        """A graph of ~25k in-edges: about six production-size blocks
        at 16 words, two at three, one at one word; both gathers and an
        empty ``cand``."""
        graph = rmat(11, 8, seed=5)
        reverse = graph.reverse()
        rng = np.random.default_rng(words)
        bits = rng.integers(0, 2**63, (graph.num_vertices, words), dtype=np.int64)
        frontier = bits.view(np.uint64) * (rng.random((graph.num_vertices, 1)) < 0.3)
        keep = {"dense": 0.9, "sparse": 0.05, "empty": 0.0}[mode]
        cand = np.flatnonzero(rng.random(graph.num_vertices) < keep).astype(np.int64)
        in_edges = int(reverse.degrees[cand].sum())
        assert (2 * in_edges >= reverse.num_edges) == (mode == "dense")
        got = bm.pull_product(reverse, frontier, cand)
        want = bm.segment_or_rows(
            frontier[np.concatenate(
                [reverse.col_indices[reverse.row_offsets[v]:reverse.row_offsets[v + 1]]
                 for v in cand] or [np.zeros(0, np.int64)]
            )],
            reverse.degrees[cand],
        )
        assert np.array_equal(got, want)
        # The push product over every row is the pull over every row.
        everything = np.arange(graph.num_vertices)
        assert np.array_equal(
            bm.push_product(graph, frontier, bm.occupied_rows(frontier)),
            bm.pull_product(reverse, frontier, everything),
        )

    @pytest.mark.parametrize(
        "words", [1, bm._WORD_SCATTER_MAX, bm._WORD_SCATTER_MAX + 1, 16]
    )
    def test_scatter_word_by_word_equals_2d(self, words):
        """Both sides of the word-count switch accumulate duplicates."""
        rng = np.random.default_rng(words)
        rows = rng.integers(0, 50, 400)
        values = rng.integers(0, 2**63, (400, words), dtype=np.int64).view(np.uint64)
        dest = rng.integers(0, 2**63, (50, words), dtype=np.int64).view(np.uint64)
        want = dest.copy()
        for r, v in zip(rows, values):
            want[r] |= v
        bm.scatter_or_rows(dest, rows, values)
        assert np.array_equal(dest, want)


@st.composite
def pod_pulls(draw):
    """A graph, a pod width, a frontier, a ``missing`` mask whose
    occupied rows are the candidates, and a block size."""
    graph, frontier, _, block = draw(products())
    num_gcds = draw(st.integers(1, min(4, graph.num_vertices)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = frontier.shape[1]
    missing = rng.integers(0, 2**63, (graph.num_vertices, words), dtype=np.int64)
    missing = missing.view(np.uint64) * (rng.random((graph.num_vertices, 1)) < 0.7)
    return graph, num_gcds, frontier, missing, block


class TestPodPullByMember:
    """The 1D pod's pull splits each candidate's in-edges by the member
    owning the in-neighbour; each part must be that member's naive OR,
    masked by ``missing``."""

    @staticmethod
    def _naive(engine, frontier, cand, missing):
        graph = engine.graph
        owner = np.searchsorted(engine.bounds, np.arange(graph.num_vertices), side="right") - 1
        src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
        out = np.zeros((cand.size, engine.num_gcds, frontier.shape[1]), np.uint64)
        for i, v in enumerate(cand):
            for u in src[graph.col_indices == v]:
                out[i, owner[u]] |= frontier[u]
            out[i] &= missing[v]
        return out

    @settings(max_examples=100, deadline=None)
    @given(pod_pulls())
    def test_pull_by_member(self, case):
        graph, num_gcds, frontier, missing, block = case
        engine = MultiGcdBFS(graph, num_gcds)
        cand = bm.occupied_rows(missing)
        with patch.object(bm, "_BLOCK_WORDS", block):
            got = engine._pull_by_member(frontier, cand, missing)
        assert np.array_equal(got, self._naive(engine, frontier, cand, missing))

    @pytest.mark.parametrize("words", [1, 16])
    def test_pull_by_member_spans_several_blocks(self, words):
        graph = rmat(10, 8, seed=3)
        engine = MultiGcdBFS(graph, 4)
        rng = np.random.default_rng(words)
        n = graph.num_vertices
        frontier = rng.integers(0, 2**63, (n, words), dtype=np.int64).view(np.uint64)
        missing = frontier.copy() * (rng.random((n, 1)) < 0.8)
        cand = bm.occupied_rows(missing)
        with patch.object(bm, "_BLOCK_WORDS", 256):
            got = engine._pull_by_member(frontier, cand, missing)
        assert np.array_equal(got, self._naive(engine, frontier, cand, missing))
