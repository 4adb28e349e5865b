"""Tests for the batched linear-algebra engine and its bitmap kernels.

The engine's contract is the differential one every other engine
carries: whatever the batch width, the direction schedule or the fault
plan, ``levels[i]`` is bit-identical to a solo ``XBFS.run(sources[i])``.
"""

import numpy as np
import pytest

from repro.errors import BatchSourceError, RecoveryExhaustedError, TraversalError
from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.graph.csr import CSRGraph
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.xbfs import bitmap as bm
from repro.xbfs.classifier import AdaptiveClassifier
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.linalg_batch import (
    MAX_LINALG_BATCH,
    PULL,
    PUSH,
    LinAlgBatchBFS,
)

from .directions import BY_MODE, PUSH_ONLY


def _bounded_plan(triggers=3, seed=11):
    return FaultPlan(seed=seed, rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch",
                  probability=0.5, max_triggers=triggers),
    ))


class TestBitmapKernels:
    def test_words_and_masks(self):
        assert bm.words_for(1) == 1
        assert bm.words_for(64) == 1
        assert bm.words_for(65) == 2
        assert bm.full_row_mask(64)[0] == ~np.uint64(0)
        assert bm.full_row_mask(3)[0] == np.uint64(7)
        with pytest.raises(TraversalError):
            bm.words_for(0)

    def test_set_source_bits_one_bit_per_slot(self):
        bitmap = bm.make_bitmap(8, 3)
        bm.set_source_bits(bitmap, np.array([3, 0, 7]))
        assert bitmap[3, 0] == np.uint64(1)
        assert bitmap[0, 0] == np.uint64(2)
        assert bitmap[7, 0] == np.uint64(4)
        assert bm.popcount_rows(bitmap).sum() == 3

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(5)
        for k in (1, 7, 64, 65, 130):
            bools = rng.random((12, k)) < 0.4
            packed = bm.pack_rows(bools)
            assert packed.shape == (12, bm.words_for(k))
            assert np.array_equal(bm.unpack_rows(packed, k), bools)

    def test_segment_or_rows_handles_empty_segments(self):
        values = bm.pack_rows(np.array([[1, 0], [0, 1], [1, 1]], dtype=bool))
        out = bm.segment_or_rows(values, np.array([2, 0, 1]))
        got = bm.unpack_rows(out, 2)
        assert got[0].tolist() == [True, True]     # rows 0|1
        assert got[1].tolist() == [False, False]   # empty segment
        assert got[2].tolist() == [True, True]     # row 2

    def test_scatter_or_accumulates_duplicates(self):
        dest = bm.make_bitmap(4, 2)
        rows = np.array([1, 1, 2])
        vals = bm.pack_rows(np.array([[1, 0], [0, 1], [1, 0]], dtype=bool))
        bm.scatter_or_rows(dest, rows, vals)
        got = bm.unpack_rows(dest, 2)
        assert got[1].tolist() == [True, True]
        assert got[2].tolist() == [True, False]


    @pytest.mark.parametrize("k", [1, 64, 130])
    def test_push_and_pull_products_agree_with_dense(self, k):
        """Both host forms of ``Aᵀ · F`` on a directed multigraph with
        self-loops equal the dense Boolean product."""
        rng = np.random.default_rng(k)
        n = 40
        src, dst = rng.integers(0, n, 160), rng.integers(0, n, 160)
        graph = CSRGraph.from_edges(np.r_[src, src[:30]], np.r_[dst, dst[:30]], n)
        bools = rng.random((n, k)) < 0.3
        bools[rng.random(n) < 0.5] = False
        frontier = bm.pack_rows(bools)
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[src, dst] = True
        dense = (adjacency.T.astype(int) @ bools.astype(int)) > 0

        pushed = bm.push_product(graph, frontier, bm.occupied_rows(frontier))
        assert np.array_equal(bm.unpack_rows(pushed, k), dense)
        cand = np.arange(0, n, 3)
        pulled = bm.pull_product(graph.reverse(), frontier, cand)
        assert np.array_equal(bm.unpack_rows(pulled, k), dense[cand])

    def test_occupied_and_popcount_rows_span_words(self):
        bools = np.zeros((5, 130), dtype=bool)
        bools[1, 129] = bools[3, [0, 64, 65]] = True
        bitmap = bm.pack_rows(bools)
        assert bm.occupied_rows(bitmap).tolist() == [1, 3]
        assert bm.popcount_rows(bitmap).tolist() == [0, 1, 0, 3, 0]

    def test_counter_levels_decodes_counts_and_saturation(self):
        """Counts feed-forward as levels; a count equal to the depth
        (missing from every pre-state) decodes to -1."""
        k, depth = 3, 5
        want = np.array([[0, 1, 4, -1], [2, -1, 0, 3], [-1, -1, 1, 0]])
        planes: list[np.ndarray] = []
        for t in range(depth):
            missing = (want.T > t) | (want.T < 0)
            bm.counter_add(planes, bm.pack_rows(missing))
        got = bm.counter_levels(planes, 4, k, depth=depth)
        assert got.dtype == np.int32
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


class TestCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 64, 100, 200])
    def test_each_source_matches_oracle(self, small_rmat, k):
        sources = pick_sources(small_rmat, k, seed=3)
        result = LinAlgBatchBFS(small_rmat).run(sources)
        for i, s in enumerate(sources.tolist()):
            assert np.array_equal(
                result.levels[i], bfs_levels_reference(small_rmat, s)
            ), f"source {s}"

    @pytest.mark.parametrize("direction", ["auto", "push", "pull"])
    def test_direction_modes_bit_identical(self, small_rmat, direction):
        sources = pick_sources(small_rmat, 96, seed=1)
        result = LinAlgBatchBFS(small_rmat, classifier=BY_MODE[direction]).run(sources)
        for i, s in enumerate(sources.tolist()):
            assert np.array_equal(
                result.levels[i], bfs_levels_reference(small_rmat, s)
            ), f"{direction}: source {s}"
        if direction == "push":
            assert set(result.directions) == {PUSH}
        if direction == "pull":
            assert set(result.directions) == {PULL}

    def test_matches_concurrent_engine_below_64(self, small_rmat):
        sources = pick_sources(small_rmat, 48, seed=9)
        linalg = LinAlgBatchBFS(small_rmat).run(sources)
        conc = ConcurrentBFS(small_rmat).run(sources)
        assert np.array_equal(linalg.levels, conc.levels)
        assert linalg.solo_edges == conc.solo_edges

    def test_mixed_direction_schedule(self, medium_rmat):
        # The stock classifier's 32768-edge bottom-up floor exceeds a
        # small graph's edge count; a scaled-down floor makes the dense
        # middle levels pull while the sparse rim still pushes.
        classifier = AdaptiveClassifier(alpha=0.05, min_bottom_up_edges=512)
        sources = pick_sources(medium_rmat, 128, seed=2)
        engine = LinAlgBatchBFS(medium_rmat, classifier=classifier)
        result = engine.run(sources)
        assert PUSH in result.directions and PULL in result.directions
        for i, s in enumerate(sources.tolist()):
            assert np.array_equal(
                result.levels[i], bfs_levels_reference(medium_rmat, s)
            ), f"mixed: source {s}"

    def test_unreachable_sources_and_components(self, disconnected_graph):
        result = LinAlgBatchBFS(disconnected_graph).run(np.array([0, 3, 7]))
        # Component isolation: neither component sees the other, the
        # isolated vertex reaches nothing but itself.
        assert result.levels[0][3] == -1 and result.levels[1][0] == -1
        assert result.levels[2].tolist().count(-1) == 7
        assert result.levels[2][7] == 0

    def test_levels_of_lookup(self, fig1_graph):
        result = LinAlgBatchBFS(fig1_graph).run(np.array([0, 4]))
        assert np.array_equal(
            result.levels_of(4), bfs_levels_reference(fig1_graph, 4)
        )
        with pytest.raises(TraversalError, match="not in this batch"):
            result.levels_of(5)


class TestLevelLayout:
    """Levels decode source-major: each source's row is one contiguous
    run, at any batch width and on a vertex count that is no multiple
    of the decode's transpose block."""

    @pytest.fixture(scope="class")
    def ragged_graph(self):
        # The last 60 vertices have no edges, so some rows hold -1s.
        n = 1100
        rng = np.random.default_rng(4)
        src = rng.integers(0, n - 60, 2500)
        dst = rng.integers(0, n - 60, 2500)
        return CSRGraph.from_edges(src, dst, n, symmetrize=True, name="ragged")

    @pytest.mark.parametrize("k", [1, 8, 64, 65, 128, 1024])
    def test_rows_contiguous_and_exact(self, ragged_graph, k):
        n = ragged_graph.num_vertices
        sources = np.random.default_rng(k).permutation(n)[:k]
        result = LinAlgBatchBFS(ragged_graph).run(sources)
        assert result.levels.shape == (k, n)
        assert result.levels.flags.c_contiguous
        assert n % bm._TRANSPOSE_ROWS != 0
        for s in sources.tolist():
            row = result.levels_of(s)
            assert row.flags.c_contiguous
            assert np.array_equal(row, bfs_levels_reference(ragged_graph, s)), s


class TestValidation:
    def test_malformed_batches_are_typed_and_costless(self, medium_rmat):
        engine = LinAlgBatchBFS(medium_rmat)
        n = medium_rmat.num_vertices
        for bad in (
            np.array([], dtype=np.int64),            # empty
            np.arange(MAX_LINALG_BATCH + 1),         # over capacity
            np.array([0, 5, 5]),                     # duplicate → bit alias
            np.array([0, n]),                        # past the last vertex
            np.array([-3]),                          # negative
        ):
            with pytest.raises(BatchSourceError):
                engine.run(bad)
        assert engine._gcd is None or engine._gcd.elapsed_ms == 0.0

    def test_cap_message_names_engine(self, medium_rmat):
        with pytest.raises(BatchSourceError, match="linalg_batch"):
            LinAlgBatchBFS(medium_rmat).run(np.arange(MAX_LINALG_BATCH + 1))


class TestSharingAndAccounting:
    def test_sharing_factor_grows_with_batch(self, small_rmat):
        engine = LinAlgBatchBFS(small_rmat)
        r8 = engine.run(pick_sources(small_rmat, 8, seed=1))
        r128 = engine.run(pick_sources(small_rmat, 128, seed=1))
        assert r8.sharing_factor >= 1.0
        assert r128.sharing_factor > r8.sharing_factor

    def test_warmup_and_gteps(self, small_rmat):
        engine = LinAlgBatchBFS(small_rmat)
        sources = pick_sources(small_rmat, 16, seed=0)
        first = engine.run(sources)
        second = engine.run(sources)
        assert first.paid_warmup and not second.paid_warmup
        assert second.gteps > 0
        assert second.traversed_edges == second.solo_edges

    def test_pull_never_built_for_pinned_push(self, small_rmat):
        # A private copy: the shared fixture's memoized reverse may
        # already exist from other tests.
        graph = CSRGraph(small_rmat.row_offsets, small_rmat.col_indices)
        engine = LinAlgBatchBFS(graph, classifier=PUSH_ONLY)
        engine.run(pick_sources(graph, 32, seed=4))
        assert "rev" not in graph._cache


class TestFaultRecovery:
    @pytest.mark.parametrize("direction", ["auto", "push", "pull"])
    def test_recovered_levels_identical(self, small_rmat, direction):
        sources = pick_sources(small_rmat, 100, seed=6)
        clean = LinAlgBatchBFS(small_rmat, classifier=BY_MODE[direction]).run(sources)
        plan = _bounded_plan()
        faulted = LinAlgBatchBFS(
            small_rmat, classifier=BY_MODE[direction], injector=plan.injector()
        ).run(sources)
        assert faulted.level_restarts > 0
        assert np.array_equal(faulted.levels, clean.levels)
        # Replayed kernel time is paid, never hidden.
        assert faulted.elapsed_ms > clean.elapsed_ms

    def test_deterministic_replay_under_faults(self, small_rmat):
        sources = pick_sources(small_rmat, 80, seed=7)
        plan = _bounded_plan(seed=77)
        a = LinAlgBatchBFS(small_rmat, injector=plan.injector()).run(sources)
        b = LinAlgBatchBFS(small_rmat, injector=plan.injector()).run(sources)
        assert a.level_restarts == b.level_restarts
        assert a.elapsed_ms == b.elapsed_ms

    @pytest.mark.parametrize("engine, k, direction, plan, pinned, faulted", [
        ("concurrent", 8, None, _bounded_plan(), (3, 20.18072294473785),
         ["cb_expand"] * 3),
        ("linalg_batch", 100, "auto", _bounded_plan(triggers=6, seed=6),
         (6, 20.2294248188703), ["lab_spmm_push"] * 6),
        ("linalg_batch", 100, "pull", _bounded_plan(triggers=6, seed=6),
         (6, 20.229525209770706), ["lab_pull_gather"] * 6),
    ], ids=["concurrent", "linalg-auto", "linalg-pull"])
    def test_modelled_cost_under_faults_is_pinned(
        self, small_rmat, engine, k, direction, plan, pinned, faulted
    ):
        """Exact ``(level_restarts, elapsed_ms)`` of one seeded faulted
        run per bitmap engine, and the launches the faults hit. The
        replayed charge must keep one launch per level (``cb_expand``
        or the push/pull gather, then sync), which fixes which visit
        each fault lands on."""
        injector = plan.injector()
        if engine == "concurrent":
            bfs = ConcurrentBFS(small_rmat, injector=injector)
        else:
            bfs = LinAlgBatchBFS(
                small_rmat, classifier=BY_MODE[direction], injector=injector
            )
        result = bfs.run(pick_sources(small_rmat, k, seed=6))
        assert (result.level_restarts, result.elapsed_ms) == pinned
        assert [e.detail for e in injector.events] == faulted

    def test_recovery_exhaustion_is_typed(self, fig1_graph):
        plan = FaultPlan(seed=5, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      probability=1.0),
        ))
        engine = LinAlgBatchBFS(
            fig1_graph, injector=plan.injector(),
            recovery=RecoveryPolicy(max_level_restarts=2),
        )
        with pytest.raises(RecoveryExhaustedError, match="linalg_batch"):
            engine.run(np.array([0, 1]))
