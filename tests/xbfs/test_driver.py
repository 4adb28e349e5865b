"""End-to-end tests for the XBFS driver."""

import numpy as np
import pytest

from repro.errors import TraversalError
from repro.gcd.device import P6000
from repro.gcd.kernel import ExecConfig
from repro.graph.stats import bfs_levels_reference, pick_sources
from repro.xbfs.classifier import AdaptiveClassifier
from repro.xbfs.driver import XBFS

GRAPH_FIXTURES = [
    "fig1_graph",
    "small_rmat",
    "social_graph",
    "deep_graph",
    "star_graph",
    "chain_graph",
    "complete_graph",
    "disconnected_graph",
]


class TestCorrectness:
    @pytest.mark.parametrize("fixture", GRAPH_FIXTURES)
    @pytest.mark.parametrize(
        "force", [None, "scan_free", "single_scan", "bottom_up"]
    )
    def test_levels_match_oracle(self, fixture, force, request):
        graph = request.getfixturevalue(fixture)
        source = int(np.argmax(graph.degrees))
        expected = bfs_levels_reference(graph, source)
        result = XBFS(graph).run(source, force_strategy=force)
        assert np.array_equal(result.levels, expected), (fixture, force)

    @pytest.mark.parametrize("fixture", ["small_rmat", "social_graph"])
    def test_rearranged_same_levels(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        source = int(np.argmax(graph.degrees))
        plain = XBFS(graph).run(source)
        rearr = XBFS(graph, rearrange=True).run(source)
        assert np.array_equal(plain.levels, rearr.levels)

    def test_multi_stream_config_same_levels(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        expected = bfs_levels_reference(social_graph, source)
        cfg = ExecConfig(num_streams=3, compiler="hipcc",
                         bottom_up_workload_balancing=True)
        result = XBFS(social_graph, config=cfg).run(source)
        assert np.array_equal(result.levels, expected)

    def test_nvidia_profile_same_levels(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        result = XBFS(small_rmat, device=P6000).run(source)
        assert np.array_equal(result.levels, bfs_levels_reference(small_rmat, source))

    def test_proactive_off_same_levels(self, medium_rmat):
        source = int(np.argmax(medium_rmat.degrees))
        on = XBFS(medium_rmat, proactive=True).run(source)
        off = XBFS(medium_rmat, proactive=False).run(source)
        assert np.array_equal(on.levels, off.levels)

    def test_many_sources(self, medium_rmat):
        for s in pick_sources(medium_rmat, 5, seed=11):
            result = XBFS(medium_rmat).run(int(s))
            assert np.array_equal(
                result.levels, bfs_levels_reference(medium_rmat, int(s))
            )

    def test_isolated_source(self, disconnected_graph):
        result = XBFS(disconnected_graph).run(7)
        assert result.reached == 1
        # The level-0 frontier (the source) is expanded once, finds
        # nothing, and the run terminates.
        assert result.depth == 1
        assert result.traversed_edges == 0


class TestValidation:
    def test_source_out_of_range(self, small_rmat):
        with pytest.raises(TraversalError):
            XBFS(small_rmat).run(-1)
        with pytest.raises(TraversalError):
            XBFS(small_rmat).run(small_rmat.num_vertices)

    def test_unknown_strategy(self, small_rmat):
        with pytest.raises(TraversalError, match="unknown strategy"):
            XBFS(small_rmat).run(0, force_strategy="dfs")


class TestAccounting:
    def test_first_run_pays_warmup(self, small_rmat):
        engine = XBFS(small_rmat)
        first = engine.run(0)
        second = engine.run(0)
        assert first.paid_warmup and not second.paid_warmup
        assert first.elapsed_ms > second.elapsed_ms

    def test_deterministic_modelled_time(self, small_rmat):
        a = XBFS(small_rmat).run(0)
        b = XBFS(small_rmat).run(0)
        assert a.elapsed_ms == b.elapsed_ms
        assert [r.runtime_ms for r in a.records] == [r.runtime_ms for r in b.records]

    def test_gteps_definition(self, small_rmat):
        r = XBFS(small_rmat).run(int(np.argmax(small_rmat.degrees)))
        expected = r.traversed_edges / (r.elapsed_ms * 1e-3) / 1e9
        assert r.gteps == pytest.approx(expected)

    def test_traversed_edges_are_reached_degrees(self, disconnected_graph):
        r = XBFS(disconnected_graph).run(0)
        reached = r.levels >= 0
        assert r.traversed_edges == int(
            disconnected_graph.degrees[reached].sum()
        )

    def test_strategy_trace_length(self, small_rmat):
        r = XBFS(small_rmat).run(int(np.argmax(small_rmat.degrees)))
        assert len(r.strategies) == r.depth == len(r.level_results)
        assert len(r.decisions) == r.depth

    def test_sync_per_level(self, small_rmat):
        r = XBFS(small_rmat).run(int(np.argmax(small_rmat.degrees)))
        sync_unit = XBFS(small_rmat).device.device_sync_us * 1e-3
        assert r.sync_ms == pytest.approx(r.depth * sync_unit)

    def test_max_levels_truncates(self, chain_graph):
        r = XBFS(chain_graph).run(0, max_levels=5)
        assert r.depth == 5
        assert r.levels.max() == 5  # partial traversal

    def test_records_include_init(self, small_rmat):
        r = XBFS(small_rmat).run(0)
        assert r.records[0].name == "init_status"


class TestAdaptiveBehaviour:
    def test_uses_all_three_strategies_on_rmat(self, medium_rmat):
        source = int(np.argmax(medium_rmat.degrees))
        r = XBFS(medium_rmat).run(source)
        assert "scan_free" in r.strategies
        assert "bottom_up" in r.strategies
        assert "single_scan" in r.strategies

    def test_level0_is_scan_free(self, medium_rmat):
        r = XBFS(medium_rmat).run(int(np.argmax(medium_rmat.degrees)))
        assert r.strategies[0] == "scan_free"

    def test_single_scan_follows_bottom_up(self, medium_rmat):
        r = XBFS(medium_rmat).run(int(np.argmax(medium_rmat.degrees)))
        for prev, cur in zip(r.strategies, r.strategies[1:]):
            if prev == "bottom_up" and cur != "bottom_up":
                assert cur == "single_scan"

    def test_no_gen_skips_queue_kernel(self, medium_rmat):
        """A single-scan level right after bottom-up must not contain a
        queue-generation kernel."""
        r = XBFS(medium_rmat).run(int(np.argmax(medium_rmat.degrees)))
        for i, (prev, cur) in enumerate(zip(r.strategies, r.strategies[1:]), start=1):
            if prev == "bottom_up" and cur == "single_scan":
                names = [rec.name for rec in r.level_results[i].records]
                assert "ss_queue_gen" not in names

    def test_grid_never_bottom_up(self, deep_graph):
        """Uniform tiny frontiers on a grid: ratio never crosses alpha."""
        r = XBFS(deep_graph).run(0)
        assert "bottom_up" not in r.strategies

    def test_custom_classifier(self, medium_rmat):
        never_bu = AdaptiveClassifier(alpha=1.0, min_bottom_up_edges=0)
        r = XBFS(medium_rmat, classifier=never_bu).run(
            int(np.argmax(medium_rmat.degrees))
        )
        assert "bottom_up" not in r.strategies
        assert np.array_equal(
            r.levels,
            bfs_levels_reference(medium_rmat, int(np.argmax(medium_rmat.degrees))),
        )


class TestRunMany:
    def test_batch_aggregates(self, small_rmat):
        sources = pick_sources(small_rmat, 4, seed=0)
        batch = XBFS(small_rmat).run_many(sources)
        assert len(batch.runs) == 4
        assert batch.total_edges == sum(r.traversed_edges for r in batch.runs)
        assert batch.gteps > 0
        assert all(r.gteps > 0 for r in batch.runs)

    def test_only_first_run_pays_warmup(self, small_rmat):
        batch = XBFS(small_rmat).run_many(pick_sources(small_rmat, 3, seed=0))
        warm_flags = [r.paid_warmup for r in batch.runs]
        assert warm_flags == [True, False, False]

    def test_steady_excludes_warmup(self, small_rmat):
        batch = XBFS(small_rmat).run_many(pick_sources(small_rmat, 3, seed=0))
        assert len(batch.steady_runs) == 2
        assert batch.steady_gteps > batch.gteps

    def test_empty_batch(self, small_rmat):
        batch = XBFS(small_rmat).run_many(np.array([], dtype=np.int64))
        assert batch.gteps == 0.0
        assert batch.runs == []
