"""Tests for partitioning, the interconnect model and distributed BFS."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.faults import FaultPlan, FaultRule
from repro.gcd.device import MI250X_GCD
from repro.graph.generators import rmat
from repro.graph.stats import bfs_levels_reference
from repro.multigcd import (
    INFINITY_FABRIC,
    SLINGSHOT,
    Grid2dBFS,
    InterconnectModel,
    MultiGcdBFS,
    partition_by_edges,
)


class TestPartition1D:
    def test_edge_balance_beats_vertex_balance_on_skew(self, social_graph):
        n = social_graph.num_vertices
        by_vertices = np.linspace(0, n, 5).astype(np.int64)
        by_edges = partition_by_edges(social_graph, 4)
        assert by_edges[0] == 0 and by_edges[-1] == n
        assert np.all(np.diff(by_edges) >= 0)

        def edge_imbalance(bounds):
            owned = [
                social_graph.degrees[bounds[i] : bounds[i + 1]].sum()
                for i in range(bounds.size - 1)
            ]
            return max(owned) / max(1, min(owned) if min(owned) else 1)

        assert edge_imbalance(by_edges) <= edge_imbalance(by_vertices)

    def test_too_many_parts(self, fig1_graph):
        with pytest.raises(PartitionError):
            partition_by_edges(fig1_graph, 100)
        with pytest.raises(PartitionError):
            partition_by_edges(fig1_graph, 0)


class TestInterconnect:
    def test_single_part_free(self):
        assert INFINITY_FABRIC.alltoall_ms(np.zeros((1, 1))) == 0.0

    def test_diagonal_ignored(self):
        m = np.diag([1e9, 1e9]).astype(float)
        cost = INFINITY_FABRIC.alltoall_ms(m)
        # Only latency remains: local hand-off is free.
        assert cost == pytest.approx(INFINITY_FABRIC.latency_us * 1e-3)

    def test_bandwidth_term_scales(self):
        small = np.array([[0.0, 1e6], [1e6, 0.0]])
        big = small * 100
        assert INFINITY_FABRIC.alltoall_ms(big) > INFINITY_FABRIC.alltoall_ms(small)

    def test_slingshot_slower_than_fabric(self):
        m = np.array([[0.0, 1e8], [1e8, 0.0]])
        assert SLINGSHOT.alltoall_ms(m) > INFINITY_FABRIC.alltoall_ms(m)

    def test_non_square_rejected(self):
        with pytest.raises(PartitionError):
            INFINITY_FABRIC.alltoall_ms(np.zeros((2, 3)))

    def test_validation(self):
        with pytest.raises(PartitionError):
            InterconnectModel("bad", 0.0, 1.0)
        with pytest.raises(PartitionError):
            InterconnectModel("bad", 1.0, -1.0)


class TestDistributedBFS:
    @pytest.mark.parametrize("num_gcds", [1, 2, 3, 8])
    def test_matches_oracle(self, small_rmat, num_gcds):
        source = int(np.argmax(small_rmat.degrees))
        result = MultiGcdBFS(small_rmat, num_gcds).run_batch([source])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(small_rmat, source)
        )
        assert result.num_gcds == num_gcds

    def test_disconnected(self, disconnected_graph):
        result = MultiGcdBFS(disconnected_graph, 2).run_batch([0])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(disconnected_graph, 0)
        )

    def test_comm_grows_with_parts(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        res2 = MultiGcdBFS(social_graph, 2).run_batch([source])
        res8 = MultiGcdBFS(social_graph, 8).run_batch([source])
        assert res8.bytes_exchanged >= res2.bytes_exchanged
        assert res8.comm_ms > 0

    def test_single_gcd_no_comm(self, small_rmat):
        result = MultiGcdBFS(small_rmat, 1).run_batch([0])
        assert result.bytes_exchanged == 0
        assert result.comm_ms == 0.0

    def test_per_level_bytes_sum(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        result = MultiGcdBFS(social_graph, 4).run_batch([source])
        assert sum(result.level_comm_bytes) == result.bytes_exchanged
        assert sum(result.level_raw_bytes) == result.bytes_raw

    def test_comm_fraction_bounded(self, social_graph):
        result = MultiGcdBFS(social_graph, 4).run_batch(
            [int(np.argmax(social_graph.degrees))]
        )
        assert 0.0 <= result.comm_fraction < 1.0

    def test_slower_interconnect_more_comm_time(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        fab = MultiGcdBFS(social_graph, 4, interconnect=INFINITY_FABRIC).run_batch([source])
        ss = MultiGcdBFS(social_graph, 4, interconnect=SLINGSHOT).run_batch([source])
        assert ss.comm_ms > fab.comm_ms
        assert np.array_equal(fab.levels, ss.levels)

    def test_bad_num_gcds(self, small_rmat):
        with pytest.raises(PartitionError):
            MultiGcdBFS(small_rmat, 0)

    def test_gteps_positive(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        eng = MultiGcdBFS(small_rmat, 2)
        eng.run_batch([source])  # warm-up
        steady = eng.run_batch([source])
        assert steady.gteps > 0


class TestDirectionOptimized:
    """Distributed bottom-up via bitmap allgather (direction_alpha)."""

    def test_correctness(self, small_rmat):
        from repro.graph.stats import bfs_levels_reference

        source = int(np.argmax(small_rmat.degrees))
        result = MultiGcdBFS(small_rmat, 4, direction_alpha=0.1).run_batch([source])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(small_rmat, source)
        )

    def test_correctness_directed(self):
        from repro.graph.generators import rmat
        from repro.graph.stats import bfs_levels_reference

        graph = rmat(9, 6, seed=4, symmetrize=False)
        source = int(np.argmax(graph.degrees))
        result = MultiGcdBFS(graph, 3, direction_alpha=0.1).run_batch([source])
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(graph, source)
        )

    def test_less_communication_at_peak(self, social_graph):
        """The bitmap allgather is a fixed |V|/8-byte exchange; at peak
        levels it undercuts the frontier-proportional all-to-all."""
        source = int(np.argmax(social_graph.degrees))
        td = MultiGcdBFS(social_graph, 4)
        td.run_batch([source])
        plain = td.run_batch([source])
        do = MultiGcdBFS(social_graph, 4, direction_alpha=0.1)
        do.run_batch([source])
        optimized = do.run_batch([source])
        assert optimized.bytes_exchanged < plain.bytes_exchanged
        assert np.array_equal(optimized.levels, plain.levels)

    def test_faster_at_peak(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        from repro.experiments.common import scaled_device

        dev = scaled_device(social_graph)
        td = MultiGcdBFS(social_graph, 4, device=dev)
        td.run_batch([source])
        do = MultiGcdBFS(social_graph, 4, device=dev, direction_alpha=0.1)
        do.run_batch([source])
        assert do.run_batch([source]).elapsed_ms < td.run_batch([source]).elapsed_ms

    @pytest.mark.parametrize("codec, pinned", [
        (False, (20.10414499313151, 0.01602672, 1888, 1888,
                 [1108, 390, 390, 0], {})),
        (True, (20.104126613131506, 0.016006740000000002, 889, 10408,
                [109, 390, 390, 0], {"sparse": 0, "bitmap": 27})),
    ], ids=["raw", "codec"])
    def test_mixed_direction_run_is_pinned(self, small_rmat, codec, pinned):
        """Exact modelled cost, bytes and wire formats of a one-source
        pod batch whose peak levels go bottom-up. No regression fingerprint
        covers this path, so host-side rewrites of either level kind
        must leave every number here unchanged."""
        source = int(np.argmax(small_rmat.degrees))
        result = MultiGcdBFS(
            small_rmat, 4, direction_alpha=0.05,
            codec=codec,
        ).run_batch([source])
        assert result.directions == (
            "top_down", "bottom_up", "bottom_up", "top_down",
        )
        assert np.array_equal(
            result.levels[0], bfs_levels_reference(small_rmat, source)
        )
        formats = {}
        for level in result.level_formats:
            for fmt, n in level.items():
                formats[fmt] = formats.get(fmt, 0) + n
        assert (
            result.elapsed_ms, result.comm_ms, result.bytes_exchanged,
            result.bytes_raw, list(result.level_comm_bytes), formats,
        ) == pinned

    def test_alpha_validation(self, small_rmat):
        with pytest.raises(PartitionError):
            MultiGcdBFS(small_rmat, 2, direction_alpha=0.0)
        with pytest.raises(PartitionError):
            MultiGcdBFS(small_rmat, 2, direction_alpha=1.5)

    def test_alpha_one_never_triggers(self, small_rmat):
        """ratio can never exceed 1, so alpha=1 degenerates to pure
        top-down with identical byte counts."""
        source = int(np.argmax(small_rmat.degrees))
        plain = MultiGcdBFS(small_rmat, 2).run_batch([source])
        never = MultiGcdBFS(small_rmat, 2, direction_alpha=1.0).run_batch([source])
        assert never.bytes_exchanged == plain.bytes_exchanged


class TestStraggler:
    """Bulk-synchronous sensitivity to one degraded member.

    A ``latency`` rule on ``gcd.launch`` that fires once, on the
    ``after``-th launch visit, slows exactly one member's launch. A cold
    1D pod's first level launches every member in member order, so
    ``after=g`` degrades member ``g``'s first launch."""

    @staticmethod
    def _straggler(member: int, factor: float = 4.0):
        return FaultPlan(seed=0, name="straggler", rules=(
            FaultRule(site="gcd.launch", kind="latency", magnitude=factor,
                      after=member, max_triggers=1),
        )).injector()

    def test_one_straggler_slows_whole_run(self, social_graph):
        source = int(np.argmax(social_graph.degrees))
        base = MultiGcdBFS(social_graph, 4).run_batch([source])
        slow = MultiGcdBFS(
            social_graph, 4, injector=self._straggler(2)
        ).run_batch([source])
        assert slow.elapsed_ms > base.elapsed_ms
        assert np.array_equal(slow.levels, base.levels)

    def test_slowdown_bounded_by_factor(self, social_graph):
        """One 4x straggler cannot slow compute more than 4x."""
        source = int(np.argmax(social_graph.degrees))
        base = MultiGcdBFS(social_graph, 4).run_batch([source])
        slow = MultiGcdBFS(
            social_graph, 4, injector=self._straggler(0)
        ).run_batch([source])
        assert base.compute_ms < slow.compute_ms <= 4.0 * base.compute_ms + 1e-9


class TestOneWarmup:
    """A pod's members warm up in parallel: a cold pod pays the
    first-launch warm-up once, however many members launch later."""

    GRAPH = rmat(12, 8, seed=2)

    @pytest.mark.parametrize("engine, gcds", [
        (MultiGcdBFS, 2), (MultiGcdBFS, 4), (MultiGcdBFS, 8),
        (Grid2dBFS, 4), (Grid2dBFS, 9),
    ])
    def test_cold_minus_warm_is_one_warmup(self, engine, gcds):
        pod = engine(self.GRAPH, gcds)
        cold = pod.run_batch([0])
        warm = pod.run_batch([0])
        assert cold.paid_warmup and not warm.paid_warmup
        assert cold.elapsed_ms - warm.elapsed_ms == pytest.approx(
            MI250X_GCD.first_launch_warmup_ms, abs=1e-9
        )

    def test_aborted_first_launch_warms_nobody(self):
        """A fault aborts the first launch before any member launched;
        the quiesce that follows steps the pod but warms nobody, so the
        replay pays the one warm-up."""
        abort = FaultPlan(seed=0, name="abort-first", rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch", after=0,
                      max_triggers=1),
        )).injector()
        clean = MultiGcdBFS(self.GRAPH, 4).run_batch([0])
        faulted = MultiGcdBFS(self.GRAPH, 4, injector=abort).run_batch([0])
        assert faulted.level_restarts == 1
        assert 0.0 < faulted.elapsed_ms - clean.elapsed_ms < 1.0


class TestRunBatch:
    """The serving layer's batch entry point."""

    def test_batch_matches_oracle_and_solo_runs(self, small_rmat):
        engine = MultiGcdBFS(small_rmat, 4)
        sources = np.array([0, 3, 17, 42], dtype=np.int64)
        batch = engine.run_batch(sources)
        assert batch.num_gcds == 4
        for s in sources.tolist():
            assert np.array_equal(
                batch.levels_of(s), bfs_levels_reference(small_rmat, s)
            )

    def test_batch_costs_less_than_its_solo_runs(self, small_rmat):
        # One bit-parallel traversal serves every source: for k >= 2 it
        # costs less than the sources' solo runs back to back.
        engine = MultiGcdBFS(small_rmat, 2)
        sources = np.array([1, 9], dtype=np.int64)
        engine.run_batch([0])  # warm the members, as the batch below finds them
        solo = [engine.run_batch([int(s)]) for s in sources]
        batch = engine.run_batch(sources)
        assert batch.elapsed_ms < sum(r.elapsed_ms for r in solo)
        assert batch.traversed_edges == sum(r.traversed_edges for r in solo)
        assert batch.sharing_factor >= 1.0
        assert batch.comm_ms + batch.compute_ms <= batch.elapsed_ms + 1e-9

    def test_straggler_slows_the_batch_not_its_answers(self, social_graph):
        # Each level waits for the slowest member: one 4x launch on
        # member 0 (see TestStraggler).
        sources = np.array([0, 1, 2], dtype=np.int64)
        base = MultiGcdBFS(social_graph, 4).run_batch(sources)
        slow = MultiGcdBFS(
            social_graph, 4, injector=TestStraggler._straggler(0)
        ).run_batch(sources)
        assert base.compute_ms < slow.compute_ms <= 4.0 * base.compute_ms + 1e-9
        assert np.array_equal(slow.levels, base.levels)

    def test_batch_validation_is_typed(self, small_rmat):
        from repro.errors import BatchSourceError

        engine = MultiGcdBFS(small_rmat, 2)
        n = small_rmat.num_vertices
        with pytest.raises(BatchSourceError, match="distinct"):
            engine.run_batch(np.array([4, 4]))
        with pytest.raises(BatchSourceError, match="out of range"):
            engine.run_batch(np.array([n]))
        with pytest.raises(BatchSourceError):
            engine.run_batch(np.array([], dtype=np.int64))

    def test_unknown_source_lookup_raises(self, small_rmat):
        from repro.errors import TraversalError

        batch = MultiGcdBFS(small_rmat, 2).run_batch(np.array([0, 1]))
        with pytest.raises(TraversalError, match="not in this batch"):
            batch.levels_of(99)
