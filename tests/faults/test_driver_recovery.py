"""Checkpoint/restart recovery inside the BFS engines."""

import numpy as np
import pytest

from repro.errors import RecoveryExhaustedError
from repro.faults import FaultPlan, FaultRule, RecoveryPolicy
from repro.graph.stats import bfs_levels_reference
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS


def _bounded_plan(kind="kernel_launch", triggers=3, seed=11, site="gcd.launch"):
    return FaultPlan(seed=seed, rules=(
        FaultRule(site=site, kind=kind, probability=0.5,
                  max_triggers=triggers),
    ))


class TestXBFSRecovery:
    @pytest.mark.parametrize("force", [None, "scan_free", "single_scan",
                                       "bottom_up"])
    def test_recovered_levels_identical(self, small_rmat, force):
        source = int(np.argmax(small_rmat.degrees))
        clean = XBFS(small_rmat).run(source, force_strategy=force)
        plan = _bounded_plan()
        result = XBFS(small_rmat, injector=plan.injector()).run(
            source, force_strategy=force
        )
        assert result.level_restarts > 0
        assert np.array_equal(result.levels, clean.levels)

    def test_recovered_parents_identical(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        clean = XBFS(small_rmat).run(source, record_parents=True)
        plan = _bounded_plan(kind="memory_corruption")
        result = XBFS(small_rmat, injector=plan.injector()).run(
            source, record_parents=True
        )
        assert result.level_restarts > 0
        assert np.array_equal(result.levels, clean.levels)
        assert np.array_equal(result.parents, clean.parents)

    def test_recovery_is_paid_for(self, small_rmat):
        """Replayed kernel time lands in elapsed_ms, never hidden."""
        source = int(np.argmax(small_rmat.degrees))
        clean = XBFS(small_rmat).run(source)
        plan = _bounded_plan()
        faulted = XBFS(small_rmat, injector=plan.injector()).run(source)
        assert faulted.level_restarts > 0
        assert faulted.elapsed_ms > clean.elapsed_ms

    def test_deterministic_replay(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        plan = _bounded_plan(seed=77)
        a = XBFS(small_rmat, injector=plan.injector()).run(source)
        b = XBFS(small_rmat, injector=plan.injector()).run(source)
        assert a.level_restarts == b.level_restarts
        assert a.elapsed_ms == b.elapsed_ms
        assert np.array_equal(a.levels, b.levels)

    def test_unrecoverable_raises_typed_error(self, fig1_graph):
        """An unbounded always-fire rule outlasts any restart budget;
        the failure must be the typed error, never a wrong answer."""
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch"),
        ))
        engine = XBFS(fig1_graph, injector=plan.injector(),
                      recovery=RecoveryPolicy(max_level_restarts=2))
        with pytest.raises(RecoveryExhaustedError):
            engine.run(0)

    def test_restart_budget_is_configurable(self, fig1_graph):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch",
                      max_triggers=4),
        ))
        generous = XBFS(fig1_graph, injector=plan.injector(),
                        recovery=RecoveryPolicy(max_level_restarts=10))
        clean = bfs_levels_reference(fig1_graph, 0)
        assert np.array_equal(generous.run(0).levels, clean)

    def test_latency_faults_change_time_not_answers(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        clean = XBFS(small_rmat).run(source)
        plan = FaultPlan(seed=5, rules=(
            FaultRule(site="gcd.*", kind="latency", probability=0.5,
                      magnitude=6.0),
        ))
        slow = XBFS(small_rmat, injector=plan.injector()).run(source)
        assert slow.level_restarts == 0
        assert slow.elapsed_ms > clean.elapsed_ms
        assert np.array_equal(slow.levels, clean.levels)


class TestConcurrentRecovery:
    def test_recovered_batch_identical(self, small_rmat):
        sources = np.argsort(small_rmat.degrees)[-8:].astype(np.int64)
        clean = ConcurrentBFS(small_rmat).run(sources)
        plan = _bounded_plan(triggers=4, seed=21)
        faulted = ConcurrentBFS(
            small_rmat, injector=plan.injector()
        ).run(sources)
        assert faulted.level_restarts > 0
        assert np.array_equal(faulted.levels, clean.levels)
        assert faulted.union_edges == clean.union_edges
        assert faulted.solo_edges == clean.solo_edges

    def test_unrecoverable_batch_raises(self, fig1_graph):
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="gcd.launch", kind="memory_corruption"),
        ))
        engine = ConcurrentBFS(fig1_graph, injector=plan.injector(),
                               recovery=RecoveryPolicy(max_level_restarts=2))
        with pytest.raises(RecoveryExhaustedError):
            engine.run(np.array([0, 1], dtype=np.int64))


class TestMultiGcdFaults:
    def test_exchange_latency_degrades_comm_only(self, small_rmat):
        source = int(np.argmax(small_rmat.degrees))
        clean = MultiGcdBFS(small_rmat, 4).run_batch([source])
        plan = FaultPlan(seed=3, rules=(
            FaultRule(site="multigcd.exchange", kind="latency",
                      magnitude=5.0),
        ))
        slow = MultiGcdBFS(small_rmat, 4, injector=plan.injector()).run_batch([source])
        assert np.array_equal(slow.levels, clean.levels)
        assert slow.comm_ms == pytest.approx(5.0 * clean.comm_ms)
        assert slow.compute_ms == pytest.approx(clean.compute_ms)

    @pytest.mark.parametrize("pod", [MultiGcdBFS, Grid2dBFS])
    def test_one_source_replays_faulted_levels(self, small_rmat, pod):
        """A one-source batch is the per-vertex traversal, and it
        replays a level whose members' sync reports corruption."""
        source = int(np.argmax(small_rmat.degrees))
        plan = _bounded_plan(kind="memory_corruption", triggers=4, site="gcd.sync")
        engine = pod(small_rmat, 4, injector=plan.injector(),
                     recovery=RecoveryPolicy(max_level_restarts=8))
        result = engine.run_batch([source])
        assert result.level_restarts > 0
        assert np.array_equal(result.levels[0],
                              bfs_levels_reference(small_rmat, source))

    @pytest.mark.parametrize("pod", [MultiGcdBFS, Grid2dBFS])
    def test_endless_device_fault_surfaces_typed(self, fig1_graph, pod):
        """A fault on every launch outlasts the restart budget: the
        typed error, never wrong levels."""
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="gcd.launch", kind="kernel_launch"),
        ))
        engine = pod(fig1_graph, 2, injector=plan.injector())
        with pytest.raises(RecoveryExhaustedError):
            engine.run_batch([0])

    def test_batch_replays_faulted_levels(self, small_rmat):
        """A batch commits each level only after every member syncs, so
        sync-time memory corruption replays the level instead of
        failing the batch."""
        sources = np.array([0, 3, 17, 42], dtype=np.int64)
        clean = MultiGcdBFS(small_rmat, 4).run_batch(sources)
        plan = _bounded_plan(kind="memory_corruption", triggers=4, site="gcd.sync")
        engine = MultiGcdBFS(small_rmat, 4, injector=plan.injector(),
                             recovery=RecoveryPolicy(max_level_restarts=8))
        batch = engine.run_batch(sources)
        assert batch.level_restarts > 0
        for s in sources.tolist():
            assert np.array_equal(batch.levels_of(s), bfs_levels_reference(small_rmat, s))
        # Every replay is paid for on the pod clock.
        assert batch.elapsed_ms > clean.elapsed_ms
