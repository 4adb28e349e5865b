"""Cross-engine and whole-pipeline integration tests."""

import numpy as np
import pytest

from repro import (
    XBFS,
    EnterpriseBFS,
    GunrockBFS,
    HierarchicalBFS,
    MultiGcdBFS,
    SsspBFS,
    rmat,
)
from repro.baselines.serial import serial_bfs
from repro.graph import load, pick_sources, save_csr_binary, load_csr_binary
from repro.graph.stats import bfs_levels_reference
from repro.metrics.efficiency import efficiency_report
from repro.experiments.common import scaled_device
from repro.gcd.device import MI250X_GCD


class TestCrossEngineAgreement:
    """Six independent engines plus two oracles must all agree."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_engines_agree_on_rmat(self, seed):
        graph = rmat(11, 12, seed=seed)
        source = int(pick_sources(graph, 1, seed=seed)[0])
        reference = bfs_levels_reference(graph, source)
        assert np.array_equal(serial_bfs(graph, source), reference)
        engines = [
            XBFS(graph),
            XBFS(graph, rearrange=True),
            GunrockBFS(graph),
            EnterpriseBFS(graph),
            HierarchicalBFS(graph),
            SsspBFS(graph),
        ]
        for engine in engines:
            result = engine.run(source)
            assert np.array_equal(result.levels, reference), type(engine).__name__
        pod = MultiGcdBFS(graph, 4).run_batch([source])
        assert np.array_equal(pod.levels[0], reference)

    @pytest.mark.parametrize("key", ["LJ", "DB"])
    def test_engines_agree_on_dataset_stand_ins(self, key):
        graph = load(key, 512, seed=0)
        source = int(pick_sources(graph, 1, seed=3)[0])
        reference = bfs_levels_reference(graph, source)
        for engine in (XBFS(graph), GunrockBFS(graph)):
            assert np.array_equal(engine.run(source).levels, reference)


class TestPipelineRoundTrip:
    def test_generate_save_load_traverse(self, tmp_path):
        """The full user pipeline: generate, persist, reload, run."""
        graph = rmat(10, 8, seed=5)
        path = tmp_path / "g.csrbin"
        save_csr_binary(graph, path)
        reloaded = load_csr_binary(path)
        source = int(pick_sources(reloaded, 1, seed=0)[0])
        result = XBFS(reloaded).run(source)
        assert np.array_equal(
            result.levels, bfs_levels_reference(graph, source)
        )


class TestDeterminism:
    def test_full_run_reproducible(self):
        graph = rmat(11, 12, seed=9)
        source = int(pick_sources(graph, 1, seed=1)[0])
        a = XBFS(graph).run(source)
        b = XBFS(graph).run(source)
        assert a.strategies == b.strategies
        assert [r.fetch_kb for r in a.records] == [r.fetch_kb for r in b.records]
        assert a.elapsed_ms == b.elapsed_ms


class TestPaperHeadline:
    """The end-to-end claims of the abstract, at reduced scale."""

    @pytest.fixture(scope="class")
    def study(self):
        # The L2 is down-scaled with the graph (see
        # repro.experiments.common.scaled_device): with a full-size
        # cache a 1/64-scale status array is L2-resident and the
        # strategy trade-offs the paper measures disappear.
        graph = rmat(16, 16, seed=0)
        sources = pick_sources(graph, 6, seed=1)
        return graph, sources, scaled_device(graph)

    def test_xbfs_faster_than_every_baseline(self, study):
        graph, sources, device = study
        xbfs = XBFS(graph, device=device, rearrange=True).run_many(sources).steady_gteps
        for cls in (GunrockBFS, EnterpriseBFS, HierarchicalBFS, SsspBFS):
            baseline = cls(graph, device=device).run_many(sources).steady_gteps
            assert xbfs > baseline, cls.__name__

    def test_adaptive_beats_any_single_strategy(self, study):
        """The point of XBFS: adaptivity beats every fixed strategy."""
        graph, sources, device = study
        adaptive = XBFS(graph, device=device).run_many(sources).steady_gteps
        for forced in ("scan_free", "single_scan", "bottom_up"):
            fixed = XBFS(graph, device=device).run_many(
                sources, force_strategy=forced
            ).steady_gteps
            assert adaptive >= fixed * 0.999, forced

    def test_rearrangement_helps_on_rmat(self, study):
        graph, sources, device = study
        plain = XBFS(graph, device=device).run_many(sources).steady_gteps
        rearr = XBFS(graph, device=device, rearrange=True).run_many(sources).steady_gteps
        assert rearr >= plain * 0.999

    def test_modeled_efficiency_below_peak(self, study):
        """Sanity bound: the modelled run can never exceed the device's
        peak bandwidth."""
        graph, sources, device = study
        batch = XBFS(graph, device=device).run_many(sources)
        run = batch.steady_runs[0]
        fetch_bytes = sum(r.fetch_kb for r in run.records) * 1024
        report = efficiency_report(
            graph,
            fetch_bytes=fetch_bytes,
            runtime_ms=run.elapsed_ms,
            device=device,
        )
        assert 0 < report.hardware_efficiency < 1.0

    def test_proactive_update_reduces_work(self, study):
        """The bottom-up proactive update must not slow the adaptive
        run (it removes next-level scan work)."""
        graph, sources, device = study
        on = XBFS(graph, device=device, proactive=True).run_many(sources).steady_gteps
        off = XBFS(graph, device=device, proactive=False).run_many(sources).steady_gteps
        assert on >= off * 0.98
