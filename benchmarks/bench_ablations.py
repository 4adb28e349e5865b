"""Ablation benches for the design choices Section IV names.

Each test switches exactly one mechanism off (or back to its CUDA-era
setting) and reports the steady n-to-n effect, so every optimisation's
contribution is individually visible:

* no-frontier-generation hand-off (single-scan after bottom-up),
* bottom-up proactive next-level update (the Fig 4 v7→v8 effect),
* warp-centric workload balancing in bottom-up (the AMD regression),
* stream consolidation (3 CUDA-era streams vs 1),
* compiler choice for the bottom-up kernels (clang vs hipcc),
* batched concurrent traversal (iBFS-style) vs sequential n-to-n,
* multi-GCD strong scaling.
"""

from conftest import run_once

from repro.experiments.common import cached_rmat, scaled_device, sources_for
from repro.gcd.kernel import ExecConfig
from repro.metrics.tables import render_table
from repro.multigcd import MultiGcdBFS
from repro.xbfs import AdaptiveClassifier, ConcurrentBFS, XBFS


def _study(scale):
    graph = cached_rmat(scale.rmat_scale, 16, scale.seed)
    return graph, scaled_device(graph), sources_for(graph, scale, offset=20)


def test_ablation_no_gen(benchmark, scale):
    """The no-frontier-generation variant: on vs off."""
    graph, device, sources = _study(scale)

    def run():
        on = XBFS(graph, device=device).run_many(sources).steady_gteps
        off = XBFS(
            graph, device=device, classifier=AdaptiveClassifier(use_no_gen=False)
        ).run_many(sources).steady_gteps
        return on, off

    on, off = run_once(benchmark, run)
    print(f"\nno-gen ON: {on:.3f} GTEPS   no-gen OFF: {off:.3f} GTEPS "
          f"({(on / off - 1) * 100:+.1f}%)")
    assert on >= off * 0.999


def test_ablation_proactive_update(benchmark, scale):
    """The bottom-up proactive next-level update: on vs off."""
    graph, device, sources = _study(scale)

    def run():
        on = XBFS(graph, device=device, proactive=True).run_many(sources)
        off = XBFS(graph, device=device, proactive=False).run_many(sources)
        return on.steady_gteps, off.steady_gteps

    on, off = run_once(benchmark, run)
    print(f"\nproactive ON: {on:.3f} GTEPS   OFF: {off:.3f} GTEPS "
          f"({(on / off - 1) * 100:+.1f}%)")
    assert on >= off * 0.98


def test_ablation_bottom_up_balancing(benchmark, scale):
    """Warp-centric balancing in bottom-up: the CUDA-era setting hurts
    on 64-wide wavefronts (Section IV-A)."""
    graph, device, sources = _study(scale)

    def run():
        off = XBFS(graph, device=device).run_many(sources).steady_gteps
        on = XBFS(
            graph,
            device=device,
            config=ExecConfig(bottom_up_workload_balancing=True),
        ).run_many(sources).steady_gteps
        return off, on

    off, on = run_once(benchmark, run)
    print(f"\nbalancing OFF (AMD tuned): {off:.3f} GTEPS   "
          f"ON (CUDA-era): {on:.3f} GTEPS ({(off / on - 1) * 100:+.1f}% win)")
    assert off > on


def test_ablation_stream_consolidation(benchmark, scale):
    """One stream vs the CUDA design's three (Section IV-B)."""
    graph, device, sources = _study(scale)

    def run():
        one = XBFS(graph, device=device).run_many(sources)
        three = XBFS(
            graph, device=device, config=ExecConfig(num_streams=3)
        ).run_many(sources)
        sync_one = sum(r.sync_ms for r in one.steady_runs)
        sync_three = sum(r.sync_ms for r in three.steady_runs)
        return one.steady_gteps, three.steady_gteps, sync_one, sync_three

    one, three, sync_one, sync_three = run_once(benchmark, run)
    print(f"\n1 stream: {one:.3f} GTEPS (sync {sync_one:.3f} ms)   "
          f"3 streams: {three:.3f} GTEPS (sync {sync_three:.3f} ms)")
    assert sync_three > sync_one
    assert one >= three * 0.98


def test_ablation_compiler(benchmark, scale):
    """clang vs hipcc on the bottom-up kernels (the 17% register-
    pressure penalty)."""
    graph, device, sources = _study(scale)

    def run():
        clang = XBFS(
            graph, device=device, config=ExecConfig(compiler="clang")
        ).run_many(sources).steady_gteps
        hipcc = XBFS(
            graph, device=device, config=ExecConfig(compiler="hipcc")
        ).run_many(sources).steady_gteps
        return clang, hipcc

    clang, hipcc = run_once(benchmark, run)
    print(f"\nclang: {clang:.3f} GTEPS   hipcc: {hipcc:.3f} GTEPS "
          f"({(clang / hipcc - 1) * 100:+.1f}%)")
    assert clang >= hipcc


def test_ablation_concurrent_batch(benchmark, scale):
    """iBFS-style batched traversal vs sequential runs.

    The batch engine is top-down (bit-parallel), so the fair baseline
    is sequential *top-down* BFS (forced single-scan): the sharing
    factor then translates directly into wall time. Adaptive sequential
    XBFS is reported for context — its bottom-up phase can beat the
    batch at peak levels, which is why iBFS and direction-optimisation
    are complementary, not competing.
    """
    graph, device, sources = _study(scale)

    def run():
        td_engine = XBFS(graph, device=device)
        td = td_engine.run_many(sources, force_strategy="single_scan")
        td_ms = sum(r.elapsed_ms for r in td.steady_runs) * (
            len(sources) / max(1, len(td.steady_runs))
        )
        adaptive = XBFS(graph, device=device).run_many(sources)
        adaptive_ms = sum(r.elapsed_ms for r in adaptive.steady_runs) * (
            len(sources) / max(1, len(adaptive.steady_runs))
        )
        batch_engine = ConcurrentBFS(graph, device=device)
        batch_engine.run(sources)           # warm-up
        batch = batch_engine.run(sources)   # steady
        return td_ms, adaptive_ms, batch.elapsed_ms, batch.sharing_factor

    td_ms, adaptive_ms, batch_ms, sharing = run_once(benchmark, run)
    print(f"\nsequential top-down: {td_ms:.3f} ms   "
          f"sequential adaptive: {adaptive_ms:.3f} ms   "
          f"concurrent batch: {batch_ms:.3f} ms "
          f"(sharing factor {sharing:.2f}x)")
    assert batch_ms < td_ms
    assert sharing >= 1.0


def test_multigcd_strong_scaling(benchmark, scale):
    """Distributed BFS across 1..8 simulated GCDs (one-source batches)."""
    graph, device, sources = _study(scale)
    batch = [int(sources[0])]

    def run():
        rows = []
        for p in (1, 2, 4, 8):
            engine = MultiGcdBFS(graph, p, device=device)
            engine.run_batch(batch)  # warm-up
            result = engine.run_batch(batch)
            rows.append(
                (p, result.elapsed_ms, result.comm_fraction, result.gteps)
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        render_table(
            ["GCDs", "ms", "comm %", "GTEPS"],
            [[p, f"{ms:.3f}", f"{cf * 100:.1f}", f"{g:.2f}"] for p, ms, cf, g in rows],
            title="Multi-GCD strong scaling",
        )
    )
    comm = [cf for _, _, cf, _ in rows]
    assert comm[0] == 0.0
    assert all(b >= a for a, b in zip(comm, comm[1:]))


def test_ablation_bitmap_status(benchmark, scale):
    """The paper's 'bit status check' in the bottom-up expand: probing
    a 1-bit/vertex visited bitmap instead of the int32 level array."""
    graph, device, sources = _study(scale)

    def run():
        words = XBFS(graph, device=device).run_many(sources).steady_gteps
        bits = XBFS(
            graph, device=device, config=ExecConfig(bottom_up_bitmap=True)
        ).run_many(sources).steady_gteps
        return words, bits

    words, bits = run_once(benchmark, run)
    print(f"\nint32 status: {words:.3f} GTEPS   bitmap status: {bits:.3f} "
          f"GTEPS ({(bits / words - 1) * 100:+.1f}%)")
    assert bits >= words
