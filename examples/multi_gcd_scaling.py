#!/usr/bin/env python
"""Distributed BFS across multiple simulated GCDs.

The paper positions its single-GCD result as "the basis for distributed
BFS on AMD GPUs" — Frontier's Graph500 entry uses 9,248 nodes x 8 GCDs.
This example runs the 1D-partitioned bulk-synchronous extension over
1..8 simulated GCDs, once over intra-node Infinity Fabric and once over
inter-node Slingshot, and reports where the time goes. Each traversal
is a one-source batch: the pods serve any number of sources as one
bit-parallel traversal.

Run:  python examples/multi_gcd_scaling.py
"""

from repro import MultiGcdBFS, rmat
from repro.experiments.common import scaled_device
from repro.graph import pick_sources
from repro.metrics.tables import render_table
from repro.multigcd import INFINITY_FABRIC, SLINGSHOT, Grid2dBFS, TwoTierInterconnect


def main() -> None:
    graph = rmat(16, 16, seed=0)
    device = scaled_device(graph)
    batch = pick_sources(graph, 1, seed=1)
    print(f"Graph: {graph}\n")

    for label, interconnect in [
        ("Infinity Fabric (intra-node GCD links)", INFINITY_FABRIC),
        ("Slingshot (inter-node NICs)", SLINGSHOT),
    ]:
        rows = []
        for p in (1, 2, 4, 8):
            engine = MultiGcdBFS(
                graph, p, device=device, interconnect=interconnect
            )
            engine.run_batch(batch)  # warm-up
            result = engine.run_batch(batch)  # steady
            rows.append(
                [
                    p,
                    f"{result.elapsed_ms:.3f}",
                    f"{result.compute_ms:.3f}",
                    f"{result.comm_ms:.3f}",
                    f"{result.comm_fraction * 100:.1f}%",
                    f"{result.bytes_exchanged / 1024:.0f}",
                    f"{result.gteps:.2f}",
                ]
            )
        print(label)
        print(
            render_table(
                ["GCDs", "total ms", "compute ms", "comm ms",
                 "comm %", "KB moved", "GTEPS"],
                rows,
            )
        )
        print()

    # ------------------------------------------------------------------
    print("Decomposition study at 16 GCDs (2 Frontier nodes):")
    rows = []
    for label, factory in [
        ("1D row partition", lambda: MultiGcdBFS(
            graph, 16, device=device, interconnect=TwoTierInterconnect())),
        ("1D + direction opt (bitmap allgather)", lambda: MultiGcdBFS(
            graph, 16, device=device, interconnect=TwoTierInterconnect(),
            direction_alpha=0.1)),
        ("2D checkerboard (4x4)", lambda: Grid2dBFS(
            graph, 16, device=device, interconnect=TwoTierInterconnect())),
    ]:
        engine = factory()
        engine.run_batch(batch)  # warm-up
        r = engine.run_batch(batch)  # steady
        rows.append([label, f"{r.elapsed_ms:.3f}", f"{r.comm_fraction * 100:.1f}%",
                     f"{r.bytes_exchanged / 1024:.0f}"])
    print(render_table(["Decomposition", "total ms", "comm %", "KB moved"], rows))
    print()

    print(
        "At this (deliberately small) scale the per-level launch and sync\n"
        "floors dominate, so strong scaling is modest — exactly the regime\n"
        "Graph500 small-graph submissions struggle with. The communication\n"
        "fraction growing with GCD count and interconnect latency is the\n"
        "signal the distributed design must engineer against; direction\n"
        "optimisation and the 2D decomposition are the standard answers."
    )


if __name__ == "__main__":
    main()
