"""Cluster scale-out benchmark: replica count vs per-QoS tail latency.

Replays one open-loop multi-tenant trace (4 tenants, 70% interactive)
through clusters of 1/2/4/8 replicas — with a seeded replica-death
storm riding along — and reports per-QoS tail latency, placement
balance, steal counts and death-recovery cost at every point. Every
point is checked bit-identical against a fault-free single
:class:`~repro.service.runtime.BFSService` replay of the same trace:
sharding, stealing and replica deaths change cost, never answers.

This file is the one recorder of ``BENCH_cluster_scaleout.json`` at
the repo root and the home of its gates; to sweep another
configuration, call :func:`repro.cluster.run_scaleout_sweep` directly.
``tests/cluster/test_differential.py`` runs a small sweep in tier-1.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_cluster_scaleout.py

or under the bench harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster_scaleout.py -s
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster import death_plan, run_scaleout_sweep
from repro.metrics.results_io import save_results
from repro.metrics.tables import render_table

REPLICAS = (1, 2, 4, 8)
SPECS = ("rmat:10", "rmat:11", "rmat:12")
NUM_QUERIES = 160
SEED = 5
TENANTS = 4
DEATH_SEED = 1
DEATH_PROBABILITY = 0.05
RESTART_MS = 150.0

_OUT = Path(__file__).resolve().parents[1] / "BENCH_cluster_scaleout.json"


def _sizes() -> dict[str, int]:
    # R-MAT at scale S has exactly 2**S vertices; no need to build the
    # graphs just to size the source draws.
    return {spec: 1 << int(spec.split(":")[1]) for spec in SPECS}


def run_cluster_scaleout() -> list[dict]:
    summaries = run_scaleout_sweep(
        REPLICAS,
        graphs=SPECS,
        num_vertices=_sizes(),
        num_queries=NUM_QUERIES,
        seed=SEED,
        tenants=TENANTS,
        mean_gap_ms=1.0,
        burst=8,
        fault_plan=death_plan(
            seed=DEATH_SEED,
            probability=DEATH_PROBABILITY,
            restart_ms=RESTART_MS,
            max_triggers=2,
        ),
        router_kwargs={"workers": 2, "window_ms": 5.0, "seed": SEED},
    )
    save_results(summaries, _OUT)
    return summaries


def _render(summaries: list[dict]) -> str:
    rows = []
    for s in summaries:
        rows.append([
            s["replicas"],
            s["queries_served"],
            f"{s.get('qos_interactive_p99_ms', 0.0):.3f}",
            f"{s.get('qos_batch_p99_ms', 0.0):.3f}",
            f"{s['balance_ratio']:.2f}",
            s["steals"],
            s["deaths"],
            s["redispatched_queries"],
            s["replaced_graphs"],
            f"{s['cluster_gteps']:.3f}",
            "yes" if s["bit_identical"] else "NO",
        ])
    return render_table(
        ["replicas", "served", "int p99 ms", "batch p99 ms", "balance",
         "steals", "deaths", "redisp", "replaced", "GTEPS", "identical"],
        rows,
        title=(
            f"cluster scale-out: {NUM_QUERIES} queries, {TENANTS} tenants "
            f"over {list(SPECS)} (death storm seed {DEATH_SEED}, "
            f"p={DEATH_PROBABILITY}, restart {RESTART_MS:.0f} ms)"
        ),
    )


def test_cluster_scaleout():
    summaries = run_cluster_scaleout()
    print()
    print(_render(summaries))
    print(f"wrote {_OUT.name}")
    assert [s["replicas"] for s in summaries] == list(REPLICAS)
    # Bit-identical at every sweep point, deaths included.
    assert all(s["bit_identical"] for s in summaries)
    # The storm actually fires somewhere in the multi-replica points
    # (a single replica never dies — the last live one is protected).
    assert summaries[0]["deaths"] == 0
    assert sum(s["deaths"] for s in summaries[1:]) > 0
    # Both QoS classes saw traffic at every point.
    for s in summaries:
        assert s.get("qos_interactive_served", 0) > 0
        assert s.get("qos_batch_served", 0) > 0


def main() -> int:
    summaries = run_cluster_scaleout()
    print(_render(summaries))
    print(f"wrote {_OUT.name}")
    return 0 if all(s["bit_identical"] for s in summaries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
