"""Batch-width benchmark: the bitmap linear-algebra engine vs coalesced
concurrent batches.

The concurrent iBFS engine caps at 64 sources — one status bit per
source in a 64-bit word — so a wider batch must be served as
``ceil(k/64)`` sequential 64-source dispatches. The linear-algebra
engine packs the source axis 64-per-word and runs the whole batch as
one masked CSR×matrix product per level, so its host work per level is
a handful of word-wide vector ops whatever the width.

This bench runs 64/128/256/512-source batches of distinct sources on
one R-MAT graph through both paths and reports:

* **host ms** — wall-clock of the host simulation (best of N), the
  figure the vectorized bitmap kernels are supposed to win;
* **modelled ms** — the GCD cost model's virtual elapsed;
* host throughput in sources/s and modelled GTEPS;
* a bit-identical check of every source's level array across paths.

It also records the modelled grid (:func:`modelled_grid`): warm
modelled ms of ConcurrentBFS, LinAlgBatchBFS and a 4-GCD
``MultiGcdBFS`` pod on rmat:12/14/15/16 at k = 1, 8, 64 and 256
sources, drawn with ``np.random.default_rng(3)`` from the vertices
with out-edges. The no-cliff gate (:func:`cliffs`) asserts that no
engine's modelled ms per source rises with k on any graph: every
engine charges the same streams for the same host work, so a wider
batch only shares more.

Results land in ``BENCH_linalg_batch.json`` at the repo root: one row
per batch width, then one per grid cell.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_linalg_batch.py

or under the bench harness::

    PYTHONPATH=src python -m pytest benchmarks/bench_linalg_batch.py -s
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.cli import parse_graph_spec
from repro.graph.generators import rmat
from repro.graph.stats import pick_sources
from repro.metrics.results_io import save_results
from repro.metrics.tables import render_table
from repro.multigcd.distributed_bfs import MultiGcdBFS
from repro.xbfs.concurrent import MAX_CONCURRENT, ConcurrentBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS

SCALE = 13
EDGE_FACTOR = 8
WIDTHS = (64, 128, 256, 512)
REPEATS = 7
SEED = 17

#: The modelled grid: graph scales, batch widths and the pod's GCDs.
GRID_SCALES = (12, 14, 15, 16)
GRID_WIDTHS = (1, 8, 64, 256)
GRID_GCDS = 4

_OUT = Path(__file__).resolve().parents[1] / "BENCH_linalg_batch.json"


def _best_of(fn, repeats: int = REPEATS):
    """Best host wall-clock of ``repeats`` calls, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _concurrent_chunks(engine: ConcurrentBFS, sources: np.ndarray):
    """Serve one wide batch as sequential 64-source dispatches — the
    only shape the 64-bit status word admits."""
    results = []
    for start in range(0, sources.size, MAX_CONCURRENT):
        results.append(engine.run(sources[start:start + MAX_CONCURRENT]))
    return results


def modelled_grid(scales=GRID_SCALES, widths=GRID_WIDTHS) -> list[dict]:
    """Warm modelled ms of each engine per (graph, k) cell.

    Each cell is a second run on a warm engine at the default device
    and config; ConcurrentBFS sits out cells over its 64-source cap."""
    cells = []
    for scale in scales:
        graph = parse_graph_spec(f"rmat:{scale}")
        pool = np.flatnonzero(graph.degrees)
        sources = np.random.default_rng(3).choice(pool, max(widths), replace=False)
        engines = {
            "concurrent": ConcurrentBFS(graph).run,
            "linalg": LinAlgBatchBFS(graph).run,
            "pod": MultiGcdBFS(graph, GRID_GCDS).run_batch,
        }
        for k in widths:
            cell = {"name": f"rmat:{scale}/k{k}", "graph": f"rmat:{scale}", "sources": k}
            for name, run in engines.items():
                if name == "concurrent" and k > MAX_CONCURRENT:
                    continue
                run(sources[:k])
                cell[f"modelled_ms_{name}"] = run(sources[:k]).elapsed_ms
            cells.append(cell)
    return cells


def cliffs(cells: list[dict]) -> list[str]:
    """Every (engine, graph, k) whose modelled ms per source is higher
    than at the next narrower width."""
    found = []
    last: dict[tuple[str, str], tuple[int, float]] = {}
    for cell in cells:
        for key, ms in cell.items():
            if not key.startswith("modelled_ms_"):
                continue
            engine = key[len("modelled_ms_"):]
            per_source = ms / cell["sources"]
            prev = last.get((engine, cell["graph"]))
            if prev is not None and per_source > prev[1]:
                found.append(
                    f"{engine} on {cell['graph']}: {prev[1]:.5f} ms/source at "
                    f"k={prev[0]} -> {per_source:.5f} at k={cell['sources']}"
                )
            last[(engine, cell["graph"])] = (cell["sources"], per_source)
    return found


def run_linalg_bench() -> list[dict]:
    graph = rmat(SCALE, EDGE_FACTOR, seed=SEED)
    sources = pick_sources(graph, max(WIDTHS), seed=SEED)
    assert sources.size == max(WIDTHS), "graph too small for the widest batch"

    linalg = LinAlgBatchBFS(graph)
    concurrent = ConcurrentBFS(graph)
    # Pay both engines' warmup outside the timed region.
    linalg.run(sources[:2])
    concurrent.run(sources[:2])

    summaries = []
    for width in WIDTHS:
        batch = sources[:width]
        host_la, res_la = _best_of(lambda: linalg.run(batch))
        host_cc, res_cc = _best_of(lambda: _concurrent_chunks(concurrent, batch))

        cc_levels = np.vstack([r.levels for r in res_cc])
        identical = bool(np.array_equal(res_la.levels, cc_levels))
        modelled_cc = sum(r.elapsed_ms for r in res_cc)
        solo_edges = sum(r.solo_edges for r in res_cc)
        summaries.append({
            "name": f"k{width}",
            "sources": width,
            "chunks_concurrent": -(-width // MAX_CONCURRENT),
            "host_ms_linalg": host_la * 1e3,
            "host_ms_concurrent": host_cc * 1e3,
            "host_speedup": host_cc / host_la if host_la > 0 else 0.0,
            "host_sources_per_s_linalg": width / host_la,
            "host_sources_per_s_concurrent": width / host_cc,
            "modelled_ms_linalg": res_la.elapsed_ms,
            "modelled_ms_concurrent": modelled_cc,
            "modelled_gteps_linalg": res_la.gteps,
            "modelled_gteps_concurrent": (
                solo_edges / (modelled_cc * 1e-3) / 1e9 if modelled_cc else 0.0
            ),
            "sharing_factor_linalg": res_la.sharing_factor,
            "directions_pull": res_la.directions.count("la_pull"),
            "directions_push": res_la.directions.count("la_push"),
            "bit_identical": int(identical),
        })
    return summaries


def run_all() -> tuple[list[dict], list[dict]]:
    """The batch-width rows and the modelled grid, saved together."""
    summaries, cells = run_linalg_bench(), modelled_grid()
    save_results(summaries + cells, _OUT)
    return summaries, cells


def _render(summaries: list[dict]) -> str:
    rows = []
    for s in summaries:
        rows.append([
            s["name"],
            s["chunks_concurrent"],
            f"{s['host_ms_linalg']:.1f}",
            f"{s['host_ms_concurrent']:.1f}",
            f"{s['host_speedup']:.2f}x",
            f"{s['modelled_ms_linalg']:.3f}",
            f"{s['modelled_ms_concurrent']:.3f}",
            f"{s['sharing_factor_linalg']:.1f}",
            "yes" if s["bit_identical"] else "NO",
        ])
    return render_table(
        ["batch", "chunks", "la host ms", "cc host ms", "host speedup",
         "la model ms", "cc model ms", "sharing", "identical"],
        rows,
        title=(
            f"linalg-batch vs chunked concurrent on rmat:{SCALE}:"
            f"{EDGE_FACTOR} (host wall-clock best of {REPEATS})"
        ),
    )


def _render_grid(cells: list[dict]) -> str:
    engines = ("concurrent", "linalg", "pod")
    rows = [
        [c["graph"], c["sources"]]
        + [f"{c[f'modelled_ms_{e}']:.3f}" if f"modelled_ms_{e}" in c else "—"
           for e in engines]
        for c in cells
    ]
    return render_table(
        ["graph", "k", *engines], rows,
        title=f"modelled ms, warm (pod: {GRID_GCDS} GCDs)",
    )


def test_linalg_batch_bench():
    summaries, cells = run_all()
    print()
    print(_render(summaries))
    print(_render_grid(cells))
    print(f"wrote {_OUT.name}")
    # No engine's modelled ms per source may rise with the batch width.
    assert not cliffs(cells), cliffs(cells)
    # Answers must agree bit-for-bit at every width...
    assert all(s["bit_identical"] for s in summaries)
    by_width = {s["sources"]: s for s in summaries}
    # ...and the bitmap engine must win on host throughput once the
    # batch outgrows several 64-source chunks.
    for width in (256, 512):
        assert by_width[width]["host_speedup"] > 1.0, (
            f"linalg slower than chunked concurrent at {width} sources"
        )


def main() -> int:
    summaries, cells = run_all()
    print(_render(summaries))
    print(_render_grid(cells))
    print(f"wrote {_OUT.name}")
    for cliff in cliffs(cells):
        print(f"CLIFF: {cliff}")
    ok = all(s["bit_identical"] for s in summaries) and all(
        s["host_speedup"] > 1.0 for s in summaries if s["sources"] >= 256
    ) and not cliffs(cells)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
