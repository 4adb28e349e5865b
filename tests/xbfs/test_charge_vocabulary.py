"""One charge vocabulary across the bitmap engines and both pods.

Every batched engine builds its level launches from one helper
(:meth:`repro.xbfs.bitmap.BitmapBatchEngine._launch`), so each stream
kind must charge the bytes the host loop's own arrays imply, whichever
engine issued it. These tests capture every launch's streams and
recount them from the result alone: the level matrix gives each
level's frontier, candidates and discoveries, the graph their edges,
and a pod's exchange books the bytes its members received.

* bitmap rows (frontier, status and next-frontier words): rows × words × 8;
* adjacency: 2 × 8 B of offsets per row, ids × 4;
* per-edge probes and gathers: edges × words × 8;
* the level output: one run of popcount × 4 B per discovered row;
* receive buffers: the level's uncompressed exchange, priced by
  :func:`repro.xbfs.bitmap.row_bytes`.

The walk rule (MODEL.md §1) is checked across every engine, XBFS and
the Fig 8 baselines included: a kernel that reads adjacency also reads
one ``beg_pos`` pair per work item.

The tier-1 copy of the no-cliff gate (``benchmarks/bench_linalg_batch.py``)
lives here too.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import EnterpriseBFS, GunrockBFS, HierarchicalBFS, LinAlgBFS, SsspBFS
from repro.gcd.kernel import ExecConfig
from repro.gcd.simulator import GCD
from repro.graph.generators import rmat
from repro.graph.stats import pick_sources
from repro.multigcd.distributed_bfs import MultiGcdBFS
from repro.multigcd.grid2d import Grid2dBFS
from repro.xbfs import bitmap as bm
from repro.xbfs.common import gather_adjacency
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS

from .directions import PULL_ONLY, PUSH_ONLY

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from bench_linalg_batch import cliffs, modelled_grid  # noqa: E402

#: Strategy labels of the levels charged as a pull.
_PULL = {"la_pull", "bottom_up"}

_ENGINES = {
    "concurrent": lambda g: ConcurrentBFS(g),
    "linalg-push": lambda g: LinAlgBatchBFS(g, classifier=PUSH_ONLY),
    "linalg-pull": lambda g: LinAlgBatchBFS(g, classifier=PULL_ONLY),
    "linalg-auto": lambda g: LinAlgBatchBFS(g),
    "multigcd": lambda g: MultiGcdBFS(g, 4),
    "multigcd-mixed": lambda g: MultiGcdBFS(g, 4, direction_alpha=0.05),
    "multigcd-codec": lambda g: MultiGcdBFS(
        g, 3, direction_alpha=0.05, codec=True
    ),
    "grid2d": lambda g: Grid2dBFS(g, 4),
    "grid2d-codec": lambda g: Grid2dBFS(g, 6, codec=True),
}

_CASES = [
    (name, k)
    for name in _ENGINES
    for k in (1, 8, 65)
    if not (name == "concurrent" and k > 64)
]


@pytest.fixture
def launches(monkeypatch):
    """Every ``GCD.launch`` as ``(level, Counter[(array, is_write)] of
    bytes)``."""
    seen = []
    original = GCD.launch

    def spy(self, name, *, level, streams, **kwargs):
        charged = Counter()
        for s in streams:
            charged[(s.array, s.is_write)] += s.bytes_requested
        seen.append((level, charged))
        return original(self, name, level=level, streams=streams, **kwargs)

    monkeypatch.setattr(GCD, "launch", spy)
    return seen


def _run(engine, sources):
    run = getattr(engine, "run_batch", None) or engine.run
    return run(sources)


def _tile_rows(engine, graph, rows):
    """Grid2d: each frontier row counts once per row block its edges
    reach (a row feeds one tile per block)."""
    if not isinstance(engine, Grid2dBFS):
        return int(rows.size)
    src = np.repeat(rows, graph.degrees[rows])
    dst = gather_adjacency(graph, rows)
    block = np.searchsorted(engine.row_bounds, dst, side="right") - 1
    return int(np.unique(src * engine.rows + block).size)


def _expected(engine, graph, result, level):
    """The bytes each stream kind of ``level`` must charge, recounted
    from the result's level matrix."""
    levels = result.levels
    n = graph.num_vertices
    words = bm.words_for(levels.shape[0])
    frontier = np.flatnonzero((levels == level).any(axis=0))
    newly_bits = (levels == level + 1).sum(axis=0)
    newly = int((newly_bits > 0).sum())
    want = Counter()
    if result.decisions[level].strategy in _PULL:
        missing = (levels > level) | (levels < 0)
        cand = np.flatnonzero(missing.any(axis=0))
        in_edges = int(graph.reverse().degrees[cand].sum())
        want[("visited_bitmap", False)] = n * words * 8
        want[("beg_pos", False)] = 2 * cand.size * 8
        want[("col_idx_rev", False)] = in_edges * 4
        want[("frontier_bitmap", False)] = in_edges * words * 8
    else:
        edges = int(graph.degrees[frontier].sum())
        rows = _tile_rows(engine, graph, frontier)
        want[("frontier_bitmap", False)] = rows * words * 8
        want[("beg_pos", False)] = 2 * rows * 8
        want[("col_idx", False)] = edges * 4
        want[("bit_status", False)] = edges * words * 8
    want[("bit_status", True)] = newly * words * 8
    want[("next_frontier", True)] = newly * words * 8
    want[("levels", True)] = int(newly_bits.sum()) * 4
    if hasattr(result, "level_raw_bytes"):
        want[("recv_buffers", False)] = result.level_raw_bytes[level]
    return +want


@pytest.mark.parametrize("name, k", _CASES, ids=[f"{n}-k{k}" for n, k in _CASES])
def test_every_stream_charges_its_host_count(launches, name, k):
    graph = rmat(9, 8, seed=5)
    engine = _ENGINES[name](graph)
    result = _run(engine, pick_sources(graph, k, seed=3))
    charged = {}
    for level, streams in launches:
        charged[level] = charged.get(level, Counter()) + streams
    assert sorted(charged) == list(range(result.depth))
    for level in range(result.depth):
        assert +charged[level] == _expected(engine, graph, result, level), (
            f"{name} k={k} level {level} ({result.decisions[level].strategy})"
        )


def test_both_directions_are_covered():
    """The grid above charges push levels and pull levels on one
    single-GCD engine and one pod."""
    graph = rmat(9, 8, seed=5)
    sources = pick_sources(graph, 8, seed=3)
    assert "la_pull" in LinAlgBatchBFS(graph, classifier=PULL_ONLY).run(sources).directions
    mixed = MultiGcdBFS(graph, 4, direction_alpha=0.05).run_batch(sources)
    assert {"top_down", "bottom_up"} <= set(mixed.directions)


@pytest.mark.parametrize("pod", [
    lambda g: MultiGcdBFS(g, 4),
    lambda g: MultiGcdBFS(g, 4, direction_alpha=0.05),
    lambda g: Grid2dBFS(g, 4),
], ids=["multigcd", "multigcd-mixed", "grid2d"])
def test_one_source_kernels_move_what_the_wire_moves(launches, pod):
    """A one-source row is one bit that its id implies: the received
    rows and bitmap blocks a pod's members read add up to exactly the
    bytes its exchange accounting shipped, level by level."""
    graph = rmat(12, 8, seed=2)
    result = pod(graph).run_batch([0])
    received = Counter()
    for level, streams in launches:
        received[level] += streams[("recv_buffers", False)]
    assert result.bytes_exchanged == result.bytes_raw
    assert [received[t] for t in range(result.depth)] == list(result.level_comm_bytes)
    assert sum(received.values()) == result.bytes_exchanged > 0


def _solo(make, **run_options):
    return lambda g: make(g).run(int(np.argmax(g.degrees)), **run_options)


#: Every engine whose level kernels walk adjacency, by name.
_WALKERS = {
    **{
        f"xbfs-{streams}-{forced}": _solo(
            lambda g, streams=streams: XBFS(g, config=ExecConfig(num_streams=streams)),
            force_strategy=forced,
        )
        for streams in (1, 3)
        for forced in (None, "scan_free", "single_scan", "bottom_up")
    },
    **{
        cls.__name__: _solo(cls)
        for cls in (GunrockBFS, EnterpriseBFS, HierarchicalBFS, SsspBFS, LinAlgBFS)
    },
    **{
        name: lambda g, make=make: _run(make(g), pick_sources(g, 8, seed=3))
        for name, make in _ENGINES.items()
    },
}

#: The walking kernels the engines above must book between them.
_WALKS = {
    "sf_expand", "ss_expand", "bu_expand",
    "cb_expand", "lab_spmm_push", "lab_pull_gather",
    "dist_bm_expand", "dist_bm_pull", "g2d_tile_expand",
    "gr_advance", "en_expand", "en_bottom_up", "hq_expand", "sssp_relax", "la_spmv",
}


def test_every_walk_reads_one_beg_pos_pair_per_work_item(monkeypatch):
    """Every booked kernel that reads adjacency (a segmented read, the
    only read stream with exact lines) charges ``beg_pos`` of
    16 B × ``work_items``, whichever engine, direction, strategy or
    stream split issued it."""
    booked = []
    original = GCD._book

    def spy(self, name, *, streams, work_items=0, **kwargs):
        booked.append((name, kwargs["level"], streams, work_items))
        return original(self, name, streams=streams, work_items=work_items, **kwargs)

    monkeypatch.setattr(GCD, "_book", spy)
    graph = rmat(9, 16, seed=1)
    walked, wrong = set(), []
    for engine, run in _WALKERS.items():
        booked.clear()
        run(graph)
        for name, level, streams, items in booked:
            if not any(s.exact_lines is not None and not s.is_write for s in streams):
                continue
            walked.add(name)
            beg_pos = sum(s.bytes_requested for s in streams if s.array == "beg_pos")
            if beg_pos != 16 * items:
                wrong.append((engine, name, level, beg_pos, items))
    assert wrong == []
    assert walked == _WALKS


def test_row_bytes_rule():
    assert bm.row_bytes(10, 1) == 0
    assert bm.row_bytes(10, 1, block=True) == 2
    assert bm.row_bytes(10, 64) == 80
    assert bm.row_bytes(10, 65, block=True) == 160


def test_no_modelled_cliff_with_batch_width():
    """The tier-1 copy of the bench's no-cliff gate, on rmat:12-15: no
    engine's modelled ms per source rises with k."""
    assert cliffs(modelled_grid(scales=(12, 14, 15))) == []
