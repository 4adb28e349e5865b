"""The 2D-grid differential wall.

``Grid2dBFS`` is now a routable engine, so it gets the same treatment
the 1D pod got in the routing suite: whatever the grid shape, codec,
overlap setting or fault plan, its levels must be bit-identical
to solo ``XBFS`` — and, transitively, to the 1D ``MultiGcdBFS`` —
across seeded random graphs and every degenerate shape the partition
math could stumble on (disconnected forests, a single vertex, a star,
a zero-edge graph). A one-source batch (``run_batch([s])``) is the
per-vertex traversal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BatchSourceError, RecoveryExhaustedError
from repro.faults import FaultPlan, FaultRule
from repro.graph.csr import CSRGraph
from repro.graph.generators import chung_lu_power_law, rmat
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.xbfs.driver import XBFS

SEEDED = {
    "rmat9": rmat(9, 8, seed=9),
    "rmat10": rmat(10, 8, seed=42),
    "powerlaw": chung_lu_power_law(2000, 12, seed=3),
}

EDGE_CASES = {
    "single_vertex": CSRGraph.from_edges(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 1
    ),
    "zero_edges": CSRGraph.from_edges(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 64
    ),
    "star": CSRGraph.from_edges(
        np.zeros(63, dtype=np.int64),
        np.arange(1, 64, dtype=np.int64),
        64,
        symmetrize=True,
    ),
    "disconnected": CSRGraph.from_edges(
        np.array([0, 1, 8, 9, 40, 41], dtype=np.int64),
        np.array([1, 2, 9, 10, 41, 42], dtype=np.int64),
        64,
        symmetrize=True,
    ),
}

ALL_GRAPHS = {**SEEDED, **EDGE_CASES}

CONFIGS = {
    "naive": {},
    "codec": {"codec": True},
    "codec-overlap": {"codec": True, "overlap": True},
    "overlap": {"overlap": True},
}


@pytest.fixture(scope="module")
def oracle():
    cache: dict[tuple[str, int], np.ndarray] = {}

    def levels(name: str, source: int) -> np.ndarray:
        key = (name, source)
        if key not in cache:
            cache[key] = XBFS(ALL_GRAPHS[name]).run(source).levels
        return cache[key]

    return levels


def sources_for(graph: CSRGraph, count: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    return sorted(set(int(rng.integers(n)) for _ in range(count)) | {0})


class TestAgainstSoloXbfs:
    @pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_levels_equal_solo(self, oracle, name, config):
        graph = ALL_GRAPHS[name]
        engine = Grid2dBFS(graph, min(4, graph.num_vertices), **CONFIGS[config])
        for source in sources_for(graph, 3, seed=1):
            r = engine.run_batch([source])
            assert np.array_equal(r.levels[0], oracle(name, source)), (
                f"{name}/{config} diverged from solo XBFS at source {source}"
            )
            assert r.elapsed_ms >= 0 and 0 <= r.comm_fraction <= 1

    @pytest.mark.parametrize("num_gcds", [1, 2, 3, 4, 6, 8, 9, 16])
    def test_grid_shapes_equal_solo(self, oracle, num_gcds):
        engine = Grid2dBFS(
            SEEDED["rmat10"], num_gcds, codec=True, overlap=True
        )
        assert engine.rows * engine.cols == num_gcds
        for source in sources_for(SEEDED["rmat10"], 4, seed=2):
            assert np.array_equal(
                engine.run_batch([source]).levels[0], oracle("rmat10", source)
            )


class TestAgainstOneDPod:
    @pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
    def test_2d_equals_1d(self, name):
        """Both decompositions of the same machine answer identically
        (the 1D partition refuses num_parts > num_vertices, so the pod
        width adapts on the degenerate graphs)."""
        graph = ALL_GRAPHS[name]
        p = min(4, graph.num_vertices)
        one_d = MultiGcdBFS(graph, p, codec=True, overlap=True)
        two_d = Grid2dBFS(graph, p, codec=True, overlap=True)
        for source in sources_for(graph, 3, seed=3):
            a, b = one_d.run_batch([source]), two_d.run_batch([source])
            assert np.array_equal(a.levels, b.levels), (
                f"1D and 2D disagree on {name} source {source}"
            )

    def test_2d_batch_equals_1d_batch(self):
        graph = SEEDED["rmat9"]
        sources = np.array(sources_for(graph, 6, seed=4), dtype=np.int64)
        one_d = MultiGcdBFS(graph, 4).run_batch(sources)
        two_d = Grid2dBFS(graph, 4, codec=True).run_batch(sources)
        assert two_d.num_gcds == 4
        for s in sources:
            assert np.array_equal(one_d.levels_of(s), two_d.levels_of(s))
        assert two_d.traversed_edges == one_d.traversed_edges


class TestBatchSurface:
    def test_batch_validation_is_typed(self):
        engine = Grid2dBFS(SEEDED["rmat9"], 4)
        with pytest.raises(BatchSourceError):
            engine.run_batch(np.array([1, 1]))
        with pytest.raises(BatchSourceError):
            engine.run_batch(np.array([10_000_000]))

    def test_batch_members_equal_solo_runs(self, oracle):
        engine = Grid2dBFS(SEEDED["rmat10"], 4, codec=True)
        sources = np.array(sources_for(SEEDED["rmat10"], 5, seed=5))
        engine.run_batch([0])  # warm the members, as the batch below finds them
        solo = [engine.run_batch([s]) for s in sources]
        batch = engine.run_batch(sources)
        # One bit-parallel traversal: cheaper than the runs back to back.
        assert batch.elapsed_ms < sum(r.elapsed_ms for r in solo)
        for s in sources:
            assert np.array_equal(batch.levels_of(int(s)), oracle("rmat10", int(s)))


#: Pod batch entry points: both decompositions, and the 1D pod with
#: its bottom-up levels switched on.
BATCH_ENGINES = {
    "1d": lambda graph, p, kw: MultiGcdBFS(graph, p, **kw),
    "1d-alpha": lambda graph, p, kw: MultiGcdBFS(graph, p, direction_alpha=0.05, **kw),
    "2d": lambda graph, p, kw: Grid2dBFS(graph, p, **kw),
}


class TestBatchWall:
    """A batch is one bit-parallel traversal of the pod; every source's
    levels must still equal solo ``XBFS``, whatever the decomposition,
    direction rule, codec or overlap setting."""

    @pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("engine", sorted(BATCH_ENGINES))
    def test_batch_levels_equal_solo(self, oracle, name, config, engine):
        graph = ALL_GRAPHS[name]
        pod = BATCH_ENGINES[engine](graph, min(4, graph.num_vertices), CONFIGS[config])
        sources = np.array(sources_for(graph, 6, seed=7))
        batch = pod.run_batch(sources)
        for s in sources.tolist():
            assert np.array_equal(batch.levels_of(s), oracle(name, s)), (
                f"{engine}/{name}/{config} diverged from solo XBFS at source {s}"
            )

    @pytest.mark.parametrize("engine", sorted(BATCH_ENGINES))
    def test_multi_word_batch(self, oracle, engine):
        # 100 sources span two bitmap words per row.
        graph = SEEDED["rmat10"]
        sources = np.random.default_rng(8).choice(graph.num_vertices, 100, replace=False)
        pod = BATCH_ENGINES[engine](graph, 4, {"codec": True})
        batch = pod.run_batch(sources)
        for s in sources.tolist():
            assert np.array_equal(batch.levels_of(s), oracle("rmat10", s))


class TestUnderFaultPlans:
    def _latency_plan(self, seed=11):
        return FaultPlan(seed=seed, name="g2d-latency", rules=(
            FaultRule(site="multigcd.exchange", kind="latency",
                      probability=0.5, magnitude=4.0),
        ))

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_latency_faults_never_change_levels(self, oracle, config):
        plan = self._latency_plan()
        for name in ("rmat9", "disconnected"):
            graph = ALL_GRAPHS[name]
            faulty = Grid2dBFS(
                graph, 4, injector=plan.injector(), **CONFIGS[config]
            )
            clean = Grid2dBFS(graph, 4, **CONFIGS[config])
            for source in sources_for(graph, 2, seed=6):
                f, c = faulty.run_batch([source]), clean.run_batch([source])
                assert np.array_equal(f.levels[0], oracle(name, source))
                assert f.comm_ms >= c.comm_ms
                assert f.compute_ms == c.compute_ms

    def test_raising_fault_replays_never_wrong(self):
        plan = FaultPlan(seed=5, name="g2d-abort", rules=(
            FaultRule(site="multigcd.exchange", kind="memory_corruption",
                      probability=1.0, max_triggers=1),
        ))
        engine = Grid2dBFS(SEEDED["rmat9"], 4, injector=plan.injector())
        # The faulted level replays after every member quiesces.
        r = engine.run_batch([0])
        assert r.level_restarts == 1
        assert np.array_equal(r.levels[0], XBFS(SEEDED["rmat9"]).run(0).levels)

    def test_endless_fault_is_typed_never_wrong(self):
        plan = FaultPlan(seed=5, name="g2d-abort", rules=(
            FaultRule(site="multigcd.exchange", kind="memory_corruption",
                      probability=1.0),
        ))
        engine = Grid2dBFS(SEEDED["rmat9"], 4, injector=plan.injector())
        with pytest.raises(RecoveryExhaustedError):
            engine.run_batch([0])

    def test_fault_sequence_is_deterministic(self):
        def comm_trace():
            plan = self._latency_plan()
            engine = Grid2dBFS(
                SEEDED["rmat9"], 4, injector=plan.injector(),
                codec=True, overlap=True,
            )
            return [engine.run_batch([s]).comm_ms for s in (0, 3, 17)]

        assert comm_trace() == comm_trace()


@st.composite
def random_graph_and_sources(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    m = draw(st.integers(min_value=0, max_value=180))
    vertex = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vertex, min_size=m, max_size=m))
    dst = draw(st.lists(vertex, min_size=m, max_size=m))
    g = CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        n,
        symmetrize=draw(st.booleans()),
    )
    source = draw(vertex)
    p = draw(st.integers(min_value=1, max_value=min(8, n)))
    return g, source, p


@given(random_graph_and_sources(), st.sampled_from(sorted(CONFIGS)))
@settings(max_examples=40, deadline=None)
def test_property_grid2d_equals_solo_and_1d(case, config):
    graph, source, p = case
    oracle = XBFS(graph).run(source).levels
    two_d = Grid2dBFS(graph, p, **CONFIGS[config]).run_batch([source])
    one_d = MultiGcdBFS(graph, p).run_batch([source])
    assert np.array_equal(two_d.levels[0], oracle)
    assert np.array_equal(one_d.levels[0], oracle)


@given(random_graph_and_sources(), st.sampled_from(sorted(CONFIGS)),
       st.sampled_from(sorted(BATCH_ENGINES)))
@settings(max_examples=40, deadline=None)
def test_property_pod_batches_equal_solo(case, config, engine):
    graph, source, p = case
    sources = np.unique([source, 0, graph.num_vertices - 1])
    batch = BATCH_ENGINES[engine](graph, p, CONFIGS[config]).run_batch(sources)
    for s in sources.tolist():
        assert np.array_equal(batch.levels_of(s), XBFS(graph).run(s).levels)
