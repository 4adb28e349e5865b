"""The end-to-end harness's hooks still find what they patch.

``benchmarks/e2e/layers.py`` times each layer by replacing named entry
points with wrappers for the length of a traced replay, and reads its
counts off what those calls return. A rename or a move of one of them
breaks traced replays without failing any other test, so the targets
are checked here: each must be defined in its owner's own body (the
harness reads ``vars(owner)[attr]``), every engine it counts must be a
serving tier, the executor's ``run`` must still return the tier name at
index 3, and every engine layer's digest must read a real result of its
target, so a change to a result type cannot silently break traced
replays.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.service.execution as execution_module
from repro.graph.delta import apply_delta, random_delta
from repro.graph.generators import rmat
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.service import ENGINE_NAMES, BFSService, Query
from repro.service.execution import ExecutionEngine
from repro.xbfs.concurrent import ConcurrentBFS
from repro.xbfs.driver import XBFS
from repro.xbfs.linalg_batch import LinAlgBatchBFS
from repro.xbfs.repair import repair_levels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
import layers  # noqa: E402

TARGETS = [
    (layer, owner, attr)
    for layer, targets in layers.LAYERS.items()
    for owner, attr, _qids, _digest in targets
]


@pytest.mark.parametrize(
    "layer,owner,attr", TARGETS,
    ids=[f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
         for layer, owner, attr in TARGETS],
)
def test_every_target_is_defined_in_its_owner(layer, owner, attr):
    assert callable(vars(owner).get(attr))


def test_counted_engines_are_serving_tiers():
    assert set(layers.ENGINES) <= set(ENGINE_NAMES)


@pytest.mark.parametrize("sources,kw,tier", [
    ((3,), {}, "solo"),
    ((1, 2, 3, 4), {}, "concurrent"),
    ((1, 2, 3, 4), {"linalg_batch_threshold": 4}, "linalg_batch"),
    ((1, 2), {"distributed_threshold_mb": 0.0}, "multigcd"),
])
def test_run_returns_the_served_tier_at_index_3(monkeypatch, sources, kw, tier):
    seen = []
    original = ExecutionEngine.run

    def run(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        seen.append(out[3])
        return out

    monkeypatch.setattr(ExecutionEngine, "run", run)
    svc = BFSService(seed=0, **kw)
    for qid, src in enumerate(sources):
        svc.submit(Query(qid=qid, graph="rmat:10", source=src, arrival_ms=0.0))
    outcomes = svc.drain()
    assert seen == [tier]
    assert {o.engine for o in outcomes} == {tier}


GRAPH = rmat(10, 8, seed=0)
SOURCES = np.array([1, 2, 3, 4], dtype=np.int64)


def _repair():
    delta = random_delta(GRAPH, num_inserts=4, seed=5)
    return repair_levels(apply_delta(GRAPH, delta), XBFS(GRAPH).run(1).levels, delta.inserts)


#: Layers timing an engine entry point, and a real rmat:10 call of each
#: target, configured the way the serving tiers build them.
ENGINE_LAYERS = ("xbfs.driver", "xbfs.concurrent", "xbfs.linalg_batch", "xbfs.repair",
                 "multigcd")
REAL_CALLS = {
    (XBFS, "run"): lambda: XBFS(GRAPH).run(1),
    (ConcurrentBFS, "run"): lambda: ConcurrentBFS(GRAPH).run(SOURCES),
    (LinAlgBatchBFS, "run"): lambda: LinAlgBatchBFS(GRAPH).run(SOURCES),
    (execution_module, "repair_levels"): _repair,
    (MultiGcdBFS, "run_batch"): lambda: MultiGcdBFS(GRAPH, 4).run_batch(SOURCES),
    (Grid2dBFS, "run_batch"): lambda: Grid2dBFS(
        GRAPH, 4, codec=True, overlap=True
    ).run_batch(SOURCES),
}
ENGINE_TARGETS = [
    (layer, owner, attr, digest)
    for layer in ENGINE_LAYERS
    for owner, attr, _qids, digest in layers.LAYERS[layer]
]


def test_every_engine_target_has_a_real_call():
    assert {(owner, attr) for _, owner, attr, _ in ENGINE_TARGETS} == set(REAL_CALLS)


@pytest.mark.parametrize(
    "layer,owner,attr,digest", ENGINE_TARGETS,
    ids=[f"{layer}:{getattr(owner, '__name__', owner)}.{attr}"
         for layer, owner, attr, _ in ENGINE_TARGETS],
)
def test_engine_digest_reads_a_real_result(layer, owner, attr, digest):
    out = REAL_CALLS[(owner, attr)]()
    values = digest(out)
    assert values and all(math.isfinite(v) for v in values)
    if layer == "multigcd":
        assert values[0] == SOURCES.size
