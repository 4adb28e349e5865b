"""The end-to-end harness's hooks still find what they patch.

``benchmarks/e2e/layers.py`` times each layer by replacing named entry
points with wrappers for the length of a traced replay, and reads its
counts off what those calls return. A rename or a move of one of them
breaks traced replays without failing any other test, so the targets
are checked here: each must be defined in its owner's own body (the
harness reads ``vars(owner)[attr]``), every engine it counts must be a
serving tier, and the executor's ``run`` must still return the tier
name at index 3.
"""

import sys
from pathlib import Path

import pytest

from repro.service import ENGINE_NAMES, BFSService, Query
from repro.service.execution import ExecutionEngine

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
