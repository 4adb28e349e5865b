"""Smoke test of the end-to-end benchmark on small traces.

Slow tier (``benchmarks/conftest.py`` marks everything here)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import time

import pytest

import layers
import run
from workloads import WORKLOADS, build_graphs

SMALL = 120


@pytest.fixture(scope="module")
def table():
    return run._metric_table()


def test_workload_lists_agree():
    spec = json.loads(run.SPEC.read_text())
    assert list(run.ORDER) == [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", run.ORDER)
def test_workload_reports_every_metric_and_right_answers(name, table, tmp_path):
    result = run.run_workload(
        name, 3, seconds=0.0, trace=True, num_queries=SMALL,
        trace_path=tmp_path / "trace.jsonl",
    )
    line = run.result_line(result, table, ("end_to_end", "per_layer"))
    for kind in ("end_to_end", "per_layer"):
        for metric, spec in table[kind].items():
            assert line["metrics"][metric]["unit"] == spec["unit"]
    assert result["checks"]["wrong_answers"] == 0
    assert result["checks"]["checked_answers"] > 0
    assert result["checks"]["repeated"] and result["checks"]["mismatched"] == 0
    assert result["correct"] and result["failed"] == 0
    assert (tmp_path / "trace.jsonl").stat().st_size > 0


def _small(name, num_queries=SMALL):
    workload = WORKLOADS[name]
    graphs = build_graphs(workload.specs)
    trace = workload.trace(graphs, 3, num_queries)
    return workload, graphs, trace


def test_two_replays_give_identical_modelled_metrics():
    workload, graphs, trace = _small("churn-ops")
    attempted = len(trace.bfs)
    first = run._replay(workload, graphs, 3, trace.queries, attempted)
    second = run._replay(workload, graphs, 3, trace.queries, attempted)
    assert first.digest == second.digest


@pytest.mark.parametrize("name", ["churn-ops", "pod-large"])
def test_traced_replay_restores_nests_and_accounts(name):
    workload, graphs, trace = _small(name, 400)
    originals = {
        (owner, attr): vars(owner)[attr]
        for targets in layers.LAYERS.values()
        for owner, attr, _, _ in targets
    }
    router = workload.router(graphs, 3)
    with layers.traced() as rec:
        t0 = time.perf_counter()
        router.replay(trace.queries)
        host_ms = (time.perf_counter() - t0) * 1e3
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"

    spans = rec.spans
    assert spans
    selfs = rec.self_ms()
    start, end = layers._T0, layers._T1
    for span, self_ms in zip(spans, selfs):
        parent = span[layers._PARENT]
        if parent >= 0:
            assert spans[parent][start] <= span[start] <= span[end] <= spans[parent][end]
        assert self_ms >= -1e-9
    assert abs(sum(selfs) - host_ms) <= 0.05 * host_ms


def test_compare_verdicts():
    from compare import verdict

    base = [100.0, 101.0, 99.0, 100.5] * 3
    worse = [80.0, 81.0, 79.0, 80.5] * 3
    assert verdict(base, list(base), bound=0.05, better="higher") == "same"
    assert verdict(base, worse, bound=0.05, better="higher") == "worse"
    assert verdict(base, worse, bound=0.05, better="lower") == "better"
    # three pairs can show a regression but cannot claim a gain
    assert verdict(base[:3], worse[:3], bound=0.05, better="lower") == "same"
    noisy = [60.0, 140.0, 90.0, 120.0] * 3
    assert verdict(base, noisy, bound=0.05, better="higher") == "unresolved"
    assert verdict(noisy, [200.0, 210.0, 205.0, 220.0] * 3, bound=0.05, better="higher") == "better"
