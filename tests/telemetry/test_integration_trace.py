"""End-to-end acceptance for the observability layer.

One seeded ``repro serve --fault-plan ... --trace-out trace.json`` run
must produce a Chrome trace carrying every surface on one correlated
timeline: service batch spans, per-level BFS spans, kernel events, and
fault/recovery point events — and attaching the tracer must never
change the served answers.
"""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, FaultRule, levels_fingerprint
from repro.service import BFSService, save_trace, synthetic_trace
from repro.telemetry import Tracer

SPECS = ("rmat:9",)


def _plan() -> FaultPlan:
    # Same plan the fault suite uses to provoke level restarts without
    # exhausting recovery: answers stay bit-identical, events fire.
    return FaultPlan(seed=11, name="integration", rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch",
                  probability=0.3, max_triggers=4),
    ))


def _queries():
    svc = BFSService(memory_budget_mb=64.0, scale_factor=64)
    sizes = {s: svc.registry.get(s)[0].graph.num_vertices for s in SPECS}
    return synthetic_trace(list(SPECS), sizes, num_queries=24, seed=3,
                           burst=4)


@pytest.fixture(scope="module")
def chrome_doc(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve_trace")
    queries_path = tmp / "queries.jsonl"
    plan_path = tmp / "plan.json"
    out_path = tmp / "trace.json"
    save_trace(_queries(), queries_path)
    _plan().to_json(plan_path)
    rc = main([
        "serve",
        "--trace", str(queries_path),
        "--fault-plan", str(plan_path),
        "--memory-budget-mb", "64",
        "--trace-out", str(out_path),
    ])
    assert rc == 0
    return json.loads(out_path.read_text())


def _spans(doc, prefix):
    return [e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"].startswith(prefix)]


def _instants(doc, prefix):
    return [e for e in doc["traceEvents"]
            if e["ph"] == "i" and e["name"].startswith(prefix)]


class TestOneCorrelatedTimeline:
    def test_every_surface_is_present(self, chrome_doc):
        assert _spans(chrome_doc, "service.dispatch")
        assert _spans(chrome_doc, "bfs.run")
        assert _spans(chrome_doc, "bfs.level")
        assert _spans(chrome_doc, "kernel:")
        assert _instants(chrome_doc, "fault.")
        assert _instants(chrome_doc, "recovery.")

    def test_faults_and_recoveries_share_dispatch_traces(self, chrome_doc):
        dispatch_traces = {e["args"]["trace_id"]
                           for e in _spans(chrome_doc, "service.dispatch")}
        pointlike = (_instants(chrome_doc, "fault.")
                     + _instants(chrome_doc, "recovery."))
        assert pointlike
        for ev in pointlike:
            assert ev["args"]["trace_id"] in dispatch_traces, ev["name"]

    def test_kernels_nest_inside_their_dispatch_interval(self, chrome_doc):
        window = {
            e["args"]["trace_id"]: (e["ts"], e["ts"] + e["dur"])
            for e in _spans(chrome_doc, "service.dispatch")
        }
        checked = 0
        for ev in _spans(chrome_doc, "kernel:"):
            lo, hi = window[ev["args"]["trace_id"]]
            assert ev["ts"] >= lo - 1.0, ev["name"]
            assert ev["ts"] + ev["dur"] <= hi + 1.0, ev["name"]
            checked += 1
        assert checked > 0

    def test_dispatch_spans_sit_on_worker_tracks(self, chrome_doc):
        metas = {e["tid"]: e["args"]["name"]
                 for e in chrome_doc["traceEvents"] if e["ph"] == "M"}
        tracks = {metas[e["tid"]]
                  for e in _spans(chrome_doc, "service.dispatch")}
        assert tracks and all(t.startswith("worker") for t in tracks)


class TestTracingNeverChangesTheAnswer:
    def test_served_levels_bit_identical_traced_vs_untraced(self):
        queries = _queries()

        def fingerprints(tracer):
            kwargs = {} if tracer is None else {"tracer": tracer}
            svc = BFSService(memory_budget_mb=64.0, scale_factor=64,
                             fault_injector=_plan().injector(), **kwargs)
            report = svc.replay(queries)
            return {o.query.qid: levels_fingerprint(o.levels)
                    for o in report.served}

        traced = fingerprints(Tracer())
        plain = fingerprints(None)
        assert traced.keys() == plain.keys()
        assert traced == plain
