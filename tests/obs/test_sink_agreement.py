"""Every sink of the decision stream tells the same story.

On the churn replay (``conftest.py``) each fact is read back from every
sink that records it: the cluster report, the replicas' service metrics,
the audit rows, the SLO totals and the trace point events. Any two that
disagree fail here. A two-query replay with one replica death checks the
latency every sink charges a re-dispatched query.
"""

from collections import Counter

import pytest

from repro.cluster import ClusterRouter, death_plan
from repro.graph.generators import rmat
from repro.obs import AuditLog, SloEngine, SloSpec, cluster_health
from repro.service.request import Query


def _audit(run, stage):
    return Counter(r.decision for r in run.audit.records if r.stage == stage)


def _events(run):
    return Counter(e.name for e in run.tracer.events)


def _metrics_total(run, field):
    return sum(getattr(r.metrics, field) for r in run.router.replicas)


def test_every_decision_fired(churn_run):
    # The replay is only a check if each fact it compares is non-zero.
    summary = churn_run.report.summary()
    for key in ("queries_served", "rejected_queue_full", "rejected_deadline",
                "rejected_quota", "steals", "deaths", "revivals",
                "redispatched_queries"):
        assert summary[key] > 0, key
    for field in ("retries", "fallbacks", "breaker_trips", "level_restarts"):
        assert _metrics_total(churn_run, field) > 0, field


@pytest.mark.parametrize("kind", ["queue_full", "deadline", "quota"])
def test_rejections_agree(churn_run, kind):
    summary = churn_run.report.summary()
    admission = _audit(churn_run, "admission")
    outcome = _audit(churn_run, "outcome")
    expected = summary[f"rejected_{kind}"]
    assert sum(o.rejected == kind for o in churn_run.report.outcomes) == expected
    if kind == "quota":
        # The front door rejects before any replica sees the query: an
        # admission row, no outcome row, nothing in a replica's metrics.
        assert admission["rejected:quota"] == expected
        assert outcome["rejected:quota"] == 0
        assert _metrics_total(churn_run, "rejected_quota") == 0
        assert _events(churn_run)["cluster.quota_reject"] == expected
        return
    verdicts = admission[f"rejected:{kind}"]
    if kind == "deadline":
        verdicts += admission["rejected:deadline_at_dispatch"]
    assert verdicts == expected
    assert outcome[f"rejected:{kind}"] == expected
    assert _metrics_total(churn_run, f"rejected_{kind}") == expected


def test_served_agrees(churn_run):
    served = churn_run.report.summary()["queries_served"]
    assert _audit(churn_run, "outcome")["served"] == served
    assert _metrics_total(churn_run, "served") == served
    dispatches = _metrics_total(churn_run, "dispatches")
    assert len(churn_run.tracer.spans_named("service.dispatch")) == dispatches
    assert sum(
        sum(r.metrics.engine_dispatches.values()) for r in churn_run.router.replicas
    ) == dispatches


def test_slo_totals_agree(churn_run):
    outcomes = churn_run.report.outcomes
    for st in churn_run.slo.status():
        mine = [o for o in outcomes if o.query.qos == st["qos"]]
        assert st["total"] == len(mine)
        bad = sum(not o.served or o.latency_ms > st["latency_target_ms"] for o in mine)
        assert st["bad"] == bad


@pytest.mark.parametrize("field,event", [
    ("retries", "recovery.dispatch_retry"),
    ("fallbacks", "recovery.serial_fallback"),
    ("breaker_trips", "recovery.breaker_trip"),
    ("level_restarts", "recovery.level_restart"),
])
def test_recovery_agrees(churn_run, field, event):
    assert _metrics_total(churn_run, field) == _events(churn_run)[event]


@pytest.mark.parametrize("counter,event,stage", [
    ("steals", "cluster.steal", "steal"),
    ("deaths", "cluster.replica_death", None),
    ("revivals", "cluster.replica_revive", None),
    ("suppressed_deaths", "cluster.death_suppressed", None),
])
def test_cluster_counters_agree(churn_run, counter, event, stage):
    count = churn_run.report.counters[counter]
    assert _events(churn_run)[event] == count
    if stage is not None:
        assert sum(_audit(churn_run, stage).values()) == count


def test_death_details_agree(churn_run):
    deaths = [e.attrs for e in churn_run.tracer.events if e.name == "cluster.replica_death"]
    counters = churn_run.report.counters
    assert sum(d["pending_redispatched"] for d in deaths) == counters["redispatched_queries"]
    assert sum(d["graphs_replaced"] for d in deaths) == counters["replaced_graphs"]


def test_mutations_agree(churn_run):
    # One row and one event per replica the barrier reached alive.
    applied = _events(churn_run)["registry.mutate"]
    assert sum(_audit(churn_run, "mutation").values()) == applied > 0


def test_quota_tallies_are_pinned(churn_run):
    # The front door's stream tallies each tenant's quota verdicts; the
    # report and ``repro top`` read them there. The values are the ones
    # the retired ledger counted on this replay.
    summary = churn_run.report.summary()
    assert summary["rejected_quota"] == 47
    assert summary["quota"] == {
        "tenants": {
            "t0": {"admitted": 10, "rejected": 47},
            "t1": {"admitted": 56, "rejected": 0},
            "t2": {"admitted": 47, "rejected": 0},
        },
        "admitted": 113,
        "rejected": 47,
    }
    top = cluster_health(churn_run.router, slo=churn_run.slo)["quota"]
    assert top == {"t0": {"admitted": 10, "rejected": 47, "burst": 4,
                          "rate_per_s": 200, "tokens": pytest.approx(0.8721506120438132)}}
    rows = Counter(r.detail["tenant"] for r in churn_run.audit.records
                   if r.stage == "admission" and r.decision == "rejected:quota")
    assert rows == {t: v["rejected"] for t, v in summary["quota"]["tenants"].items()
                    if v["rejected"]}


def test_redispatched_latency_agrees():
    """A query re-dispatched after a replica death is charged from the
    client's arrival by every sink: two replicas, one query on graph 7
    at 0 ms, one on graph 8 at 2 ms; replica death on the third probe
    moves query 0, re-stamped to 2 ms, to the survivor."""
    audit = AuditLog()
    # Good up to 21 ms: the second leg alone (20.128 ms) would pass.
    slo = SloEngine([SloSpec("all", 21.0, objective=0.5)])
    router = ClusterRouter(
        replicas=2, workers=1, window_ms=5.0,
        builder=lambda spec: rmat(int(spec), 8, seed=int(spec)),
        fault_plan=death_plan(probability=1.0, max_triggers=1, after=2),
        audit=audit, slo=slo,
    )
    report = router.replay([
        Query(qid=0, graph="7", source=1, arrival_ms=0.0),
        Query(qid=1, graph="8", source=1, arrival_ms=2.0),
    ])
    assert report.counters["redispatched_queries"] == 1
    (outcome,) = [o for o in report.served if o.query.qid == 0]
    assert outcome.query.arrival_ms == 2.0
    assert outcome.query.first_arrival_ms == 0.0
    expected = pytest.approx(22.128, abs=5e-4)
    assert outcome.latency_ms == expected
    assert report.latency_of(outcome) == outcome.latency_ms
    assert report.arrival0[0] == 0.0
    (row,) = [r for r in audit.records if r.stage == "outcome" and r.qid == 0]
    assert row.detail["latency_ms"] == outcome.latency_ms
    survivor = next(r for r in router.replicas if r.alive)
    assert survivor.service.metrics.latency_sum == pytest.approx(
        sum(o.latency_ms for o in survivor.outcomes if o.served))
    assert 0 in {o.query.qid for o in survivor.outcomes}
    assert slo.status()[0]["bad"] == sum(o.latency_ms > 21.0 for o in report.served)
