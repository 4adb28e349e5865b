"""The cluster front door: routing, stealing, QoS, observability."""

import numpy as np
import pytest

from repro.cluster import ClusterRouter, QosClass
from repro.errors import ClusterError, MutationError
from repro.graph.delta import GraphDelta, apply_delta, random_delta
from repro.graph.generators import rmat
from repro.graph.stats import bfs_levels_reference
from repro.service.request import Query
from repro.service.trace import synthetic_trace
from repro.telemetry import CounterRegistry, Tracer, write_prometheus

SPECS = ("7", "8", "9")
SIZES = {spec: 1 << int(spec) for spec in SPECS}


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


def make_router(**kwargs) -> ClusterRouter:
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("builder", _builder)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("window_ms", 5.0)
    return ClusterRouter(**kwargs)


def _trace(n=48, seed=0, tenants=4, **kwargs):
    return synthetic_trace(SPECS, SIZES, num_queries=n, seed=seed,
                           tenants=tenants, **kwargs)


class TestRouting:
    def test_sticky_graph_ownership(self):
        router = make_router(steal_threshold=None)
        report = router.replay(_trace())
        assert len(report.served) > 0
        # Every query of a graph ran on the placement owner.
        owners = dict(router.placement.assignments)
        for r in router.replicas:
            for o in r.outcomes:
                if o.served:
                    assert owners[o.query.graph] == r.rid

    def test_submissions_must_be_in_arrival_order(self):
        router = make_router()
        router.submit(Query(qid=0, graph="7", source=0, arrival_ms=5.0,
                            qos="batch"))
        with pytest.raises(ClusterError, match="in order"):
            router.submit(Query(qid=1, graph="7", source=1, arrival_ms=1.0,
                                qos="batch"))

    def test_unknown_qos_class_rejected(self):
        router = make_router()
        with pytest.raises(ClusterError, match="unknown QoS"):
            router.submit(Query(qid=0, graph="7", source=0, qos="bulk"))

    def test_qos_default_deadline_applied_at_front_door(self):
        router = make_router()
        router.submit(Query(qid=0, graph="7", source=0, qos="interactive"))
        router.submit(Query(qid=1, graph="7", source=1, qos="batch"))
        router.drain()
        by_qid = {o.query.qid: o for o in router.outcomes()}
        assert by_qid[0].query.deadline_ms == 50.0  # interactive default
        assert by_qid[1].query.deadline_ms is None  # batch rides the queue

    def test_explicit_deadline_wins_over_qos_default(self):
        router = make_router()
        router.submit(Query(qid=0, graph="7", source=0, qos="interactive",
                            deadline_ms=123.0))
        router.drain()
        assert router.outcomes()[0].query.deadline_ms == 123.0

    def test_custom_qos_classes(self):
        router = make_router(
            qos_classes={"bulk": QosClass("bulk", default_deadline_ms=None)}
        )
        router.submit(Query(qid=0, graph="7", source=0, qos="bulk"))
        with pytest.raises(ClusterError, match="unknown QoS"):
            router.submit(Query(qid=1, graph="7", source=0, qos="interactive"))

    def test_replica_count_validated(self):
        with pytest.raises(ClusterError):
            make_router(replicas=0)
        with pytest.raises(ClusterError):
            make_router(steal_threshold=0)


class TestStealing:
    def test_hot_owner_gets_stolen_from(self):
        router = make_router(replicas=2, steal_threshold=2)
        # One graph -> one owner; same-stamp arrivals pile onto its
        # queue until the steal threshold trips.
        for i in range(12):
            router.submit(Query(qid=i, graph="7", source=i, arrival_ms=0.0,
                                qos="batch"))
        assert router.counters()["steals"] > 0
        depths = [r.queue_depth for r in router.replicas]
        assert all(d > 0 for d in depths)  # work spread over both
        report = router.replay([])  # just drain + report
        assert len(report.served) == 12

    def test_steal_disabled(self):
        router = make_router(replicas=2, steal_threshold=None)
        for i in range(12):
            router.submit(Query(qid=i, graph="7", source=i, arrival_ms=0.0,
                                qos="batch"))
        assert router.counters()["steals"] == 0
        owner = router.placement.assignments["7"]
        assert router.replicas[owner].queue_depth == 12

    def test_stolen_answers_still_correct(self):
        from repro.xbfs.driver import XBFS

        router = make_router(replicas=2, steal_threshold=1)
        for i in range(8):
            router.submit(Query(qid=i, graph="7", source=i, arrival_ms=0.0,
                                qos="batch"))
        router.drain()
        oracle = XBFS(_builder("7"))
        for o in router.outcomes():
            assert o.served
            assert np.array_equal(o.levels, oracle.run(o.query.source).levels)


class TestObservability:
    def test_dispatch_spans_tagged_with_tenant_and_qos(self):
        tracer = Tracer()
        router = make_router(tracer=tracer)
        router.replay(_trace(n=32, seed=3, tenants=2))
        dispatch = [s for s in tracer.spans if s.name == "service.dispatch"]
        assert dispatch, "no dispatch spans recorded"
        for span in dispatch:
            assert span.attrs.get("tenant"), span.attrs
            assert span.attrs.get("qos"), span.attrs
        tenants = {t for s in dispatch for t in s.attrs["tenant"].split(",")}
        assert tenants <= {"t0", "t1"} and tenants

    def test_route_spans_on_replica_tracks(self):
        tracer = Tracer()
        router = make_router(tracer=tracer)
        router.replay(_trace(n=24, seed=4))
        routes = [s for s in tracer.spans if s.name == "cluster.route"]
        assert len(routes) > 0
        for span in routes:
            rid = span.attrs["replica"]
            assert span.track == f"replica{rid}"
            assert span.attrs["tenant"].startswith("t")
            assert span.attrs["qos"] in ("interactive", "batch")
        # Replica-side spans live on prefixed tracks.
        worker_tracks = {
            s.track for s in tracer.spans if s.name == "service.dispatch"
        }
        assert all(t.startswith("replica") for t in worker_tracks)

    def test_prometheus_counters_carry_tenant_and_qos(self, tmp_path):
        router = make_router()
        router.replay(_trace(n=32, seed=5, tenants=2))
        registry = CounterRegistry()
        replica = router.replicas[0]
        registry.attach("service", replica.metrics)
        out = tmp_path / "metrics.prom"
        write_prometheus(registry, out)
        text = out.read_text()
        assert "per_qos" in text
        assert "per_tenant" in text

    def test_counters_shape(self):
        router = make_router()
        router.replay(_trace(n=16, seed=6))
        c = router.counters()
        assert set(c) == {
            "steals", "deaths", "revivals", "suppressed_deaths",
            "redispatched_queries", "replaced_graphs",
            "placement_overrides",
        }
        assert c["deaths"] == 0  # no fault plan attached


class TestReport:
    def test_summary_has_per_qos_tails_and_balance(self):
        router = make_router()
        report = router.replay(_trace(n=48, seed=7))
        s = report.summary("cluster")
        assert s["replicas"] == 3
        assert s["queries_served"] == len(report.served)
        for qos in ("interactive", "batch"):
            assert f"qos_{qos}_p99_ms" in s
        assert s["balance_ratio"] >= 1.0
        assert "per_replica" in s and len(s["per_replica"]) == 3
        rendered = report.render()
        assert "placement:" in rendered and "throughput:" in rendered

    def test_replay_summary_deterministic(self):
        def run():
            return make_router().replay(_trace(n=40, seed=8)).summary("d")

        assert run() == run()


class TestClusterMutation:
    """``op="mutate"`` barriers broadcast to every replica — live ones
    flush-and-apply, dead ones log the delta for their cold rebuild."""

    def _mutate_query(self, delta, *, qid, t_ms, graph="7"):
        return Query(qid=qid, graph=graph, source=0, arrival_ms=t_ms,
                     op="mutate", delta=delta)

    def test_broadcast_bumps_every_replica_and_answers_track_versions(self):
        base = _builder("7")
        delta = random_delta(base, num_inserts=6, seed=3)
        mutated = apply_delta(base, delta)
        router = make_router()

        sources = (0, 5, 40, 100)
        for i, s in enumerate(sources):
            router.submit(Query(qid=i, graph="7", source=s, arrival_ms=0.0,
                                qos="batch"))
        router.submit(self._mutate_query(delta, qid=50, t_ms=60.0))
        for i, s in enumerate(sources):
            router.submit(Query(qid=100 + i, graph="7", source=s,
                                arrival_ms=61.0, qos="batch"))
        router.drain()

        for r in router.replicas:
            assert r.registry.graph_version("7") == 1
        by_qid = {o.query.qid: o for o in router.outcomes()}
        # The barrier itself produces no outcome.
        assert 50 not in by_qid
        for i, s in enumerate(sources):
            assert np.array_equal(
                by_qid[i].levels, bfs_levels_reference(base, s)
            ), f"pre-mutation source {s} diverged from the base graph"
            assert np.array_equal(
                by_qid[100 + i].levels, bfs_levels_reference(mutated, s)
            ), f"post-mutation source {s} diverged from the mutated graph"

    def test_dead_replica_logs_mutation_and_replays_on_cold_rebuild(self):
        base = _builder("7")
        delta = random_delta(base, num_inserts=8, seed=5)
        mutated = apply_delta(base, delta)
        router = make_router(replicas=2, steal_threshold=None)

        router.submit(Query(qid=0, graph="7", source=3, arrival_ms=0.0,
                            qos="batch"))
        router.drain()
        owner = router.placement.assignments["7"]
        victim = router.replicas[owner]
        router._kill_replica(victim, 10.0, restart_ms=30.0)
        assert not victim.alive and len(victim.registry) == 0

        # The broadcast reaches the corpse log-only: version bumps with
        # no entry materialised.
        router.submit(self._mutate_query(delta, qid=1, t_ms=20.0))
        assert victim.registry.graph_version("7") == 1
        assert "7" not in victim.registry

        # The survivor serves the mutated graph meanwhile.
        router.submit(Query(qid=2, graph="7", source=3, arrival_ms=21.0,
                            qos="batch"))
        router.drain()
        by_qid = {o.query.qid: o for o in router.outcomes()}
        assert np.array_equal(
            by_qid[2].levels, bfs_levels_reference(mutated, 3)
        )

        # An in-order submission past the restart stamp revives the
        # victim; its cold rebuild replays the delta log and converges
        # on the survivors' graph version.
        router.submit(Query(qid=3, graph="8", source=0, arrival_ms=45.0,
                            qos="batch"))
        router.drain()
        assert victim.alive and router.counters()["revivals"] == 1
        entry, hit = victim.registry.get("7")
        assert not hit and entry.version == 1
        assert np.array_equal(entry.graph.col_indices, mutated.col_indices)

    def test_mutation_without_delta_rejected_at_front_door(self):
        router = make_router()
        with pytest.raises(ClusterError, match="no delta"):
            router.submit(Query(qid=0, graph="7", source=0, op="mutate"))

    def test_out_of_range_delta_rejected_before_any_replica_sees_it(self):
        router = make_router()
        n = _builder("7").num_vertices
        bad = GraphDelta(inserts=((0, n + 5),))
        with pytest.raises(MutationError, match="out of range"):
            router.submit(self._mutate_query(bad, qid=0, t_ms=0.0))
        for r in router.replicas:
            assert r.registry.graph_version("7") == 0

    def test_mutation_charges_no_quota_and_emits_trace_event(self):
        tracer = Tracer()
        router = make_router(tracer=tracer)
        for i in range(6):
            router.submit(self._mutate_query(
                random_delta(_builder("7"), num_inserts=1, seed=10 + i),
                qid=i, t_ms=float(i)))
        # Six barriers: no quota verdict, nothing served or rejected,
        # one front-door trace event each.
        assert router.report().quota_stats == {"tenants": {}, "admitted": 0, "rejected": 0}
        assert router.outcomes() == []
        assert router.rejected_outcomes == []
        events = [e for e in tracer.events if e.name == "cluster.mutate"]
        assert len(events) == 6
        assert {e.attrs["graph"] for e in events} == {"7"}
