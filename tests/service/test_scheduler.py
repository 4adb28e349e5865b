"""Tests for the coalescing scheduler's grouping, timing and workers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueFullError, ServiceError
from repro.graph.delta import apply_delta, random_delta
from repro.graph.generators import rmat
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.registry import GraphRegistry
from repro.service.request import Query, QueryOptions
from repro.service.scheduler import CoalescingScheduler


def _builder(spec: str):
    return rmat(int(spec), 8, seed=0)


def make_scheduler(**kwargs):
    registry = GraphRegistry(memory_budget_bytes=1 << 30, builder=_builder)
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("window_ms", 5.0)
    return CoalescingScheduler(registry, **kwargs)


def burst(graph, sources, t=0.0, start_qid=0, **query_kwargs):
    return [
        Query(qid=start_qid + i, graph=graph, source=s, arrival_ms=t,
              **query_kwargs)
        for i, s in enumerate(sources)
    ]


class TestCoalescing:
    def test_same_graph_burst_shares_one_dispatch(self):
        sched = make_scheduler()
        for q in burst("9", [1, 2, 3, 4]):
            sched.submit(q)
        outcomes = sched.run_until_idle()
        assert len(outcomes) == 4
        assert all(o.batch_sources == 4 for o in outcomes)
        assert all(o.sharing_factor > 1.0 for o in outcomes)
        # One dispatch only: identical start/finish/worker.
        assert len({(o.start_ms, o.finish_ms, o.worker) for o in outcomes}) == 1

    def test_duplicate_sources_share_a_slot(self):
        sched = make_scheduler()
        for q in burst("9", [5, 5, 7]):
            sched.submit(q)
        outcomes = sched.run_until_idle()
        assert all(o.batch_size == 3 for o in outcomes)
        assert all(o.batch_sources == 2 for o in outcomes)
        assert np.array_equal(outcomes[0].levels, outcomes[1].levels)

    def test_singleton_falls_back_to_solo_xbfs(self):
        sched = make_scheduler()
        sched.submit(Query(qid=0, graph="9", source=3, arrival_ms=0.0))
        (outcome,) = sched.run_until_idle()
        assert outcome.batch_sources == 1
        assert outcome.sharing_factor == 1.0
        assert sched.registry.get("9")[0].engines.get("solo") is not None

    def test_incompatible_options_run_solo(self):
        sched = make_scheduler()
        forced = QueryOptions(force_strategy="bottom_up")
        qs = burst("9", [1, 2])
        qs.append(Query(qid=2, graph="9", source=3, arrival_ms=0.0,
                        options=forced))
        for q in qs:
            sched.submit(q)
        outcomes = sched.run_until_idle()
        by_qid = {o.query.qid: o for o in outcomes}
        assert by_qid[0].batch_sources == 2
        assert by_qid[2].batch_sources == 1 and by_qid[2].batch_size == 1

    def test_max_batch_caps_distinct_sources(self):
        sched = make_scheduler(max_batch=4)
        for q in burst("9", list(range(10))):
            sched.submit(q)
        outcomes = sched.run_until_idle()
        assert len(outcomes) == 10
        assert max(o.batch_sources for o in outcomes) <= 4
        assert len({(o.start_ms, o.worker) for o in outcomes}) >= 3

    def test_window_separates_distant_arrivals(self):
        sched = make_scheduler(window_ms=1.0)
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0))
        sched.submit(Query(qid=1, graph="9", source=2, arrival_ms=100.0))
        outcomes = sched.run_until_idle()
        assert all(o.batch_sources == 1 for o in outcomes)

    def test_levels_match_oracle(self):
        from repro.graph.stats import bfs_levels_reference

        sched = make_scheduler()
        graph = _builder("9")
        for q in burst("9", [0, 10, 20]):
            sched.submit(q)
        for o in sched.run_until_idle():
            assert np.array_equal(
                o.levels, bfs_levels_reference(graph, o.query.source)
            )


class TestWorkersAndTiming:
    def test_two_groups_use_both_workers(self):
        sched = make_scheduler(workers=2)
        for q in burst("9", [1, 2], t=0.0):
            sched.submit(q)
        for q in burst("10", [1, 2], t=0.0, start_qid=10):
            sched.submit(q)
        outcomes = sched.run_until_idle()
        assert {o.worker for o in outcomes} == {0, 1}

    def test_single_worker_serialises(self):
        sched = make_scheduler(workers=1)
        for q in burst("9", [1, 2], t=0.0):
            sched.submit(q)
        for q in burst("10", [1, 2], t=0.0, start_qid=10):
            sched.submit(q)
        outcomes = sched.run_until_idle()
        first = min(outcomes, key=lambda o: o.start_ms)
        second = max(outcomes, key=lambda o: o.start_ms)
        assert second.start_ms >= first.finish_ms

    def test_miss_pays_build_charge_hit_does_not(self):
        sched = make_scheduler(workers=1, window_ms=0.0)
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0))
        sched.submit(Query(qid=1, graph="9", source=2, arrival_ms=1000.0))
        miss, hit = sched.run_until_idle()
        assert not miss.cache_hit and hit.cache_hit
        build_ms = sched.registry.get("9")[0].build_ms
        assert miss.finish_ms - miss.start_ms >= build_ms

    def test_latency_includes_queueing(self):
        sched = make_scheduler(window_ms=5.0)
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0))
        (o,) = sched.run_until_idle()
        assert o.start_ms >= 0.0
        assert o.latency_ms == pytest.approx(o.finish_ms - 0.0)

    def test_deterministic_replay(self):
        def run():
            sched = make_scheduler()
            for q in burst("9", [1, 2, 3]) + burst("10", [4], t=2.0,
                                                   start_qid=10):
                sched.submit(q)
            return [
                (o.query.qid, o.start_ms, o.finish_ms, o.worker,
                 o.sharing_factor)
                for o in sched.run_until_idle()
            ]

        assert run() == run()


class TestAdmissionIntegration:
    def test_queue_full_raises_and_records(self):
        sched = make_scheduler(
            admission=AdmissionController(AdmissionPolicy(max_queue_depth=2))
        )
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0))
        sched.submit(Query(qid=1, graph="9", source=2, arrival_ms=0.0))
        with pytest.raises(QueueFullError):
            sched.submit(Query(qid=2, graph="9", source=3, arrival_ms=0.0))
        outcomes = sched.run_until_idle()
        rejected = [o for o in outcomes if not o.served]
        assert len(rejected) == 1 and rejected[0].rejected == "queue_full"
        assert len([o for o in outcomes if o.served]) == 2

    def test_deadline_drops_at_dispatch(self):
        sched = make_scheduler(workers=1, window_ms=0.0)
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0))
        # Arrives while the worker is busy; a tiny deadline cannot be met.
        sched.submit(Query(qid=1, graph="9", source=2, arrival_ms=0.1,
                           deadline_ms=1e-6))
        outcomes = sched.run_until_idle()
        by_qid = {o.query.qid: o for o in outcomes}
        assert by_qid[0].served
        assert by_qid[1].rejected == "deadline"
        assert by_qid[1].levels is None

    def test_default_deadline_enforced_at_dispatch_not_after(self):
        """A query admitted just under ``default_deadline_ms`` but
        stuck behind a busy worker must be rejected when its dispatch
        slot is computed — before any kernel time is charged — not
        after the batch has already run."""
        sched = make_scheduler(
            workers=1,
            window_ms=0.0,
            admission=AdmissionController(
                AdmissionPolicy(default_deadline_ms=5.0)
            ),
        )
        # Occupies the only worker well past 5 ms (cold build + run).
        sched.submit(Query(qid=0, graph="12", source=1, arrival_ms=0.0))
        sched.run_until_idle()
        busy_until = sched.workers[0].busy_until_ms
        assert busy_until > 5.0
        busy_before = sched.workers[0].busy_ms
        dispatches_before = sched.workers[0].dispatches

        # Admitted (queue has room; no deadline check at submit), but
        # its start slot on the busy worker misses the default deadline.
        late = Query(qid=1, graph="12", source=2, arrival_ms=0.1)
        sched.submit(late)  # must NOT raise: deadline is a dispatch gate
        outcomes = sched.run_until_idle()
        outcome = {o.query.qid: o for o in outcomes}[1]
        assert outcome.rejected == "deadline"
        assert outcome.levels is None
        # Nothing was charged for it: no new dispatch, no busy time.
        assert sched.workers[0].busy_ms == busy_before
        assert sched.workers[0].dispatches == dispatches_before
        assert sched.metrics.rejected_deadline == 1

    def test_per_query_deadline_overrides_default(self):
        sched = make_scheduler(
            workers=1,
            window_ms=0.0,
            admission=AdmissionController(
                AdmissionPolicy(default_deadline_ms=1e-6)
            ),
        )
        # A generous explicit deadline wins over the impossible default.
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=0.0,
                           deadline_ms=1e9))
        outcomes = sched.run_until_idle()
        assert outcomes[0].served

    def test_slow_worker_fault_pushes_query_past_deadline(self):
        """The fault plane's latency injection interacts with deadlines
        exactly like a real straggler: the delayed start slot is what
        gets a later query rejected, still before its batch runs."""
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="service.worker", kind="latency",
                      magnitude=50.0, max_triggers=1),
        ))
        sched = make_scheduler(
            workers=1,
            window_ms=0.0,
            fault_injector=plan.injector(),
            admission=AdmissionController(
                AdmissionPolicy(default_deadline_ms=50.0)
            ),
        )
        sched.submit(Query(qid=0, graph="12", source=1, arrival_ms=0.0))
        sched.run_until_idle()  # 50x slower than modelled
        late = Query(qid=1, graph="12", source=2, arrival_ms=1.0)
        sched.submit(late)
        outcomes = sched.run_until_idle()
        by_qid = {o.query.qid: o for o in outcomes}
        assert by_qid[0].served
        assert by_qid[1].rejected == "deadline"

        # Without the straggler fault the same trace is served in time.
        clean = make_scheduler(
            workers=1,
            window_ms=0.0,
            admission=AdmissionController(
                AdmissionPolicy(default_deadline_ms=50.0)
            ),
        )
        clean.submit(Query(qid=0, graph="12", source=1, arrival_ms=0.0))
        clean.run_until_idle()
        clean.submit(Query(qid=1, graph="12", source=2, arrival_ms=1.0))
        assert all(o.served for o in clean.run_until_idle())

    def test_out_of_order_arrival_rejected(self):
        sched = make_scheduler()
        sched.submit(Query(qid=0, graph="9", source=1, arrival_ms=10.0))
        with pytest.raises(ServiceError, match="in order"):
            sched.submit(Query(qid=1, graph="9", source=2, arrival_ms=5.0))


class TestValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ServiceError):
            make_scheduler(workers=0)

    def test_bad_max_batch(self):
        with pytest.raises(ServiceError):
            make_scheduler(max_batch=65)

    def test_bad_window(self):
        with pytest.raises(ServiceError):
            make_scheduler(window_ms=-1.0)


class LinearScanPending:
    """The pending queue as one arrival-ordered list, grouped by a
    linear scan that recomputes every query's coalescing key: the
    reference the scheduler's indexed queue must reproduce."""

    def __init__(self, max_batch):
        self.max_batch = max_batch
        self.queries = []

    def __len__(self):
        return len(self.queries)

    def push(self, query):
        self.queries.append(query)
        return query.options.coalescing_key()

    def _group_of(self, anchor):
        key = anchor.options.coalescing_key()
        if key is None:
            return [anchor]
        members, sources = [], set()
        for q in self.queries:
            if q.graph != anchor.graph or q.options.coalescing_key() != key:
                continue
            if q.source not in sources and len(sources) >= self.max_batch:
                continue
            sources.add(q.source)
            members.append(q)
        return members

    def _first(self, graph, key):
        return next(q for q in self.queries
                    if q.graph == graph and q.options.coalescing_key() == key)

    def is_full(self, graph, key):
        members = self._group_of(self._first(graph, key))
        return len({q.source for q in members}) >= self.max_batch

    def head(self, graph=None):
        q = next((q for q in self.queries if graph in (None, q.graph)), None)
        return None if q is None else (q, q.options.coalescing_key())

    def take(self, graph, key):
        members = self._group_of(self._first(graph, key))
        taken = {q.qid for q in members}
        self.queries = [q for q in self.queries if q.qid not in taken]
        return members

    def drain(self):
        pending, self.queries = self.queries, []
        return pending


#: Options that force a solo XBFS run, one per solo-only field.
SOLO_ONLY = (
    QueryOptions(force_strategy="bottom_up"),
    QueryOptions(max_levels=2),
    QueryOptions(record_parents=True),
)

_events = st.lists(
    st.tuples(
        st.sampled_from(["burst"] * 4 + ["mutate"] * 2 + ["take"]),
        st.sampled_from([0.0, 0.5, 2.0, 4.0]),   # gap before it, ms
        st.integers(0, 2),                       # graph index
        st.lists(                                # (source, options)
            st.tuples(st.integers(0, 5),
                      st.sampled_from([None, None, None, *SOLO_ONLY])),
            min_size=1, max_size=8,
        ),
        st.integers(0, 999),                     # mutation seed
    ),
    min_size=2,
    max_size=12,
)


def _concrete_trace(events, graphs):
    """Stamp the drawn events: same-stamp bursts of queries and
    mutations in non-decreasing time, each mutation an insert delta
    against its graph's current version."""
    current = {g: _builder(g) for g in graphs}
    trace, t, qid = [], 0.0, 0
    for kind, gap, g, burst, seed in events:
        if kind == "take":
            trace.append(None)
            continue
        t += gap
        graph = graphs[g % len(graphs)]
        if kind == "mutate":
            delta = random_delta(current[graph], num_inserts=2, seed=seed)
            current[graph] = apply_delta(current[graph], delta)
            qid += 1
            trace.append(Query(qid=qid, graph=graph, source=0, arrival_ms=t,
                               op="mutate", delta=delta))
            continue
        for source, options in burst:
            qid += 1
            trace.append(Query(qid=qid, graph=graph, source=source,
                               arrival_ms=t,
                               options=options or QueryOptions()))
    return trace


def _replay(trace, pending_cls, **kwargs):
    sched = make_scheduler(**kwargs)
    if pending_cls is not None:
        sched._pending = pending_cls(sched.max_batch)
    taken, depths = [], []
    for item in trace:
        if item is None:
            taken.append([q.qid for q in sched.take_pending()])
        else:
            sched.submit(item)
        depths.append(sched.queue_depth)
    dispatches = [
        (o.query.qid, o.start_ms, o.engine, o.batch_sources)
        for o in sched.run_until_idle()
    ]
    return dispatches, taken, depths


class TestIndexedCoalescer:
    @given(
        events=_events,
        num_graphs=st.integers(2, 3),
        window_ms=st.sampled_from([0.0, 3.0]),
        max_batch=st.integers(1, 4),
        workers=st.integers(1, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_dispatches_match_linear_scan(
        self, events, num_graphs, window_ms, max_batch, workers
    ):
        """Across graphs, windows, solo-only options, duplicate sources
        past ``max_batch``, mutation barriers and ``take_pending``, the
        indexed queue dispatches the same queries, in the same order,
        at the same start, on the same engine as the linear scan."""
        trace = _concrete_trace(events, ("6", "7", "8")[:num_graphs])
        kwargs = dict(window_ms=window_ms, max_batch=max_batch, workers=workers)
        assert _replay(trace, None, **kwargs) == _replay(
            trace, LinearScanPending, **kwargs
        )
