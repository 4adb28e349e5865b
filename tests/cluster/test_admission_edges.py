"""Admission edges through the cluster front door.

The three rejection kinds are typed and distinct — a tenant over
quota, a full replica queue and a missed deadline must never be
confused — and deadline expiry is detected at the earliest point it
is knowable: at admission when the budget is already gone on arrival,
at dispatch when the queueing delay ate it.
"""

import pytest

from repro.cluster import ClusterRouter, TenantQuota
from repro.errors import (
    AdmissionError,
    BatchSourceError,
    DeadlineExceededError,
    QueueFullError,
    QuotaExceededError,
)
from repro.graph.generators import rmat
from repro.service.request import Query


def _builder(spec: str):
    return rmat(int(spec), 8, seed=int(spec))


def make_router(**kwargs) -> ClusterRouter:
    kwargs.setdefault("replicas", 2)
    kwargs.setdefault("builder", _builder)
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("window_ms", 5.0)
    return ClusterRouter(**kwargs)


class TestDeadlineEdges:
    def test_expired_at_admission_rejects_synchronously(self):
        router = make_router()
        with pytest.raises(DeadlineExceededError, match="admission"):
            router.submit(Query(qid=0, graph="7", source=0, arrival_ms=0.0,
                                deadline_ms=0.0, qos="batch"))
        outcomes = router.drain()
        assert len(outcomes) == 1
        assert outcomes[0].rejected == "deadline"
        assert outcomes[0].levels is None
        # Nothing was queued, nothing dispatched.
        assert all(r.metrics.served == 0 for r in router.replicas)

    def test_expired_at_dispatch_rejects_quietly(self):
        router = make_router(replicas=1, window_ms=5.0)
        # Blockers occupy the single worker; the short-deadline queries
        # pass admission (positive budget on arrival) but their dispatch
        # slot lands after the blockers finish — past the deadline.
        for i in range(4):
            router.submit(Query(qid=i, graph="9", source=i, arrival_ms=0.0,
                                qos="batch"))
        for i in range(4, 7):
            router.submit(Query(qid=i, graph="7", source=i, arrival_ms=0.0,
                                deadline_ms=1.0, qos="batch"))
        outcomes = router.drain()
        by_qid = {o.query.qid: o for o in outcomes}
        assert all(by_qid[i].served for i in range(4))
        assert all(by_qid[i].rejected == "deadline" for i in range(4, 7))
        # Counted at dispatch, on the replica's own admission stream.
        sched = router.replicas[0].scheduler
        assert sched.admission.stream.counts["rejected:deadline_at_dispatch"] == 3

    def test_admission_vs_dispatch_are_the_same_kind(self):
        # Both paths produce the one typed error the client handles.
        assert issubclass(DeadlineExceededError, AdmissionError)
        assert DeadlineExceededError.kind == "deadline"


class TestQuotaVsQueueFull:
    def test_quota_rejection_is_typed_distinctly(self):
        router = make_router(
            quotas={"t0": TenantQuota(rate_per_s=100, burst=1)}
        )
        router.submit(Query(qid=0, graph="7", source=0, arrival_ms=0.0,
                            tenant="t0", qos="batch"))
        with pytest.raises(QuotaExceededError) as exc_info:
            router.submit(Query(qid=1, graph="7", source=1, arrival_ms=0.0,
                                tenant="t0", qos="batch"))
        assert not isinstance(exc_info.value, QueueFullError)
        assert isinstance(exc_info.value, AdmissionError)
        assert QuotaExceededError.kind == "quota"
        outcomes = router.drain()
        by_qid = {o.query.qid: o for o in outcomes}
        assert by_qid[0].served
        assert by_qid[1].rejected == "quota"

    def test_queue_full_is_not_quota(self):
        router = make_router(replicas=1, max_queue_depth=1,
                             steal_threshold=None)
        router.submit(Query(qid=0, graph="7", source=0, arrival_ms=0.0,
                            qos="batch"))
        with pytest.raises(QueueFullError) as exc_info:
            router.submit(Query(qid=1, graph="7", source=1, arrival_ms=0.0,
                                qos="batch"))
        assert not isinstance(exc_info.value, QuotaExceededError)
        assert QueueFullError.kind == "queue_full"
        outcomes = router.drain()
        by_qid = {o.query.qid: o for o in outcomes}
        assert by_qid[1].rejected == "queue_full"

    def test_quota_charged_before_replica_state_matters(self):
        # The front door rejects on quota even when every replica
        # queue is empty — the two limits are independent.
        router = make_router(
            quotas={"t0": TenantQuota(rate_per_s=100, burst=1)}
        )
        router.submit(Query(qid=0, graph="7", source=0, arrival_ms=0.0,
                            tenant="t0", qos="batch"))
        router.drain()  # queues now empty
        with pytest.raises(QuotaExceededError):
            router.submit(Query(qid=1, graph="7", source=1, arrival_ms=0.0,
                                tenant="t0", qos="batch"))

    def test_summary_counts_kinds_separately(self):
        router = make_router(
            quotas={"t0": TenantQuota(rate_per_s=100, burst=1)}
        )
        for i in range(4):
            try:
                router.submit(Query(qid=i, graph="7", source=i,
                                    arrival_ms=0.0, tenant="t0", qos="batch"))
            except AdmissionError:
                pass
        report = router.replay([])
        s = report.summary()
        assert s["rejected_quota"] == 3
        assert s["rejected_queue_full"] == 0
        assert s["queries_served"] == 1


class TestBatchSubmission:
    def test_zero_length_batch_rejected_before_any_admission(self):
        router = make_router(
            quotas={"t0": TenantQuota(rate_per_s=100, burst=8)}
        )
        with pytest.raises(BatchSourceError, match="cluster batch"):
            router.submit_batch("7", [], t_ms=0.0, tenant="t0")
        # No quota charged, no outcome recorded.
        assert router.report().quota_stats["admitted"] == 0
        assert router.outcomes() == []

    def test_duplicate_sources_rejected(self):
        router = make_router()
        with pytest.raises(BatchSourceError, match="distinct"):
            router.submit_batch("7", [3, 3], t_ms=0.0)
        assert router.outcomes() == []

    def test_out_of_range_source_rejected(self):
        router = make_router()
        with pytest.raises(BatchSourceError, match="out of range"):
            router.submit_batch("7", [0, 1 << 7], t_ms=0.0)

    def test_oversized_batch_rejected(self):
        router = make_router(max_batch=4)
        with pytest.raises(BatchSourceError):
            router.submit_batch("7", list(range(5)), t_ms=0.0)

    def test_valid_batch_fans_out_and_serves(self):
        router = make_router()
        queries = router.submit_batch("7", [0, 1, 2, 3], t_ms=1.0,
                                      tenant="t9", qos="batch",
                                      start_qid=100)
        assert [q.qid for q in queries] == [100, 101, 102, 103]
        assert all(q.arrival_ms == 1.0 and q.tenant == "t9" for q in queries)
        outcomes = router.drain()
        assert len(outcomes) == 4
        assert all(o.served for o in outcomes)
