"""Tests for admission control: queue bounds and deadlines."""

import pytest

from repro.errors import AdmissionError, DeadlineExceededError, QueueFullError
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.request import Query


def q(qid=0, arrival=0.0, deadline=None):
    return Query(qid=qid, graph="rmat:8", source=0, arrival_ms=arrival,
                 deadline_ms=deadline)


class TestQueueDepth:
    def test_admit_below_limit(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        ctl.admit(q(0), queue_depth=0)
        ctl.admit(q(1), queue_depth=1)
        assert ctl.stream.counts["admitted"] == 2

    def test_reject_at_limit_is_typed(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        with pytest.raises(QueueFullError) as exc:
            ctl.admit(q(2), queue_depth=2)
        assert isinstance(exc.value, AdmissionError)
        assert ctl.stream.counts["rejected:queue_full"] == 1

    def test_rejection_counts_accumulate(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue_depth=1))
        for i in range(3):
            with pytest.raises(QueueFullError):
                ctl.admit(q(i), queue_depth=5)
        assert ctl.stream.counts == {"rejected:queue_full": 3}


class TestDeadlines:
    def test_no_deadline_never_rejects(self):
        ctl = AdmissionController()
        ctl.check_deadline(q(0, arrival=0.0), start_ms=1e9)

    def test_per_query_deadline(self):
        ctl = AdmissionController()
        ctl.check_deadline(q(0, arrival=0.0, deadline=10.0), start_ms=9.0)
        with pytest.raises(DeadlineExceededError):
            ctl.check_deadline(q(1, arrival=0.0, deadline=10.0), start_ms=11.0)
        assert ctl.stream.counts["rejected:deadline_at_dispatch"] == 1

    def test_default_deadline_applies(self):
        ctl = AdmissionController(AdmissionPolicy(default_deadline_ms=5.0))
        assert ctl.deadline_of(q(0)) == 5.0
        with pytest.raises(DeadlineExceededError):
            ctl.check_deadline(q(0, arrival=0.0), start_ms=6.0)

    def test_query_deadline_overrides_default(self):
        ctl = AdmissionController(AdmissionPolicy(default_deadline_ms=5.0))
        assert ctl.deadline_of(q(0, deadline=50.0)) == 50.0
        ctl.check_deadline(q(0, arrival=0.0, deadline=50.0), start_ms=40.0)


class TestPolicyValidation:
    def test_bad_depth(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)

    def test_bad_deadline(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(default_deadline_ms=0.0)
