"""Admission control: bounded queueing and per-request deadlines.

The serving layer refuses work it cannot do in time instead of
queueing without bound. Two typed rejections, both subclasses of
:class:`~repro.errors.AdmissionError`:

* :class:`~repro.errors.QueueFullError` — the pending queue was at
  its depth limit when the query arrived (checked at submit time).
* :class:`~repro.errors.DeadlineExceededError` — the query's start
  slot on the virtual clock falls past its deadline (checked at
  dispatch time, before any kernel cost is charged). A deadline that
  has *already elapsed when the query arrives* (``deadline_ms <= 0``)
  is rejected at admission instead — queueing it could never help.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DeadlineExceededError, QueueFullError
from repro.obs.stream import DecisionStream
from repro.service.request import Query

__all__ = ["AdmissionPolicy", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Static admission limits.

    max_queue_depth:
        Pending (admitted, not yet dispatched) queries the service
        holds before rejecting with
        :class:`~repro.errors.QueueFullError`.
    default_deadline_ms:
        Deadline applied to queries that do not carry their own;
        ``None`` means no implicit deadline.
    """

    max_queue_depth: int = 256
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")


class AdmissionController:
    """Applies an :class:`AdmissionPolicy`; emits each verdict once.

    Every verdict is one ``admission`` event on :attr:`stream`, carrying
    the inputs that drove it. The stream tallies verdicts in
    ``stream.counts`` and, when ``audit`` (default
    :data:`~repro.obs.audit.NULL_AUDIT`) is enabled, folds each into one
    ``admission`` audit row — observer-only, never part of the decision.
    """

    def __init__(self, policy: AdmissionPolicy | None = None, *, audit=None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.stream = DecisionStream(audit=audit)

    def deadline_of(self, query: Query) -> float | None:
        """The query's effective deadline (its own, else the default)."""
        if query.deadline_ms is not None:
            return query.deadline_ms
        return self.policy.default_deadline_ms

    def admit(self, query: Query, queue_depth: int) -> None:
        """Gate one submission against the current queue depth and an
        already-expired deadline (a non-positive budget at arrival)."""
        deadline = self.deadline_of(query)
        limit = self.policy.max_queue_depth
        if deadline is not None and deadline <= 0:
            self.stream.admission(query, "rejected:deadline", query.arrival_ms,
                                  deadline_ms=deadline)
            raise DeadlineExceededError(
                f"query {query.qid} rejected at admission: deadline "
                f"{deadline:.3f} ms already elapsed on arrival"
            )
        if queue_depth >= limit:
            self.stream.admission(query, "rejected:queue_full", query.arrival_ms,
                                  queue_depth=queue_depth, limit=limit)
            raise QueueFullError(
                f"query {query.qid} rejected: queue depth "
                f"{queue_depth} >= limit {limit}"
            )
        self.stream.admission(query, "admitted", query.arrival_ms,
                              queue_depth=queue_depth, limit=limit, deadline_ms=deadline)

    def check_deadline(self, query: Query, start_ms: float) -> None:
        """Reject a query whose dispatch slot already misses its
        deadline; charged queueing delay is ``start_ms - arrival``."""
        deadline = self.deadline_of(query)
        if deadline is None:
            return
        wait = start_ms - query.arrival_ms
        if wait > deadline:
            self.stream.admission(query, "rejected:deadline_at_dispatch", start_ms,
                                  wait_ms=wait, deadline_ms=deadline)
            raise DeadlineExceededError(
                f"query {query.qid} waited {wait:.3f} ms "
                f"> deadline {deadline:.3f} ms"
            )
