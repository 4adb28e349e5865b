"""One cluster replica: a :class:`~repro.service.runtime.BFSService`
with an id, liveness and a restart clock.

The router builds every replica's service from one option mapping,
:attr:`~repro.cluster.router.ClusterRouter.service_options`, and hands
it in ready-made. Every replica owns its *own* registry, admission
controller, scheduler, executor, worker pool and metrics — the failure
domain — while the whole cluster shares one virtual-time world, one
tracer (per-replica span tracks via ``track_prefix``) and one fault
injector (one RNG stream → one deterministic global fault schedule).

The graph *builder* is shared and memoised by the router: host memory
holds each parsed graph once, but the modelled CSR build charge is
still paid per replica on its own cold cache — exactly the cost a
real replica would pay building its device-resident CSR.

Death wipes the replica cold: the registry is evicted down to empty,
its devices lose their warm-up and pending queries are taken for
re-dispatch. Revival re-joins the ring with empty caches; the virtual
clock never rewinds.
"""

from __future__ import annotations

from repro.errors import ClusterError
from repro.service.registry import GraphRegistry
from repro.service.request import Query, QueryOutcome
from repro.service.runtime import BFSService

__all__ = ["Replica"]


class Replica:
    """A :class:`BFSService` as a composable cluster unit."""

    def __init__(self, rid: int, service: BFSService) -> None:
        self.rid = rid
        self.service = service
        self.alive = True
        #: Virtual restart stamp while dead, ``None`` when alive.
        self.revive_at_ms: float | None = None
        self.deaths = 0
        self.revivals = 0

    # ------------------------------------------------------------------
    @property
    def registry(self) -> GraphRegistry:
        return self.service.registry

    @property
    def scheduler(self):
        return self.service.scheduler

    @property
    def metrics(self):
        return self.service.metrics

    @property
    def queue_depth(self) -> int:
        return self.service.scheduler.queue_depth

    @property
    def outcomes(self) -> list[QueryOutcome]:
        return self.service.scheduler.outcomes

    # ------------------------------------------------------------------
    def submit(self, query: Query) -> None:
        if not self.alive:
            raise ClusterError(
                f"replica {self.rid} is dead until "
                f"{self.revive_at_ms} ms; router must not forward to it"
            )
        self.service.submit(query)

    def drain(self) -> list[QueryOutcome]:
        return self.service.drain()

    def take_pending(self) -> list[Query]:
        """Pull back every admitted-but-undispatched query."""
        return self.service.scheduler.take_pending()

    # ------------------------------------------------------------------
    def kill(self, at_ms: float, restart_ms: float) -> None:
        """Die at ``at_ms``; restart (cold) ``restart_ms`` later.

        The registry is evicted to empty and every device cools — a
        restarted process has no warm CSRs, no cached partitions, no
        engines, and its worker GCDs and its pod each pay the
        first-launch warm-up again.
        """
        if not self.alive:
            raise ClusterError(f"replica {self.rid} is already dead")
        if restart_ms <= 0:
            raise ClusterError(f"restart_ms must be positive, got {restart_ms}")
        self.alive = False
        self.revive_at_ms = at_ms + restart_ms
        self.deaths += 1
        self.registry.evict(len(self.registry))
        for device in (*self.scheduler.workers, self.service.executor.pod):
            device.warm = False

    def revive(self, at_ms: float) -> None:
        """Come back (cold) at ``at_ms``."""
        if self.alive:
            raise ClusterError(f"replica {self.rid} is already alive")
        self.alive = True
        self.revive_at_ms = None
        self.revivals += 1
        # The replica's scheduler clock must not sit in the past
        # relative to the cluster clock it re-joins.
        self.service.scheduler.now_ms = max(
            self.service.scheduler.now_ms, at_ms
        )

    # ------------------------------------------------------------------
    def report(self):
        return self.service.report()

    def stats(self) -> dict:
        """JSON-able liveness + load snapshot."""
        return {
            "replica": self.rid,
            "alive": self.alive,
            "deaths": self.deaths,
            "revivals": self.revivals,
            "queue_depth": self.queue_depth,
            "bytes_cached": self.registry.bytes_cached,
        }
