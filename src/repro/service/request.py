"""Query and outcome records for the serving layer.

A :class:`Query` is one BFS request against a named graph; it carries a
virtual arrival stamp (milliseconds on the service clock), an optional
deadline, and the per-query options that decide whether it can share a
:class:`~repro.xbfs.concurrent.ConcurrentBFS` traversal with its
neighbours in the queue. A :class:`QueryOutcome` is the service's
answer: the level array plus the full latency/batching provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.delta import GraphDelta
from repro.xbfs.concurrent import coalescing_key

__all__ = ["Query", "QueryOptions", "QueryOutcome"]


@dataclass(frozen=True)
class QueryOptions:
    """Per-query execution options.

    Any non-default option makes the query *solo-only*: it falls back
    to an :class:`~repro.xbfs.driver.XBFS` run instead of joining a
    concurrent batch (see
    :func:`repro.xbfs.concurrent.coalescing_key`).
    """

    force_strategy: str | None = None
    record_parents: bool = False
    max_levels: int | None = None

    def coalescing_key(self) -> tuple | None:
        """Hashable batch-compatibility key, ``None`` when solo-only."""
        return coalescing_key(
            force_strategy=self.force_strategy,
            record_parents=self.record_parents,
            max_levels=self.max_levels,
        )


@dataclass(frozen=True)
class Query:
    """One BFS request submitted to the service.

    ``tenant`` and ``qos`` attribute the query for multi-tenant
    serving: the cluster front door charges the tenant's quota and
    applies the QoS class's default deadline; metrics and telemetry
    spans are tagged with both so load is attributable per tenant.
    A single :class:`~repro.service.runtime.BFSService` treats them
    as opaque labels.

    ``op`` distinguishes request kinds: ``"bfs"`` (the default — a
    traversal from ``source``) and ``"mutate"`` (apply the attached
    :class:`~repro.graph.delta.GraphDelta` to ``graph``, bumping its
    registry version). Mutations bypass admission and the coalescing
    queue — they are a barrier at their arrival stamp, never produce a
    :class:`QueryOutcome`, and ``source`` is ignored (conventionally
    0).

    ``first_arrival_ms`` is set only on a query the cluster re-stamped
    for re-dispatch after a replica death: ``arrival_ms`` is then the
    death instant, where its queueing starts over, and
    ``first_arrival_ms`` the client's arrival, which its latency is
    charged from.
    """

    qid: int
    graph: str
    source: int
    arrival_ms: float = 0.0
    deadline_ms: float | None = None
    options: QueryOptions = field(default_factory=QueryOptions)
    tenant: str = "default"
    qos: str = "interactive"
    op: str = "bfs"
    delta: GraphDelta | None = None
    first_arrival_ms: float | None = None

    @property
    def is_mutation(self) -> bool:
        return self.op == "mutate"

    @property
    def client_arrival_ms(self) -> float:
        """When the client submitted the query."""
        return self.arrival_ms if self.first_arrival_ms is None else self.first_arrival_ms


@dataclass
class QueryOutcome:
    """What happened to one admitted query."""

    query: Query
    #: Per-vertex BFS levels from the query's source (-1 unreachable);
    #: ``None`` when the query was dropped at dispatch time.
    levels: np.ndarray | None
    start_ms: float = 0.0
    finish_ms: float = 0.0
    worker: int = -1
    #: Number of *queries* that shared this query's dispatch.
    batch_size: int = 1
    #: Distinct sources traversed together in the dispatch.
    batch_sources: int = 1
    #: Sharing factor of the concurrent batch (1.0 for solo runs).
    sharing_factor: float = 1.0
    #: Whether the graph came out of the registry cache.
    cache_hit: bool = False
    #: Engine that served the dispatch, one of
    #: :data:`~repro.service.metrics.ENGINE_NAMES`: ``"solo"`` (XBFS),
    #: ``"concurrent"`` (iBFS batch), ``"linalg_batch"`` (bitmap
    #: CSR×matrix batch), ``"multigcd"`` / ``"grid2d"`` (1D / 2D
    #: distributed pod), ``"repair"`` (incremental repair of cached
    #: levels after a mutation) or ``"serial"`` (circuit-breaker
    #: fallback).
    engine: str = "solo"
    #: Edges a solo traversal from this source expands (Graph500 credit).
    traversed_edges: int = 0
    #: Registry version of the graph this answer was computed against
    #: (0 until the spec is first mutated).
    graph_version: int = 0
    #: ``None`` for served queries, else the typed-rejection reason
    #: (``"queue_full"``, ``"deadline"`` or ``"quota"``) — the ``kind``
    #: of the :class:`~repro.errors.AdmissionError` that refused it.
    rejected: str | None = None

    @property
    def served(self) -> bool:
        return self.rejected is None

    @property
    def latency_ms(self) -> float:
        """Client-arrival-to-completion latency on the virtual clock."""
        return self.finish_ms - self.query.client_arrival_ms

    @property
    def batched(self) -> bool:
        return self.batch_sources > 1
