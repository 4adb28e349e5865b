"""Query traces: JSONL round-trip and synthetic open-loop generation.

Trace format — one JSON object per line, in arrival order::

    {"t_ms": 0.0, "graph": "rmat:10", "source": 5}
    {"t_ms": 0.0, "graph": "rmat:10", "source": 9, "deadline_ms": 50.0}
    {"t_ms": 2.5, "graph": "LJ", "source": 17, "force": "bottom_up"}
    {"t_ms": 4.0, "graph": "rmat:10", "op": "mutate", "insert": [[3, 9]]}

``t_ms`` is the virtual arrival stamp, ``graph`` any CLI graph spec,
``source`` the BFS root. Optional fields: ``deadline_ms`` (admission
deadline), ``force`` (pin a strategy — makes the query solo-only),
``max_levels``, ``record_parents``, ``tenant`` and ``qos``
(multi-tenant attribution for the cluster front door; defaults
``"default"`` / ``"interactive"``). Query ids are assigned from line
order, so a trace file fully determines a replay.

Mutation records carry ``op: "mutate"`` plus ``insert`` / ``delete``
lists of ``[u, v]`` edge pairs (at least one edge total); ``source``
is optional for them and ignored. A mutation is a barrier at its
arrival stamp: earlier arrivals traverse the pre-mutation graph,
later ones the mutated graph.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import MutationError, ServiceError
from repro.graph.delta import GraphDelta
from repro.service.request import Query, QueryOptions

__all__ = ["load_trace", "save_trace", "synthetic_trace"]


def save_trace(queries: Iterable[Query], path: str | Path) -> None:
    """Write queries as JSONL (one record per line, arrival order)."""
    lines = []
    for q in queries:
        if q.op == "mutate":
            if q.delta is None:
                raise ServiceError(
                    f"query {q.qid}: op='mutate' without a delta"
                )
            rec = {"t_ms": q.arrival_ms, "graph": q.graph, "op": "mutate"}
            rec.update(q.delta.to_dict())
            if q.tenant != "default":
                rec["tenant"] = q.tenant
            if q.qos != "interactive":
                rec["qos"] = q.qos
            lines.append(json.dumps(rec, sort_keys=True))
            continue
        rec = {"t_ms": q.arrival_ms, "graph": q.graph, "source": q.source}
        if q.deadline_ms is not None:
            rec["deadline_ms"] = q.deadline_ms
        if q.options.force_strategy is not None:
            rec["force"] = q.options.force_strategy
        if q.options.max_levels is not None:
            rec["max_levels"] = q.options.max_levels
        if q.options.record_parents:
            rec["record_parents"] = True
        if q.tenant != "default":
            rec["tenant"] = q.tenant
        if q.qos != "interactive":
            rec["qos"] = q.qos
        lines.append(json.dumps(rec, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_trace(path: str | Path) -> list[Query]:
    """Parse a JSONL trace into arrival-ordered :class:`Query` records."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ServiceError(f"cannot read trace {path}: {exc}") from exc
    queries: list[Query] = []
    prev_t = float("-inf")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{path}:{lineno}: bad trace JSON: {exc}") from exc
        op = str(rec.get("op", "bfs"))
        if op == "mutate":
            try:
                t_ms = float(rec["t_ms"])
                graph = str(rec["graph"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    f"{path}:{lineno}: mutate records need t_ms, graph"
                ) from exc
            if t_ms < prev_t:
                raise ServiceError(
                    f"{path}:{lineno}: arrivals must be non-decreasing "
                    f"({t_ms} after {prev_t})"
                )
            prev_t = t_ms
            try:
                delta = GraphDelta.from_dict(rec)
            except MutationError as exc:
                raise ServiceError(
                    f"{path}:{lineno}: bad mutation delta: {exc}"
                ) from exc
            if delta.is_empty:
                raise ServiceError(
                    f"{path}:{lineno}: mutate record with no edges"
                )
            queries.append(
                Query(
                    qid=len(queries),
                    graph=graph,
                    source=int(rec.get("source", 0)),
                    arrival_ms=t_ms,
                    tenant=str(rec.get("tenant", "default")),
                    qos=str(rec.get("qos", "interactive")),
                    op="mutate",
                    delta=delta,
                )
            )
            continue
        if op != "bfs":
            raise ServiceError(f"{path}:{lineno}: unknown trace op {op!r}")
        try:
            t_ms = float(rec["t_ms"])
            graph = str(rec["graph"])
            source = int(rec["source"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                f"{path}:{lineno}: trace records need t_ms, graph, source"
            ) from exc
        if t_ms < prev_t:
            raise ServiceError(
                f"{path}:{lineno}: arrivals must be non-decreasing "
                f"({t_ms} after {prev_t})"
            )
        prev_t = t_ms
        options = QueryOptions(
            force_strategy=rec.get("force"),
            record_parents=bool(rec.get("record_parents", False)),
            max_levels=rec.get("max_levels"),
        )
        queries.append(
            Query(
                qid=len(queries),
                graph=graph,
                source=source,
                arrival_ms=t_ms,
                deadline_ms=rec.get("deadline_ms"),
                options=options,
                tenant=str(rec.get("tenant", "default")),
                qos=str(rec.get("qos", "interactive")),
            )
        )
    return queries


def synthetic_trace(
    graphs: Sequence[str],
    num_vertices: Mapping[str, int],
    *,
    num_queries: int = 200,
    seed: int = 0,
    mean_gap_ms: float = 1.0,
    burst: int = 8,
    deadline_ms: float | None = None,
    tenants: int | None = None,
    interactive_frac: float = 0.7,
) -> list[Query]:
    """Deterministic open-loop load: bursts of same-graph queries.

    Arrivals come in bursts of ``burst`` queries sharing one timestamp
    and one graph (the coalescing opportunity); gaps between bursts are
    exponential with mean ``mean_gap_ms``. Sources are uniform over
    ``num_vertices[spec]``. With ``tenants`` set, each query also draws
    a tenant (``t0..t{tenants-1}``) and a QoS class (interactive with
    probability ``interactive_frac``, else batch) from the same RNG,
    right after its source; without it no tenant or QoS value is drawn
    and queries keep the defaults. ``deadline_ms`` pins an explicit
    deadline on every query; ``None`` leaves deadlines to the cluster
    router's QoS classes. Fully determined by ``seed``.
    """
    if not graphs:
        raise ServiceError("synthetic_trace needs at least one graph spec")
    missing = [g for g in graphs if g not in num_vertices]
    if missing:
        raise ServiceError(f"num_vertices missing for specs {missing}")
    if burst < 1:
        raise ServiceError("burst must be >= 1")
    if tenants is not None and tenants < 1:
        raise ServiceError(f"tenants must be >= 1, got {tenants}")
    if not 0.0 <= interactive_frac <= 1.0:
        raise ServiceError(
            f"interactive_frac must be in [0, 1], got {interactive_frac}"
        )
    rng = np.random.default_rng(seed)
    queries: list[Query] = []
    t = 0.0
    while len(queries) < num_queries:
        spec = graphs[int(rng.integers(len(graphs)))]
        n = int(num_vertices[spec])
        size = min(burst, num_queries - len(queries))
        for _ in range(size):
            source = int(rng.integers(n))
            labels = {}
            if tenants is not None:
                labels["tenant"] = f"t{int(rng.integers(tenants))}"
                labels["qos"] = (
                    "interactive" if rng.random() < interactive_frac else "batch"
                )
            queries.append(
                Query(
                    qid=len(queries),
                    graph=spec,
                    source=source,
                    arrival_ms=t,
                    deadline_ms=deadline_ms,
                    **labels,
                )
            )
        t += float(rng.exponential(mean_gap_ms))
    return queries
