"""The four seeded serving workloads of the end-to-end benchmark.

Each workload is a traffic mix replayed through the cluster front door
(:meth:`repro.cluster.router.ClusterRouter.replay`). The benchmark, not
the program, builds every trace: numpy draws the arrivals, the burst
order and the sources from the run's seed, and
:func:`repro.graph.delta.random_delta` draws the edge mutations. The
program only ever receives the generated
:class:`~repro.service.request.Query` list.

Arrivals are an open loop on the virtual clock: every query is stamped
with its due time whatever the service is doing, and modelled latency
is charged from that stamp, so the generator is never late.

The seed moves *what* is asked, not *when* or *how much*. Each workload
fixes its graphs (``GRAPH_SEED``) and its schedule: the bursts per graph,
their order, the arrival gaps, tenants and QoS classes. The seed draws
every source (but the first on each graph) and the edges every mutation
touches. Runs with different seeds therefore load the service the same
way, and their numbers differ by what the program does with different
questions, not by how a seed happened to split the load between a small
and a large graph. Sources follow the Graph500 rule: vertices with at
least one out-edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cli import parse_graph_spec
from repro.cluster.qos import TenantQuota
from repro.cluster.router import ClusterRouter
from repro.faults import FaultPlan, FaultRule
from repro.graph.csr import CSRGraph
from repro.graph.delta import apply_delta, random_delta
from repro.obs import AuditLog, SloEngine, SloSpec
from repro.service.request import Query

__all__ = ["WORKLOADS", "Trace", "Workload", "build_graphs"]

#: Seed of every graph build; the benchmark's ``--seed`` never moves it.
GRAPH_SEED = 0

#: churn-ops: share of queries sent by the noisy neighbour ``t0``, and
#: the token bucket that rejects its excess.
NOISY_SHARE = 0.4
NOISY_QUOTA = TenantQuota(rate_per_s=420.0, burst=16.0)
#: churn-ops: sources per graph in the hot set, and the share of
#: queries that draw from it.
HOT_SOURCES = 16
HOT_SHARE = 0.8
#: churn-ops: one edge-delta mutation per this many BFS queries.
MUTATION_EVERY = 100


@dataclass
class Trace:
    """One generated trace and the graph versions its answers need."""

    queries: list[Query]
    #: spec -> graph at version 0, 1, ... (mutations applied in order).
    versions: dict[str, list[CSRGraph]]

    @property
    def bfs(self) -> list[Query]:
        return [q for q in self.queries if not q.is_mutation]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: graphs, router shape and trace shape."""

    name: str
    specs: tuple[str, ...]
    #: Bursts per graph (aligned with ``specs``); burst ``i`` of a graph
    #: carries ``sizes[i % len(sizes)]`` queries sharing one stamp.
    bursts: tuple[int, ...]
    sizes: tuple[int, ...]
    mean_gap_ms: float
    #: Modelled-latency limit a served query must meet to count as good.
    slo_ms: float
    router_kwargs: dict = field(default_factory=dict)
    #: QoS class of every query; ``None`` draws 70% interactive.
    qos: str | None = "interactive"
    #: Tenants, a hot source set, edge-delta mutations, the fault plan
    #: and the full obs plane (churn-ops only).
    churn: bool = False

    @property
    def num_queries(self) -> int:
        return sum(
            self.sizes[i % len(self.sizes)]
            for count in self.bursts
            for i in range(count)
        )

    def router(self, graphs: dict, seed: int, *, obs: bool = True) -> ClusterRouter:
        """A fresh front door over pre-built ``graphs`` (cold registry).

        ``obs=False`` drops the obs plane for the A/B comparison; every
        other setting, the fault plan included, stays the same.
        """
        kwargs = dict(self.router_kwargs)
        if self.churn:
            kwargs["fault_plan"] = _fault_plan(seed)
            if obs:
                kwargs.update(
                    audit=AuditLog(),
                    slo=SloEngine(
                        [
                            SloSpec("interactive", 50.0, objective=0.99, qos="interactive"),
                            SloSpec("batch", 200.0, objective=0.95, qos="batch"),
                        ]
                    ),
                    bounded_metrics=True,
                )
        return ClusterRouter(builder=graphs.__getitem__, **kwargs)

    def trace(self, graphs: dict, seed: int, num_queries: int | None = None) -> Trace:
        """The trace for ``seed``, cut after ``num_queries`` BFS queries.

        ``sched`` draws the schedule from the workload's name alone:
        burst order, arrival gaps, tenants, QoS classes, hot-set picks
        and mutation targets and sizes. ``rng`` draws what the seed
        moves: every source, the hot set and the edges each delta
        touches.
        """
        sched = np.random.default_rng(_stable_id(self.name))
        rng = np.random.default_rng([seed, _stable_id(self.name)])
        n = self.num_queries if num_queries is None else num_queries
        plan = [
            (spec, self.sizes[i % len(self.sizes)])
            for spec, count in zip(self.specs, self.bursts)
            for i in range(count)
        ]
        plan = [plan[i] for i in sched.permutation(len(plan))]
        cands = {spec: np.flatnonzero(g.degrees > 0) for spec, g in graphs.items()}
        # The first query on each graph starts from the same vertex in
        # every trace: the model charges each simulated device's one-time
        # warm-up by the shape of the first traversal, and a seed should
        # not move that.
        first = {spec: int(c[0]) for spec, c in cands.items()}
        versions = {spec: [g] for spec, g in graphs.items()}
        if self.churn:
            hot = {s: rng.choice(c, size=HOT_SOURCES, replace=False) for s, c in cands.items()}
            targets = sched.permutation(np.resize(self.specs, max(1, n // MUTATION_EVERY)))
        queries: list[Query] = []
        bfs = 0
        t = 0.0
        for spec, size in plan:
            size = min(size, n - bfs)
            if size <= 0:
                break
            if not self.churn:
                srcs = rng.choice(cands[spec], size=size, replace=False)
                if spec in first:
                    head = first.pop(spec)
                    srcs = np.concatenate(([head], srcs[srcs != head]))[:size]
                for src in srcs:
                    queries.append(
                        Query(len(queries), spec, int(src), arrival_ms=t, qos=self.qos)
                    )
                bfs += size
                t += float(sched.exponential(self.mean_gap_ms))
                continue
            for _ in range(size):
                if bfs % MUTATION_EVERY == MUTATION_EVERY // 2:
                    m = bfs // MUTATION_EVERY
                    target = str(targets[m % len(targets)])
                    delta = random_delta(
                        versions[target][-1],
                        num_inserts=int(sched.integers(1, 8)),
                        # every 4th mutation also deletes, which rules out repair
                        num_deletes=int(m % 4 == 3),
                        seed=int(rng.integers(2**31)),
                    )
                    versions[target].append(apply_delta(versions[target][-1], delta))
                    queries.append(
                        Query(len(queries), target, 0, arrival_ms=t, op="mutate", delta=delta)
                    )
                pool = hot[spec] if sched.random() < HOT_SHARE else cands[spec]
                src = first.pop(spec) if spec in first else int(rng.choice(pool))
                tenant = "t0" if sched.random() < NOISY_SHARE else f"t{1 + int(sched.integers(3))}"
                queries.append(
                    Query(
                        len(queries), spec, src, arrival_ms=t,
                        tenant=tenant,
                        qos="interactive" if sched.random() < 0.7 else "batch",
                    )
                )
                bfs += 1
            t += float(sched.exponential(self.mean_gap_ms))
        return Trace(queries, versions)


def build_graphs(specs) -> dict[str, CSRGraph]:
    return {spec: parse_graph_spec(spec, seed=GRAPH_SEED) for spec in specs}


def _stable_id(name: str) -> int:
    return sum(ord(c) * 31**i for i, c in enumerate(name)) % (2**31)


def _fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        name="churn-ops",
        rules=(
            FaultRule("gcd.launch", "kernel_launch", probability=0.001),
            # Stragglers stay rare: one that lands on a device's first
            # launch also triples its 20 ms warm-up, and at p=0.01 that
            # moved p99 from 27 to 46 ms in 2-3 seeds out of 10.
            FaultRule("gcd.launch", "latency", probability=0.002, magnitude=3.0),
            # Two deaths at fixed points of the schedule (a replica is
            # probed once per arrival while alive): their timing is part
            # of the workload, not a draw that swings the tail per seed.
            FaultRule(
                "cluster.replica", "replica_death", magnitude=200.0,
                max_triggers=1, after=300, detail="replica0",
            ),
            FaultRule(
                "cluster.replica", "replica_death", magnitude=200.0,
                max_triggers=1, after=800, detail="replica1",
            ),
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "solo-sparse",
            specs=("rmat:12", "rmat:13", "rmat:14"),
            bursts=(334, 333, 333),
            sizes=(1,),
            mean_gap_ms=8.0,
            slo_ms=1.0,
            router_kwargs={"replicas": 1, "workers": 2, "window_ms": 0.0},
        ),
        Workload(
            "batch-burst",
            specs=("rmat:13", "rmat:14", "rmat:15"),
            bursts=(9, 9, 9),
            sizes=(16, 64, 128),
            mean_gap_ms=25.0,
            slo_ms=50.0,
            qos="batch",
            router_kwargs={
                "replicas": 1, "workers": 2,
                "linalg_batch_threshold": 64, "memory_budget_mb": 8.0,
                # A batch client queues deep: two 128-source bursts must
                # not be refused by the default 256-slot queue.
                "max_queue_depth": 1024,
            },
        ),
        Workload(
            "pod-large",
            specs=("rmat:12", "rmat:13", "rmat:15"),
            bursts=(56, 56, 13),
            sizes=(8,),
            mean_gap_ms=6.0,
            slo_ms=40.0,
            router_kwargs={
                "replicas": 1, "workers": 2, "num_gcds": 4,
                "distributed_threshold_mb": 2.0, "partition": "1d",
            },
        ),
        Workload(
            "churn-ops",
            specs=("rmat:12", "rmat:13", "rmat:14"),
            bursts=(50, 50, 50),
            sizes=(8,),
            mean_gap_ms=8.0,
            slo_ms=50.0,
            qos=None,
            router_kwargs={
                "replicas": 2, "workers": 2, "linalg_batch_threshold": 64,
                "quotas": {"t0": NOISY_QUOTA},
            },
            churn=True,
        ),
    )
}
