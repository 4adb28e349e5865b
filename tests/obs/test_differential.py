"""The obs plane's hard invariant, tested differentially.

Enabling the whole observability stack — decision audit, SLO engine,
bounded-memory sketches — must never change an answer or a kernel:
for every engine tier and also under a fault plan, the served level
arrays and the kernel launch stream (the tracer's span timeline) are
bit-identical between an obs-enabled and an obs-disabled run of the
same trace.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultRule
from repro.obs import AuditLog, SloEngine, SloSpec
from repro.service.runtime import BFSService
from repro.service.trace import synthetic_trace
from repro.telemetry import Tracer

SIZES = {"rmat:9": 512, "rmat:10": 1024}

CONFIGS = {
    "solo+concurrent": {},
    "linalg": {"linalg_batch_threshold": 4},
    "1d": {"distributed_threshold_mb": 0.05, "partition": "1d"},
    "2d": {"distributed_threshold_mb": 0.05, "partition": "2d"},
}


def _fault_plan():
    return FaultPlan(seed=7, name="obs-differential-chaos", rules=(
        FaultRule(site="gcd.launch", kind="kernel_launch",
                  probability=0.15, max_triggers=4),
        FaultRule(site="service.registry", kind="evict_storm",
                  probability=0.2, magnitude=2.0),
    ))


def _replay(obs_on: bool, *, fault: bool, **service_kwargs):
    tracer = Tracer()
    kwargs = dict(service_kwargs)
    if obs_on:
        kwargs.update(
            audit=AuditLog(),
            slo=SloEngine(
                [SloSpec(name="all", latency_target_ms=30.0, objective=0.9)]
            ),
            bounded_metrics=True,
        )
    if fault:
        kwargs["fault_injector"] = _fault_plan().injector()
    service = BFSService(workers=2, window_ms=5.0, seed=0, tracer=tracer,
                         **kwargs)
    trace = synthetic_trace(list(SIZES), SIZES, num_queries=48, seed=23)
    report = service.replay(trace)
    return service, report, tracer


def _span_stream(tracer: Tracer) -> list:
    """The full span timeline — dispatch, engine, level and kernel
    spans — with host wall-clock fields dropped (machine noise)."""
    out = []
    for sp in tracer.spans:
        d = sp.to_dict()
        d.pop("host_start_s")
        d.pop("host_end_s")
        out.append(d)
    return out


def _event_stream(tracer: Tracer) -> list:
    """Non-SLO point events; ``slo.*`` events exist only when an SLO
    engine is attached and are additive by design."""
    out = []
    for ev in tracer.events:
        if ev.name.startswith("slo."):
            continue
        d = ev.to_dict()
        d.pop("host_s")
        out.append(d)
    return out


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("fault", [False, True], ids=["clean", "faults"])
def test_obs_never_changes_levels_or_kernel_stream(config, fault):
    _, rep_off, tr_off = _replay(False, fault=fault, **CONFIGS[config])
    svc_on, rep_on, tr_on = _replay(True, fault=fault, **CONFIGS[config])

    # Same outcomes, bit-identical level arrays.
    assert len(rep_on.outcomes) == len(rep_off.outcomes)
    for on, off in zip(rep_on.outcomes, rep_off.outcomes):
        assert on.query.qid == off.query.qid
        assert on.rejected == off.rejected
        assert on.engine == off.engine
        if off.levels is None:
            assert on.levels is None
        else:
            assert on.levels.dtype == off.levels.dtype
            assert np.array_equal(on.levels, off.levels)

    # Bit-identical kernel launch stream: every span (names, parents,
    # virtual timestamps, attrs) matches record for record.
    assert _span_stream(tr_on) == _span_stream(tr_off)
    assert _event_stream(tr_on) == _event_stream(tr_off)

    if fault:
        assert rep_on.metrics.faults_injected > 0
    # The enabled run actually observed: every query got audited.
    assert len(svc_on.audit.queries()) == len(rep_on.outcomes)


def test_bounded_metrics_alone_keeps_summary_counters():
    """Sketch mode changes percentile machinery, not the counters the
    fingerprint reads."""
    _, rep_off, _ = _replay(False, fault=False)
    svc_on, rep_on, _ = _replay(True, fault=False)
    s_off = rep_off.summary("service")
    s_on = rep_on.summary("service")
    for key in ("queries_served", "dispatches", "total_traversed_edges",
                "mean_batch_size", "makespan_ms"):
        assert s_on[key] == s_off[key], key
    # Percentile keys agree within the sketch accuracy band.
    for key in ("p50_ms", "p95_ms", "p99_ms"):
        assert s_on[key] == pytest.approx(s_off[key], rel=0.02)
