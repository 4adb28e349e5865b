"""repro.obs — operator-facing observability on top of repro.telemetry.

Every serving decision is emitted once into a
:class:`~repro.obs.stream.DecisionStream`; metrics, audit rows, SLO
state and trace events are folds over it, so they cannot disagree:

* bounded-memory streaming metrics —
  :class:`repro.telemetry.sketch.LatencySketch` behind
  ``ServiceMetrics(exact_percentiles=False)``;
* a declarative SLO engine with multi-window burn-rate alerting
  (:mod:`repro.obs.slo`);
* a decision-audit "explain" plane keyed by query id
  (:mod:`repro.obs.audit`, rendered by ``repro explain``);
* live cluster health snapshots (:mod:`repro.obs.health`,
  rendered by ``repro top``), which read the folds.

The hard invariant across all of them: enabling them never changes a
level array or the kernel launch stream.
"""

from repro.obs.audit import NULL_AUDIT, STAGES, AuditLog, AuditRecord
from repro.obs.health import (
    breaker_state,
    cluster_health,
    render_health,
    service_health,
    write_health,
)
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BurnRule,
    SloEngine,
    SloSpec,
    parse_slo_spec,
)
from repro.obs.stream import DecisionStream
from repro.telemetry.sketch import LatencySketch

__all__ = [
    "AuditLog",
    "AuditRecord",
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "DecisionStream",
    "LatencySketch",
    "NULL_AUDIT",
    "STAGES",
    "SloEngine",
    "SloSpec",
    "breaker_state",
    "cluster_health",
    "parse_slo_spec",
    "render_health",
    "service_health",
    "write_health",
]
