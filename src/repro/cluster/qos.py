"""QoS classes and per-tenant token-bucket quotas (virtual time).

The cluster front door admits work under two orthogonal policies:

* :class:`QosClass` — what latency a query class is entitled to. An
  *interactive* query gets a tight default deadline (missing it is a
  typed rejection, never a slow answer); a *batch* query has none and
  simply rides the queue.
* :class:`TenantQuota` — how much work one tenant may submit. A
  classic token bucket refilled on the *virtual* clock: capacity
  ``burst`` tokens, refill ``rate_per_s`` tokens per virtual second,
  one token per query. Like everything else in the simulator it is a
  pure function of the arrival stamps, so a replayed trace rejects
  exactly the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ClusterError

__all__ = [
    "QosClass",
    "TenantQuota",
    "QuotaLedger",
    "DEFAULT_QOS_CLASSES",
]


@dataclass(frozen=True)
class QosClass:
    """One quality-of-service class.

    ``default_deadline_ms`` is applied at the cluster front door to
    queries of this class that carry no explicit deadline; ``None``
    means the class never imposes one.
    """

    name: str
    default_deadline_ms: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ClusterError("QosClass needs a non-empty name")
        if (
            self.default_deadline_ms is not None
            and self.default_deadline_ms <= 0
        ):
            raise ClusterError(
                f"QosClass {self.name!r}: default_deadline_ms must be "
                f"positive, got {self.default_deadline_ms}"
            )


#: The two stock classes: interactive queries carry a 50 ms deadline
#: (tail latency is the contract), batch queries carry none.
DEFAULT_QOS_CLASSES: dict[str, QosClass] = {
    c.name: c
    for c in (
        QosClass("interactive", default_deadline_ms=50.0),
        QosClass("batch", default_deadline_ms=None),
    )
}


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket limit for one tenant.

    rate_per_s:
        Sustained admission rate in queries per virtual second.
    burst:
        Bucket capacity — how many queries may arrive back-to-back
        before the rate limit bites.
    """

    rate_per_s: float
    burst: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ClusterError(
                f"rate_per_s must be positive, got {self.rate_per_s}"
            )
        if self.burst < 1:
            raise ClusterError(f"burst must be >= 1, got {self.burst}")


class QuotaLedger:
    """Token buckets for every quota'd tenant, on the virtual clock.

    Tenants without a configured quota are always admitted. Buckets
    start full; refill is continuous in virtual time, clamped at
    ``burst``. The verdicts are tallied by the front door's decision
    stream, not here.
    """

    def __init__(self, quotas: Mapping[str, TenantQuota] | None = None) -> None:
        self.quotas: dict[str, TenantQuota] = dict(quotas or {})
        self._tokens: dict[str, float] = {
            t: q.burst for t, q in self.quotas.items()
        }
        self._last_ms: dict[str, float] = {t: 0.0 for t in self.quotas}

    def admit(self, tenant: str, now_ms: float) -> bool:
        """Charge one query against ``tenant``'s bucket at ``now_ms``."""
        quota = self.quotas.get(tenant)
        if quota is None:
            return True
        elapsed_s = max(0.0, now_ms - self._last_ms[tenant]) * 1e-3
        self._tokens[tenant] = min(
            quota.burst, self._tokens[tenant] + elapsed_s * quota.rate_per_s
        )
        self._last_ms[tenant] = now_ms
        if self._tokens[tenant] < 1.0:
            return False
        self._tokens[tenant] -= 1.0
        return True

    def tokens(self, tenant: str) -> float | None:
        """Current bucket level, ``None`` for unquota'd tenants."""
        return self._tokens.get(tenant)
