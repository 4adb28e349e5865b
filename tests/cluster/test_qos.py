"""QoS classes and virtual-time token-bucket quotas."""

import pytest

from repro.cluster import (
    DEFAULT_QOS_CLASSES,
    ClusterRouter,
    QosClass,
    QuotaLedger,
    TenantQuota,
)
from repro.errors import ClusterError
from repro.graph.generators import rmat
from repro.service.request import Query


class TestQosClass:
    def test_defaults(self):
        assert DEFAULT_QOS_CLASSES["interactive"].default_deadline_ms == 50.0
        assert DEFAULT_QOS_CLASSES["batch"].default_deadline_ms is None

    def test_name_required(self):
        with pytest.raises(ClusterError):
            QosClass("")

    def test_deadline_positive(self):
        with pytest.raises(ClusterError):
            QosClass("bad", default_deadline_ms=0.0)


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ClusterError):
            TenantQuota(rate_per_s=0)
        with pytest.raises(ClusterError):
            TenantQuota(rate_per_s=10, burst=0.5)


class TestQuotaLedger:
    def test_burst_then_reject(self):
        ledger = QuotaLedger({"t0": TenantQuota(rate_per_s=1000, burst=2)})
        assert ledger.admit("t0", 0.0)
        assert ledger.admit("t0", 0.0)
        assert not ledger.admit("t0", 0.0)  # bucket empty, no time passed

    def test_refill_on_virtual_clock(self):
        # 1000 tokens per virtual second = 1 token per virtual ms.
        ledger = QuotaLedger({"t0": TenantQuota(rate_per_s=1000, burst=1)})
        assert ledger.admit("t0", 0.0)
        assert not ledger.admit("t0", 0.5)  # only half a token back
        assert ledger.admit("t0", 2.0)      # refilled (clamped at burst)

    def test_refill_clamped_at_burst(self):
        ledger = QuotaLedger({"t0": TenantQuota(rate_per_s=1000, burst=2)})
        assert ledger.admit("t0", 0.0)
        # A long idle period refills to burst, not to rate x elapsed.
        ledger.admit("t0", 10_000.0)
        assert ledger.tokens("t0") <= 2.0

    def test_unquotad_tenant_always_admitted(self):
        ledger = QuotaLedger({"t0": TenantQuota(rate_per_s=1, burst=1)})
        for t in range(50):
            assert ledger.admit("free", float(t) * 1e-3)
        assert ledger.tokens("free") is None

    def test_determinism(self):
        def run():
            ledger = QuotaLedger({"t0": TenantQuota(rate_per_s=300, burst=3)})
            return [ledger.admit("t0", i * 1.7) for i in range(40)]

        assert run() == run()


class TestQuotaVerdicts:
    def test_front_door_tallies_verdicts_per_tenant(self):
        # The ledger only keeps buckets; the front door's decision
        # stream counts each tenant's verdicts, quota'd or not.
        router = ClusterRouter(
            replicas=1, builder=lambda spec: rmat(int(spec), 8, seed=1),
            quotas={"t0": TenantQuota(rate_per_s=1000, burst=2)},
        )
        tenants = ["t0", "t0", "t0", "free", "free"]
        router.replay([Query(qid=i, graph="6", source=i, arrival_ms=0.0, tenant=t)
                       for i, t in enumerate(tenants)])
        stats = router.report().quota_stats
        assert stats == {
            "tenants": {"free": {"admitted": 2, "rejected": 0},
                        "t0": {"admitted": 2, "rejected": 1}},
            "admitted": 4,
            "rejected": 1,
        }
        assert router.report().summary()["rejected_quota"] == 1
