"""Fault injection at the GCD simulator's own sites."""

import pytest

from repro.errors import DeviceFaultError
from repro.faults import FaultPlan, FaultRule
from repro.gcd.device import MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import seq_read
from repro.gcd.simulator import GCD


def _launch(gcd, name="k"):
    return gcd.launch(
        name,
        strategy="test",
        level=0,
        streams=[seq_read("a", 1000)],
        work=ComputeWork(flat_ops=100),
        work_items=10,
    )


def _spec(name="k"):
    return dict(
        name=name,
        strategy="test",
        level=0,
        streams=[seq_read("a", 1000)],
        work=ComputeWork(flat_ops=100),
        work_items=10,
    )


def _plan(*rules, seed=0):
    return FaultPlan(seed=seed, rules=tuple(rules))


class TestLaunchSite:
    def test_aborted_launch_charges_nothing(self):
        plan = _plan(FaultRule(site="gcd.launch", kind="kernel_launch",
                               max_triggers=1))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        with pytest.raises(DeviceFaultError, match="kernel_launch"):
            _launch(gcd)
        assert gcd.elapsed_ms == 0.0
        assert gcd.launches == 0
        assert gcd.profiler.records == []

    def test_memory_corruption_also_aborts(self):
        plan = _plan(FaultRule(site="gcd.launch", kind="memory_corruption",
                               max_triggers=1))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        with pytest.raises(DeviceFaultError, match="memory_corruption"):
            _launch(gcd)
        assert gcd.elapsed_ms == 0.0

    def test_budget_exhausts_then_launch_succeeds(self):
        plan = _plan(FaultRule(site="gcd.launch", kind="kernel_launch",
                               max_triggers=2))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        for _ in range(2):
            with pytest.raises(DeviceFaultError):
                _launch(gcd)
        record = _launch(gcd)
        assert record.runtime_ms > 0
        assert gcd.launches == 1

    def test_latency_scales_runtime_and_clock(self):
        clean = GCD(MI250X_GCD)
        base = _launch(clean).runtime_ms

        plan = _plan(FaultRule(site="gcd.launch", kind="latency",
                               magnitude=4.0))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        record = _launch(gcd)
        assert record.runtime_ms == pytest.approx(4.0 * base)
        assert gcd.elapsed_ms == pytest.approx(4.0 * base)

    def test_detail_filter_targets_one_kernel(self):
        plan = _plan(FaultRule(site="gcd.launch", kind="kernel_launch",
                               detail="bu_expand"))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        _launch(gcd, "td_expand")  # unaffected
        with pytest.raises(DeviceFaultError):
            _launch(gcd, "bu_expand")


class TestConcurrentAndSyncSites:
    def test_concurrent_group_aborts_atomically(self):
        plan = _plan(FaultRule(site="gcd.launch_concurrent",
                               kind="kernel_launch", max_triggers=1))
        gcd = GCD(MI250X_GCD, ExecConfig(num_streams=2),
                  injector=plan.injector())
        before = gcd.elapsed_ms
        with pytest.raises(DeviceFaultError):
            gcd.launch_concurrent([_spec("x"), _spec("y")])
        assert gcd.elapsed_ms == before
        assert gcd.launches == 0
        records = gcd.launch_concurrent([_spec("x"), _spec("y")])
        assert len(records) == 2

    def test_concurrent_latency_scales_wall_time(self):
        clean = GCD(MI250X_GCD, ExecConfig(num_streams=2))
        clean.launch_concurrent([_spec("x"), _spec("y")])
        base = clean.elapsed_ms

        plan = _plan(FaultRule(site="gcd.launch_concurrent", kind="latency",
                               magnitude=3.0))
        gcd = GCD(MI250X_GCD, ExecConfig(num_streams=2),
                  injector=plan.injector())
        gcd.launch_concurrent([_spec("x"), _spec("y")])
        assert gcd.elapsed_ms == pytest.approx(3.0 * base)

    def test_sync_site_faults(self):
        plan = _plan(FaultRule(site="gcd.sync", kind="memory_corruption",
                               max_triggers=1))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        _launch(gcd)
        with pytest.raises(DeviceFaultError):
            gcd.sync()

    def test_quiesce_is_fault_immune(self):
        """Recovery's settle-sync must never re-fault — otherwise a
        restart could livelock against its own cleanup."""
        plan = _plan(FaultRule(site="gcd.*", kind="kernel_launch"))
        gcd = GCD(MI250X_GCD, injector=plan.injector())
        for _ in range(5):
            gcd.quiesce()  # unbounded always-fire rule, still clean

    def test_quiesce_costs_like_sync(self):
        a = GCD(MI250X_GCD)
        a.sync()
        b = GCD(MI250X_GCD)
        b.quiesce()
        assert a.elapsed_ms == pytest.approx(b.elapsed_ms)


def test_no_injector_is_zero_overhead_path():
    """Without an injector the simulator behaves exactly as before."""
    a, b = GCD(MI250X_GCD), GCD(MI250X_GCD, injector=None)
    ra, rb = _launch(a), _launch(b)
    assert ra.runtime_ms == rb.runtime_ms
    assert a.elapsed_ms == b.elapsed_ms
