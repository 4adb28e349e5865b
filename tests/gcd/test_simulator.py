"""Tests for the GCD runtime (streams, syncs, warm-up, reset)."""

import pytest

from repro.errors import KernelLaunchError
from repro.gcd.device import MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig
from repro.gcd.memory import seq_read
from repro.gcd.simulator import GCD


def _launch(gcd, name="k", stream_id=0):
    return gcd.launch(
        name,
        strategy="test",
        level=0,
        streams=[seq_read("a", 1000)],
        work=ComputeWork(flat_ops=100),
        work_items=10,
        stream_id=stream_id,
    )


class TestLaunch:
    def test_elapsed_accumulates(self):
        gcd = GCD(MI250X_GCD)
        r1 = _launch(gcd)
        r2 = _launch(gcd)
        assert gcd.elapsed_ms == pytest.approx(r1.runtime_ms + r2.runtime_ms)
        assert gcd.launches == 2

    def test_first_launch_pays_warmup(self):
        gcd = GCD(MI250X_GCD)
        r1 = _launch(gcd)
        r2 = _launch(gcd)
        assert r1.runtime_ms > r2.runtime_ms + 0.9 * MI250X_GCD.first_launch_warmup_ms

    def test_stream_out_of_range(self):
        gcd = GCD(MI250X_GCD, ExecConfig(num_streams=1))
        with pytest.raises(KernelLaunchError, match="stream"):
            _launch(gcd, stream_id=1)

    def test_records_collected(self):
        gcd = GCD(MI250X_GCD)
        _launch(gcd, "a")
        _launch(gcd, "b")
        assert [r.name for r in gcd.profiler.records] == ["a", "b"]


class TestConcurrent:
    def _spec(self, name="k"):
        return dict(
            name=name,
            strategy="test",
            level=0,
            streams=[seq_read("a", 100_000)],
            work=ComputeWork(flat_ops=1e5),
            work_items=1,
        )

    def test_wall_time_overlaps_overheads_serialises_work(self):
        """Streams hide launch latency but share the memory system and
        CUs: the group's wall time is the max overhead plus the summed
        work terms — more than one kernel, less than three."""
        gcd = GCD(MI250X_GCD, ExecConfig(num_streams=3))
        _launch(gcd)  # absorb warm-up
        before = gcd.elapsed_ms
        records = gcd.launch_concurrent([self._spec("x"), self._spec("y"), self._spec("z")])
        assert len(records) == 3
        wall = gcd.elapsed_ms - before
        expected = max(r.overhead_ms for r in records) + sum(
            max(r.compute_ms, r.mem_ms) for r in records
        )
        assert wall == pytest.approx(expected)
        assert wall < sum(r.runtime_ms for r in records)
        assert wall >= max(r.runtime_ms for r in records)

    def test_too_many_streams(self):
        gcd = GCD(MI250X_GCD, ExecConfig(num_streams=2))
        with pytest.raises(KernelLaunchError, match="streams"):
            gcd.launch_concurrent([self._spec()] * 3)

    def test_empty_group(self):
        gcd = GCD(MI250X_GCD)
        assert gcd.launch_concurrent([]) == []


class TestSync:
    def test_sync_cost_scales_with_dirty_streams(self):
        """The Section IV-B effect: three active streams cost three
        synchronisations — the motivation for consolidation."""
        single = GCD(MI250X_GCD, ExecConfig(num_streams=1))
        _launch(single)
        one = single.sync()

        multi = GCD(MI250X_GCD, ExecConfig(num_streams=3))
        multi.launch_concurrent(
            [
                dict(
                    name="k",
                    strategy="t",
                    level=0,
                    streams=[],
                    work=ComputeWork(),
                    work_items=0,
                )
            ]
            * 3
        )
        three = multi.sync()
        assert three == pytest.approx(3 * one)

    def test_sync_clears_dirty_set(self):
        gcd = GCD(MI250X_GCD)
        _launch(gcd)
        first = gcd.sync()
        second = gcd.sync()  # nothing in flight: still one baseline sync
        assert second == pytest.approx(first)
        assert gcd.syncs == 2

    def test_kernel_ms_excludes_sync(self):
        gcd = GCD(MI250X_GCD)
        r = _launch(gcd)
        gcd.sync()
        assert gcd.kernel_ms == pytest.approx(r.runtime_ms)


class TestReset:
    def test_cold_reset(self):
        gcd = GCD(MI250X_GCD)
        _launch(gcd)
        gcd.reset()
        assert gcd.elapsed_ms == 0
        assert gcd.profiler.records == []
        r = _launch(gcd)
        assert r.runtime_ms > MI250X_GCD.first_launch_warmup_ms  # cold again

    def test_warm_reset(self):
        gcd = GCD(MI250X_GCD)
        _launch(gcd)
        gcd.reset(keep_warm=True)
        r = _launch(gcd)
        assert r.runtime_ms < 1.0  # no warm-up charge
