"""The GCD runtime: launch kernels, track streams, charge sync costs.

One :class:`GCD` instance models one Graphics Compute Die executing one
BFS run. It owns a :class:`~repro.gcd.profiler.Profiler`, a wall clock
(``elapsed_ms``), and the stream bookkeeping that makes the paper's
"cost of device synchronisation" optimisation visible:

* ``launch``         — serial kernel on one stream; clock += runtime.
* ``launch_concurrent`` — a group of kernels on distinct streams (the
  CUDA design's small/medium/large frontier bins); clock += max of the
  group, because streams overlap.
* ``sync``           — device synchronisation; clock += sync cost ×
  number of *active* streams. With three streams this is what the
  paper's consolidation to one stream eliminates.

The first kernel of a run additionally pays the warm-up charge.

An optional :class:`~repro.faults.injector.FaultInjector` makes the
die *unreliable on schedule*: every launch, concurrent group and sync
visits its named site (``gcd.launch`` / ``gcd.launch_concurrent`` /
``gcd.sync``) first. A raising rule aborts the operation with
:class:`~repro.errors.DeviceFaultError` before any cost is charged or
any counter row is recorded — the die stays consistent, so a recovery
layer can simply re-issue the work; a latency rule multiplies the
operation's modelled cost (an HBM straggler), degrading time but never
results.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import KernelLaunchError
from repro.gcd.device import DeviceProfile, MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig, KernelCostModel, KernelRecord
from repro.gcd.memory import AccessStream
from repro.gcd.profiler import Profiler

__all__ = ["GCD"]


class GCD:
    """One simulated Graphics Compute Die."""

    def __init__(
        self,
        device: DeviceProfile = MI250X_GCD,
        config: ExecConfig | None = None,
        *,
        injector=None,
        tracer=None,
    ) -> None:
        self.device = device
        self.config = config or ExecConfig()
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: set, every launch/sync visits its fault site first.
        self.injector = injector
        #: Optional :class:`~repro.telemetry.tracer.Tracer`; every
        #: kernel launch and device sync lands on its virtual timeline
        #: as a finished span (one attribute check when tracing is off).
        self.tracer = tracer
        self.cost_model = KernelCostModel(device)
        self.profiler = Profiler()
        self.elapsed_ms = 0.0
        self.sync_ms = 0.0
        self.launches = 0
        self.syncs = 0
        self._warm = False
        self._streams_dirty: set[int] = set()

    # ------------------------------------------------------------------
    def launch(
        self,
        name: str,
        *,
        strategy: str,
        level: int,
        streams: list[AccessStream],
        work: ComputeWork | None = None,
        work_items: int = 0,
        stream_id: int = 0,
        bottom_up: bool = False,
        ratio: float = 0.0,
        setup: bool = False,
    ) -> KernelRecord:
        """Run one kernel serially on ``stream_id`` and account it.

        ``setup`` kernels (status initialisation) do not absorb the
        first-launch warm-up: like the paper's profiles, the charge
        lands on the first *traversal* kernel, which is why level 0 of
        Tables III-V carries the ~20 ms row.
        """
        if stream_id >= self.config.num_streams:
            raise KernelLaunchError(
                f"stream {stream_id} out of range for {self.config.num_streams}-stream config"
            )
        fault_scale = 1.0
        if self.injector is not None:
            # May raise DeviceFaultError: the launch aborts with no cost
            # charged and no record added, leaving the die re-issuable.
            fault_scale = self.injector.visit("gcd.launch", name)
        record = self._book(
            name, strategy=strategy, level=level, streams=streams, work=work,
            work_items=work_items, stream_id=stream_id, bottom_up=bottom_up,
            ratio=ratio, setup=setup, fault_scale=fault_scale,
        )
        tr = self.tracer
        if tr is not None and tr.enabled:
            # Emitted before the clock charge so the rebased span start
            # equals the die's pre-launch position on the timeline.
            tr.complete(
                f"kernel:{name}",
                duration_ms=record.runtime_ms,
                **record.trace_args(),
            )
        self.elapsed_ms += record.runtime_ms
        return record

    def launch_concurrent(self, specs: list[dict]) -> list[KernelRecord]:
        """Run a group of kernels on distinct streams.

        Each spec holds :meth:`launch`'s keywords for one kernel (name,
        strategy, level, streams, work, work_items, bottom_up, ratio);
        kernel ``i`` runs on stream ``i``.

        Streams overlap launch latencies, but the kernels share one
        memory system and one set of compute units, so their *work*
        portions serialise: wall time is the largest launch overhead
        plus the sum of the per-kernel work terms. (Treating concurrent
        streams as free parallelism would make the CUDA-era 3-stream
        design look better on AMD than the paper measured.)"""
        if not specs:
            return []
        if len(specs) > self.config.num_streams:
            raise KernelLaunchError(
                f"{len(specs)} concurrent kernels need {len(specs)} streams, "
                f"config has {self.config.num_streams}"
            )
        fault_scale = 1.0
        if self.injector is not None:
            # One visit for the whole group, before any kernel is
            # evaluated: a fault aborts the group atomically.
            fault_scale = self.injector.visit(
                "gcd.launch_concurrent", ",".join(s["name"] for s in specs)
            )
        records = [self._book(stream_id=sid, **spec) for sid, spec in enumerate(specs)]
        wall = max(r.overhead_ms for r in records) + sum(
            max(r.compute_ms, r.mem_ms) for r in records
        )
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.complete(
                "kernel:concurrent_group",
                duration_ms=wall * fault_scale,
                kernels=",".join(r.name for r in records),
                level=records[0].level,
                strategy=records[0].strategy,
                streams=len(records),
            )
        self.elapsed_ms += wall * fault_scale
        return records

    def _book(
        self,
        name: str,
        *,
        strategy: str,
        level: int,
        streams: list[AccessStream],
        stream_id: int,
        work: ComputeWork | None = None,
        work_items: int = 0,
        bottom_up: bool = False,
        ratio: float = 0.0,
        setup: bool = False,
        fault_scale: float = 1.0,
    ) -> KernelRecord:
        """Evaluate one kernel on ``stream_id`` and book it: the
        first-launch warm-up, the launch count, the stream left in
        flight and the profiler row. ``fault_scale`` stretches the
        kernel's runtime (a latency fault). The caller charges the
        clock."""
        record = self.cost_model.evaluate(
            name,
            strategy=strategy,
            level=level,
            streams=streams,
            work=work or ComputeWork(),
            config=self.config,
            work_items=work_items,
            stream_id=stream_id,
            warmup=not (self._warm or setup),
            bottom_up=bottom_up,
            ratio=ratio,
        )
        if fault_scale != 1.0:
            record = replace(record, runtime_ms=record.runtime_ms * fault_scale)
        if not setup:
            self._warm = True
        self.launches += 1
        self._streams_dirty.add(stream_id)
        self.profiler.add(record)
        return record

    def sync(self) -> float:
        """Device synchronisation: every stream that has work in flight
        must be waited on. Returns the cost charged (ms)."""
        fault_scale = 1.0
        if self.injector is not None:
            fault_scale = self.injector.visit("gcd.sync")
        return self._settle("gcd.sync", fault_scale)

    def quiesce(self) -> float:
        """Fault-immune synchronisation for recovery paths: settles
        every in-flight stream (same cost as :meth:`sync`) but never
        visits the fault injector — a die being *recovered* must not
        fault again inside its own recovery step."""
        return self._settle("gcd.quiesce")

    def _settle(self, span: str, fault_scale: float = 1.0) -> float:
        """Wait on every dirty stream: charge the sync cost, emit
        ``span`` and leave no stream in flight."""
        active = max(1, len(self._streams_dirty))
        cost_ms = active * self.device.device_sync_us * 1e-3 * fault_scale
        tr = self.tracer
        if tr is not None and tr.enabled:
            tr.complete(span, duration_ms=cost_ms, streams=active)
        self.elapsed_ms += cost_ms
        self.sync_ms += cost_ms
        self.syncs += 1
        self._streams_dirty.clear()
        return cost_ms

    # ------------------------------------------------------------------
    @property
    def kernel_ms(self) -> float:
        """Time spent inside kernels (elapsed minus sync gaps)."""
        return self.elapsed_ms - self.sync_ms

    def reset(self, *, keep_warm: bool = False) -> None:
        """Fresh run on the same device: clears clock and profiler.

        ``keep_warm=True`` models back-to-back BFS runs in one process
        (the n-to-n measurement): only the first run of a device pays
        the first-launch warm-up.
        """
        self.profiler.clear()
        self.elapsed_ms = 0.0
        self.sync_ms = 0.0
        self.launches = 0
        self.syncs = 0
        if not keep_warm:
            self._warm = False
        self._streams_dirty.clear()
