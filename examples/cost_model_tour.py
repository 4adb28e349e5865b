#!/usr/bin/env python
"""Cost-model tour: from access streams to rocprofiler counters by hand.

MODEL.md in code form: builds the streams of a hypothetical scan-free
level manually, pushes them through the cache and kernel cost models,
and shows how each knob (cache size, pattern, atomics, compiler flags)
moves the counters — the mental model needed to read Tables III-V.

Run:  python examples/cost_model_tour.py
"""

from repro.gcd.atomics import AtomicStats
from repro.gcd.cache import AnalyticCacheModel
from repro.gcd.device import MI250X_GCD
from repro.gcd.kernel import ComputeWork, ExecConfig, KernelCostModel
from repro.gcd.memory import rand_read, segmented_read, seq_read, seq_write

V = 1_000_000          # vertices
E_F = 4_000_000        # edges the level expands
WINNERS = 300_000      # first-time discoveries


def show(label, record):
    print(f"  {label:<28} runtime {record.runtime_ms:8.3f} ms   "
          f"FS {record.fetch_kb:12,.0f} KB   L2 {record.l2_hit_pct:5.1f}%   "
          f"MBusy {record.mem_busy_pct:5.1f}%")


def main() -> None:
    device = MI250X_GCD
    model = KernelCostModel(device)

    print("1) Streams of one scan-free expand "
          f"(|F| edges={E_F:,}, |V|={V:,}):")
    streams = [
        seq_read("frontier_queue", 50_000, 4),
        segmented_read("adj_list", E_F, exact_lines=E_F // 24),
        rand_read("status", E_F, V, 4),
        seq_write("next_queue", WINNERS, 4),
    ]
    cache = AnalyticCacheModel(device)
    for s in streams:
        out = cache.run(s)
        kind = "write" if s.is_write else "read "
        print(f"   {s.array:<15} {kind} {s.pattern.value:<10} "
              f"accesses {s.num_accesses:>9,}  hit {out.hit_rate*100:5.1f}%  "
              f"fetch {out.fetched_bytes/1024:10,.0f} KB")

    work = ComputeWork(
        flat_ops=float(E_F),
        atomics=AtomicStats(operations=E_F, conflicts=E_F - WINNERS),
    )

    def evaluate(config=None, dev=device, bottom_up=False):
        return KernelCostModel(dev).evaluate(
            "sf_expand", strategy="tour", level=0, streams=streams,
            work=work, config=config or ExecConfig(), work_items=50_000,
            bottom_up=bottom_up,
        )

    print("\n2) The same kernel under different conditions:")
    show("baseline (clang, -O3)", evaluate())
    show("without -O3 (reg spill)", evaluate(ExecConfig(optimize=False)))
    show("hipcc, top-down kernel", evaluate(ExecConfig(compiler="hipcc")))
    show("hipcc, bottom-up kernel",
         evaluate(ExecConfig(compiler="hipcc"), bottom_up=True))
    tiny_l2 = device.with_overrides(l2_bytes=256 * 1024)
    show("1/32 the L2 (thrash)", evaluate(dev=tiny_l2))
    p6000 = __import__("repro.gcd.device", fromlist=["P6000"]).P6000
    show("on a P6000", evaluate(dev=p6000))

    print(
        "\nReading guide: FetchSize follows misses x line; MemUnitBusy is\n"
        "the share of the runtime the memory system is streaming; the\n"
        "compiler knobs scale both compute and achieved bandwidth\n"
        "(occupancy), which is how a memory-bound kernel still slows down."
    )


if __name__ == "__main__":
    main()
