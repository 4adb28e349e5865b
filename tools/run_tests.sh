#!/usr/bin/env bash
# Test-tier wrapper.
#
#   tools/run_tests.sh            # tier-1: the fast suite (-m "not slow")
#   tools/run_tests.sh tier1      # same
#   tools/run_tests.sh tier2      # slow sweeps + the benchmark harness
#   tools/run_tests.sh telemetry  # the observability suite, the
#                                 # `repro run --host-profile` and
#                                 # `--trace-out` CLI tests and the
#                                 # host hot-path bench
#                                 # (both read the tracer's host
#                                 # clock) + the disabled-tracer
#                                 # overhead bench
#   tools/run_tests.sh multigcd-service
#                                 # the distributed engine + the serving
#                                 # layer that routes onto it (engine
#                                 # routing, registry accounting, the
#                                 # routing differential contract), the
#                                 # shared kernel helpers whose frontier
#                                 # claim the pod dedups with,
#                                 # incremental repair, which uses it
#                                 # too, the pod's fault replay, the
#                                 # pod's per-member host pull against
#                                 # a naive OR and the e2e harness's
#                                 # hooks on its batches
#   tools/run_tests.sh cluster    # the sharded multi-replica layer
#                                 # (placement, QoS/quotas, replica
#                                 # death, work stealing), the pinned
#                                 # synthetic trace streams it replays
#                                 # (single- and multi-tenant) + the
#                                 # scale-out bench
#   tools/run_tests.sh linalg     # the bitmap tier: both engines on
#                                 # the shared bitmap level loop
#                                 # (linalg batch and concurrent, with
#                                 # the concurrent fault recovery), the
#                                 # push/pull host products against a
#                                 # naive per-row OR, the charge
#                                 # vocabulary (every engine's streams
#                                 # against the host counts, and the
#                                 # no-cliff gate's tier-1 copy), the
#                                 # linalg routing contract, the
#                                 # coalescing scheduler that sets
#                                 # their batch width and the
#                                 # batch-width bench between them,
#                                 # with its modelled grid and no-cliff
#                                 # gate
#   tools/run_tests.sh multigcd-scaling
#                                 # the exchange plane: both pods'
#                                 # unit tests, the charge vocabulary
#                                 # (pod members' launches and receive
#                                 # buffers against the exchange
#                                 # books), the codec's pricing
#                                 # against a reference encoder,
#                                 # overlap accounting, the 2D grid
#                                 # differential wall, partition
#                                 # routing, the 2->64 GCD scaling
#                                 # bench and the 1->8 GCD strong-
#                                 # scaling ablation with its
#                                 # comm-fraction gate
#   tools/run_tests.sh mutation   # the dynamic-graph tier: edge
#                                 # deltas, versioned registry
#                                 # mutation, incremental BFS repair,
#                                 # the repair-vs-recompute
#                                 # differential wall and the
#                                 # delta-size crossover bench
#   tools/run_tests.sh obs        # the decision stream and its folds
#                                 # (SLO engine, decision audit,
#                                 # bounded-metrics sketch, health):
#                                 # the pinned audit and trace streams
#                                 # of two cluster replays, the sink
#                                 # agreement check (per-tenant quota
#                                 # tallies and a re-dispatched query's
#                                 # client latency included), the obs-on/off
#                                 # differential wall, the explain-chain
#                                 # contract, the executor's per-tier
#                                 # audit and direction-record contract
#                                 # with its pinned audit streams, the
#                                 # front door's admission edges and
#                                 # router counters (read off the
#                                 # stream), the e2e harness's layer
#                                 # hooks, the Prometheus scrape
#                                 # round-trip, the CLI's audit and
#                                 # health paths (`repro serve
#                                 # --audit-out` read back by `repro
#                                 # explain`, and `repro top --json`
#                                 # against its printed table) and
#                                 # the enabled-obs overhead bench
#   tools/run_tests.sh all        # everything: tier-1 + tier-2 + the
#                                 # regression gate against the committed
#                                 # baseline fingerprint
#
# Extra arguments after the tier name are passed through to pytest,
# e.g. `tools/run_tests.sh tier1 -k faults -x`.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-tier1}"
shift || true

case "$tier" in
  tier1)
    python -m pytest -m "not slow" "$@"
    ;;
  tier2)
    python -m pytest -m slow "$@"
    python -m pytest benchmarks "$@"
    ;;
  telemetry)
    python -m pytest tests/telemetry "tests/test_cli.py::TestHostProfile" \
      "tests/test_cli.py::TestTraceOut" "$@"
    python -m pytest benchmarks/bench_telemetry_overhead.py \
      benchmarks/bench_host_hotpaths.py -s "$@"
    ;;
  multigcd-service)
    python -m pytest tests/multigcd tests/service tests/xbfs/test_common.py \
      tests/xbfs/test_repair.py tests/test_e2e_hooks.py \
      "tests/xbfs/test_bitmap_products.py::TestPodPullByMember" \
      "tests/faults/test_driver_recovery.py::TestMultiGcdFaults" -m "not slow" "$@"
    ;;
  cluster)
    python -m pytest tests/cluster "tests/service/test_trace.py::test_stream_is_pinned" "$@"
    python -m pytest benchmarks/bench_cluster_scaleout.py benchmarks/bench_routing.py -s "$@"
    ;;
  linalg)
    python -m pytest tests/xbfs/test_linalg_batch.py tests/xbfs/test_concurrent.py \
      tests/xbfs/test_bitmap_products.py tests/xbfs/test_charge_vocabulary.py \
      tests/service/test_linalg_routing.py \
      tests/service/test_scheduler.py \
      "tests/faults/test_driver_recovery.py::TestConcurrentRecovery" "$@"
    python -m pytest benchmarks/bench_linalg_batch.py -s "$@"
    ;;
  multigcd-scaling)
    python -m pytest tests/multigcd/test_multigcd.py tests/multigcd/test_grid2d.py \
      tests/xbfs/test_charge_vocabulary.py tests/multigcd/test_exchange.py tests/multigcd/test_overlap.py \
      tests/multigcd/test_grid2d_differential.py tests/service/test_partition_routing.py "$@"
    python -m pytest benchmarks/bench_multigcd_scaling.py \
      benchmarks/bench_ablations.py::test_multigcd_strong_scaling -s "$@"
    ;;
  mutation)
    python -m pytest tests/graph/test_delta.py tests/xbfs/test_repair.py \
      tests/service/test_mutation.py tests/service/test_mutation_differential.py "$@"
    python -m pytest benchmarks/bench_mutation.py -s "$@"
    ;;
  obs)
    python -m pytest tests/obs tests/service/test_execution.py \
      tests/cluster/test_admission_edges.py tests/cluster/test_router.py \
      tests/telemetry/test_prometheus_labels.py tests/test_e2e_hooks.py \
      "tests/test_cli.py::TestExplain" "tests/test_cli.py::TestTop" "$@"
    python -m pytest benchmarks/bench_obs_overhead.py -s "$@"
    ;;
  all)
    python -m pytest "$@"
    python -m pytest benchmarks "$@"
    python tools/check_regression.py check tools/baseline_fingerprint.json
    ;;
  *)
    echo "usage: tools/run_tests.sh [tier1|tier2|telemetry|multigcd-service|cluster|linalg|multigcd-scaling|mutation|obs|all] [pytest args...]" >&2
    exit 2
    ;;
esac
