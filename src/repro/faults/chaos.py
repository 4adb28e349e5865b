"""Chaos-harness building blocks shared by tests, tools and benchmarks.

Differential chaos testing needs three things: a *family* of seeded
fault plans to sweep (:func:`sweep_plans`), a compact equality witness
for BFS output (:func:`levels_fingerprint`), and a way to classify one
faulted run against its fault-free twin
(:func:`differential_outcome`). The ``chaos_check`` fixture in
``tests/faults/conftest.py`` wraps these per engine, and the serving
fault tests sweep :func:`sweep_plans` through ``BFSService``.

The invariant every consumer asserts is the package's fault-tolerance
contract: **whenever recovery succeeds, the faulted run's levels (and
parents, when recorded) are bit-identical to the fault-free run's; when
recovery is exhausted, the failure is a typed error — never a wrong
answer.**
"""

from __future__ import annotations

import random
import zlib

import numpy as np

from repro.errors import DeviceFaultError, RecoveryExhaustedError
from repro.faults.plan import FaultPlan, FaultRule

__all__ = [
    "sweep_plans",
    "levels_fingerprint",
    "differential_outcome",
    "DEVICE_SITES",
]

#: Device-plane sites a driver-level sweep draws rules from.
DEVICE_SITES = ("gcd.launch", "gcd.launch_concurrent", "gcd.sync")


def levels_fingerprint(levels: np.ndarray) -> int:
    """CRC32 of a level/parent array's shape and raw bytes.

    Bit-identity witness for the differential suite: two arrays agree
    iff dtype, shape and every byte agree.
    """
    arr = np.ascontiguousarray(levels)
    head = f"{arr.dtype.str}:{arr.shape}".encode()
    return zlib.crc32(arr.tobytes(), zlib.crc32(head))


def sweep_plans(
    count: int,
    base_seed: int = 0,
    *,
    sites: tuple[str, ...] = DEVICE_SITES,
    include_latency: bool = True,
    max_total_raising: int = 12,
    name_prefix: str = "sweep",
) -> list[FaultPlan]:
    """A deterministic family of *recoverable* fault plans.

    Every raising rule gets a bounded trigger budget and the budgets
    sum to at most ``max_total_raising``, so a retry/restart layer with
    at least that many attempts always outlasts the plan — which is
    what lets the differential suite demand bit-identical recovery for
    every plan in the sweep. Latency rules are unbounded (stragglers
    need no recovery, only patience).

    Same ``(count, base_seed, kwargs)`` — same plans, byte for byte.
    """
    plans: list[FaultPlan] = []
    for i in range(count):
        rng = random.Random((base_seed << 16) ^ (i * 2654435761 % 2**31))
        rules: list[FaultRule] = []
        budget = max_total_raising
        for _ in range(rng.randint(1, 3)):
            site = rng.choice(list(sites))
            roll = rng.random()
            if roll < 0.45 and budget > 0:
                triggers = rng.randint(1, min(4, budget))
                budget -= triggers
                rules.append(FaultRule(
                    site=site, kind="kernel_launch",
                    probability=rng.choice([0.25, 0.5, 1.0]),
                    max_triggers=triggers, after=rng.randint(0, 3),
                ))
            elif roll < 0.7 and budget > 0:
                triggers = rng.randint(1, min(3, budget))
                budget -= triggers
                rules.append(FaultRule(
                    site=site, kind="memory_corruption",
                    probability=rng.choice([0.2, 0.4, 1.0]),
                    max_triggers=triggers, after=rng.randint(0, 2),
                ))
            elif include_latency:
                rules.append(FaultRule(
                    site=site, kind="latency",
                    probability=rng.choice([0.1, 0.3, 0.6]),
                    magnitude=rng.choice([2.0, 4.0, 8.0]),
                ))
        if not any(r.raises for r in rules) and budget > 0:
            # Guarantee at least one recoverable hard fault per plan so
            # the sweep actually exercises the restart machinery.
            rules.append(FaultRule(
                site="gcd.launch", kind="kernel_launch",
                probability=1.0, max_triggers=1, after=rng.randint(0, 2),
            ))
        plans.append(FaultPlan(
            seed=rng.randint(0, 2**31 - 1),
            rules=tuple(rules),
            name=f"{name_prefix}-{i:03d}",
        ))
    return plans


def differential_outcome(run_faulted, baseline) -> dict:
    """Execute ``run_faulted()`` and classify it against ``baseline``.

    ``run_faulted`` is a zero-argument callable returning an object
    with ``.levels`` (and optionally ``.parents``); ``baseline`` is the
    fault-free twin. Returns a JSON-able verdict dict with keys
    ``recovered`` / ``typed_failure`` / ``identical`` — the caller
    asserts ``identical`` whenever ``recovered``. Any other exception
    (or a silent mismatch) propagates as-is: those are the bugs the
    harness exists to catch.
    """
    try:
        result = run_faulted()
    except (DeviceFaultError, RecoveryExhaustedError) as exc:
        return {
            "recovered": False,
            "typed_failure": type(exc).__name__,
            "identical": None,
        }
    identical = bool(np.array_equal(result.levels, baseline.levels))
    base_parents = getattr(baseline, "parents", None)
    parents = getattr(result, "parents", None)
    if base_parents is not None:
        identical = identical and bool(np.array_equal(parents, base_parents))
    return {
        "recovered": True,
        "typed_failure": None,
        "identical": identical,
        "fingerprint": levels_fingerprint(np.asarray(result.levels)),
    }
