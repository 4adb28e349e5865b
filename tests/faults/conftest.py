"""The chaos harness fixture.

``chaos_check`` is the one assertion every engine-level chaos test
makes (``test_service_faults.py`` sweeps plans through the serving
layer): run a family of seeded fault plans against a fault-free
baseline and demand the package contract — recovered runs are
bit-identical (levels *and* parents when present), exhausted recovery
is a typed error, a wrong answer never comes back.
"""

from __future__ import annotations

import pytest

from repro.faults import differential_outcome, sweep_plans


@pytest.fixture(scope="session")
def chaos_check():
    """``chaos_check(make_run, plans=... | count=..., base_seed=...)``.

    ``make_run(injector)`` executes one traversal and returns an object
    with ``.levels`` (and optionally ``.parents``); it is called once
    with ``None`` for the baseline and once per plan with a fresh
    injector. Returns the per-plan verdict list so callers can make
    additional assertions (e.g. that faults actually fired).
    """

    def check(make_run, *, plans=None, count=8, base_seed=0, sites=None):
        kwargs = {} if sites is None else {"sites": sites}
        if plans is None:
            plans = sweep_plans(count, base_seed, **kwargs)
        baseline = make_run(None)
        verdicts = []
        for plan in plans:
            verdict = differential_outcome(
                lambda: make_run(plan.injector()), baseline
            )
            if verdict["recovered"]:
                assert verdict["identical"], (
                    f"plan {plan.name}: recovered run diverged from the "
                    f"fault-free baseline"
                )
            verdicts.append((plan, verdict))
        return verdicts

    return check
