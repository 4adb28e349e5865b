"""Result persistence: run summaries to JSON, and regression diffing.

The benchmark harness is deterministic, so two runs of the same
experiment at the same scale should produce identical modelled numbers
— any drift is a model change. :func:`summarize_batch` reduces a batch
to a compact JSON-able record, :func:`save_results`/:func:`load_results`
round-trip a set of them, and :func:`diff_results` reports per-metric
relative drift between two saved sets (used by
``tools/check_regression.py``).

Saved files carry a ``schema_version`` envelope so the record format
can evolve (the serving layer adds latency/sharing summaries alongside
the original batch summaries); loading a file written under a
different version warns instead of failing, and legacy bare-list files
(pre-versioning) still load.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.metrics.gteps import gteps

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "summarize_batch",
    "save_results",
    "load_results",
    "MetricDrift",
    "diff_results",
]

#: Version stamped into every file :func:`save_results` writes.
#: 1 = the original bare-list format (implicit, no field);
#: 2 = ``{"schema_version": 2, "results": [...]}`` envelope.
RESULTS_SCHEMA_VERSION = 2


def summarize_batch(name: str, batch) -> dict:
    """Reduce an n-to-n :class:`~repro.xbfs.common.BatchResult` (the
    one every solo engine's ``run_many`` returns, XBFS and the
    baselines alike) to a JSON-able summary of its warm runs
    (:attr:`~repro.xbfs.common.BatchResult.steady_runs`).
    """
    steady = batch.steady_runs
    total_ms = sum(r.elapsed_ms for r in steady)
    total_edges = sum(r.traversed_edges for r in steady)
    return {
        "name": name,
        "runs": len(batch.runs),
        "steady_runs": len(steady),
        "steady_gteps": gteps(total_edges, total_ms),
        "mean_elapsed_ms": total_ms / max(1, len(steady)),
        "mean_depth": sum(r.depth for r in steady) / max(1, len(steady)),
        "total_traversed_edges": int(total_edges),
    }


def save_results(summaries: list[dict], path: str | Path) -> None:
    """Write a list of summaries as pretty, schema-versioned JSON."""
    payload = {"schema_version": RESULTS_SCHEMA_VERSION, "results": summaries}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_results(path: str | Path) -> list[dict]:
    """Read summaries written by :func:`save_results`.

    Accepts both the versioned envelope and legacy bare-list files;
    warns (without failing) when the file's schema version differs
    from :data:`RESULTS_SCHEMA_VERSION`, since individual metrics may
    have been added or renamed across versions.
    """
    data = json.loads(Path(path).read_text())
    if isinstance(data, list):
        warnings.warn(
            f"{path}: legacy un-versioned results file (schema 1); "
            f"current writer is schema {RESULTS_SCHEMA_VERSION}",
            stacklevel=2,
        )
        return data
    version = data.get("schema_version")
    if version != RESULTS_SCHEMA_VERSION:
        warnings.warn(
            f"{path}: results schema {version} != current "
            f"{RESULTS_SCHEMA_VERSION}; metrics may not line up",
            stacklevel=2,
        )
    return data["results"]


@dataclass(frozen=True)
class MetricDrift:
    """One metric's movement between a baseline and a candidate run."""

    name: str
    metric: str
    baseline: float
    candidate: float

    @property
    def relative(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else float("inf")
        return (self.candidate - self.baseline) / self.baseline


#: Non-metric bookkeeping fields never compared by :func:`diff_results`.
_SKIPPED = frozenset({"name", "schema_version"})


def _compared_metrics(baseline_entry: dict, candidate_entry: dict) -> list[str]:
    """Numeric fields present on both sides — so batch summaries and
    service summaries (different key sets) both diff cleanly."""
    keys = set(baseline_entry) & set(candidate_entry) - _SKIPPED
    return sorted(
        k
        for k in keys
        if isinstance(baseline_entry[k], (int, float))
        and isinstance(candidate_entry[k], (int, float))
        and not isinstance(baseline_entry[k], bool)
    )


def diff_results(
    baseline: list[dict], candidate: list[dict], *, tolerance: float = 0.05
) -> list[MetricDrift]:
    """Drifts exceeding ``tolerance`` (relative) between two result sets.

    Entries are matched by ``name``; every numeric metric the two
    entries share is compared. Names present on only one side are
    reported as a full drift on the ``runs`` metric so they cannot slip
    through silently.
    """
    base_by = {e["name"]: e for e in baseline}
    cand_by = {e["name"]: e for e in candidate}
    drifts: list[MetricDrift] = []
    for name in sorted(set(base_by) | set(cand_by)):
        b, c = base_by.get(name), cand_by.get(name)
        if b is None or c is None:
            drifts.append(
                MetricDrift(name, "runs", float(bool(b)), float(bool(c)))
            )
            continue
        for metric in _compared_metrics(b, c):
            d = MetricDrift(name, metric, float(b[metric]), float(c[metric]))
            if abs(d.relative) > tolerance:
                drifts.append(d)
    return drifts
