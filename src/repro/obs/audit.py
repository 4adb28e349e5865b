"""Decision-audit "explain" plane.

Every consequential decision the serving stack makes about a query —
the admission verdict, the placement (and any steal) on the cluster
ring, the engine routing tier (with the footprint and threshold inputs
that drove it), each per-level push/pull direction switch (with the
classifier signal values), the exchange-codec wire-format picks and the
outcome — is emitted once into the
:class:`~repro.obs.stream.DecisionStream`, which folds it into one
structured :class:`AuditRecord` per query id.

The fold is observation only: it never reads back into any decision,
never touches an RNG, and never charges virtual time — so enabling it
cannot change a level array or the kernel launch stream (the
differential tests in ``tests/obs`` pin this).

The default everywhere is :data:`NULL_AUDIT`, whose ``record`` is a
no-op ``pass`` — the disabled path costs one attribute load and a
truthiness check, mirroring ``telemetry.NULL_TRACER``.

``repro explain <query-id>`` renders the records for one query as a
causal chain: admission → placement → routing tier → per-level
directions → codec picks → outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "AuditLog",
    "AuditRecord",
    "NULL_AUDIT",
    "STAGES",
]

#: Causal ordering of decision stages within one query's lifetime.
#: ``mutation`` records the registry-version bump a ``repro mutate``
#: barrier applied; ``repair`` records whether a post-mutation dispatch
#: repaired the cached level basis or fell back to full recompute (and
#: why) — ``repro explain`` shows both in the causal chain.
STAGES = (
    "admission",
    "placement",
    "steal",
    "mutation",
    "routing",
    "repair",
    "direction",
    "codec",
    "outcome",
)
_STAGE_ORDER = {stage: i for i, stage in enumerate(STAGES)}

#: Stages zero-filled into :meth:`AuditLog.counters` since the first
#: obs fingerprint was recorded. Frozen on purpose: re-recording the
#: baseline must keep prior entries byte-identical, so stages added
#: later (``mutation``, ``repair``) appear in the counters only when
#: at least one record actually landed on them.
_FINGERPRINT_STAGES = (
    "admission",
    "placement",
    "steal",
    "routing",
    "direction",
    "codec",
    "outcome",
)


@dataclass(frozen=True)
class AuditRecord:
    """One decision about one query."""

    seq: int
    qid: int
    stage: str
    decision: str
    at_ms: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "qid": self.qid,
            "stage": self.stage,
            "decision": self.decision,
            "at_ms": self.at_ms,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AuditRecord":
        return cls(
            seq=int(data["seq"]),
            qid=int(data["qid"]),
            stage=str(data["stage"]),
            decision=str(data["decision"]),
            at_ms=float(data.get("at_ms", 0.0)),
            detail=dict(data.get("detail", {})),
        )


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _fmt_detail(detail: dict) -> str:
    if not detail:
        return ""
    inner = ", ".join(f"{k}={_fmt_value(v)}" for k, v in detail.items())
    return f" ({inner})"


class AuditLog:
    """Append-only, per-query-indexed decision log."""

    def __init__(self, *, enabled: bool = True):
        #: hot paths gate on this before building record kwargs, so an
        #: attached-but-disabled log costs one attribute read per site
        self.enabled = enabled
        self._records: list[AuditRecord] = []
        self._by_qid: dict[int, list[AuditRecord]] = {}

    # ------------------------------------------------------------------
    def record(self, stage: str, qids, decision: str, *, at_ms: float = 0.0, **detail):
        """Append one decision for one query id (or each of several).

        ``qids`` may be a single int or an iterable of ints — batch
        dispatch decisions apply to every live query in the batch.
        """
        if stage not in _STAGE_ORDER:
            raise ValueError(f"unknown audit stage {stage!r}")
        if not self.enabled:
            return
        if isinstance(qids, int):
            qids = (qids,)
        for qid in qids:
            rec = AuditRecord(
                seq=len(self._records),
                qid=int(qid),
                stage=stage,
                decision=decision,
                at_ms=float(at_ms),
                detail=detail,
            )
            self._records.append(rec)
            self._by_qid.setdefault(rec.qid, []).append(rec)

    # ------------------------------------------------------------------
    @property
    def records(self) -> list[AuditRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def queries(self) -> list[int]:
        return sorted(self._by_qid)

    def for_query(self, qid: int) -> list[AuditRecord]:
        """Records for one query in causal-chain order (stage order
        first, then append order within a stage)."""
        recs = self._by_qid.get(int(qid), [])
        return sorted(recs, key=lambda r: (_STAGE_ORDER[r.stage], r.seq))

    def counters(self) -> dict:
        """Flat numeric view for :class:`telemetry.CounterRegistry`."""
        out = {"records": len(self._records), "queries": len(self._by_qid)}
        counts = {stage: 0 for stage in STAGES}
        for r in self._records:
            counts[r.stage] = counts.get(r.stage, 0) + 1
        for stage in STAGES:
            if stage in _FINGERPRINT_STAGES or counts[stage]:
                out[f"records_{stage}"] = counts[stage]
        return out

    # ------------------------------------------------------------------
    def render_chain(self, qid: int) -> str:
        """The causal decision chain of one query, human-readable."""
        recs = self.for_query(qid)
        if not recs:
            known = self.queries()
            hint = (
                f" (audited query ids: {known[0]}..{known[-1]})" if known else ""
            )
            return f"query {qid}: no audit records{hint}"
        width = max(len(r.stage) for r in recs)
        lines = [f"query {qid} — {len(recs)} decisions"]
        for rec in recs:
            lines.append(
                f"  [{rec.stage.ljust(width)}] t={rec.at_ms:9.3f}ms  "
                f"{rec.decision}{_fmt_detail(rec.detail)}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_dict(), sort_keys=True) for r in self._records]
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def load(cls, path: str | Path) -> "AuditLog":
        log = cls()
        for line in Path(path).read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            rec = AuditRecord.from_dict(json.loads(line))
            log._records.append(rec)
            log._by_qid.setdefault(rec.qid, []).append(rec)
        return log


class _NullAuditLog:
    """Disabled audit plane: every hook is a cheap no-op."""

    enabled = False
    __slots__ = ()

    def record(self, stage, qids, decision, *, at_ms=0.0, **detail):
        pass

    def counters(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NULL_AUDIT"


#: Shared inert instance — the default ``audit=`` everywhere.
NULL_AUDIT = _NullAuditLog()
