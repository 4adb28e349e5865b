"""The audit and trace streams of two cluster replays, pinned.

Every serving decision is emitted once into the decision stream, and the
audit rows and trace point events are folds over it. These CRCs fix both
folds byte for byte: a change to any record, its order or its detail
fails here. The trace stream drops its ``host_*`` fields, which read the
host clock. See ``conftest.py`` for the two replays.
"""

import json
import zlib

import pytest

from repro.telemetry.export import to_jsonl

#: Replay fixture -> (CRC-32 of ``AuditLog.to_jsonl()``, CRC-32 of the
#: tracer's JSONL without ``host_*`` fields).
STREAM_CRC = {
    "fingerprint_run": (1967341656, 2397156491),
    "churn_run": (3881305375, 3594580180),
}


def trace_jsonl(tracer) -> str:
    """The tracer's JSONL export without its ``host_*`` fields."""
    lines = []
    for line in to_jsonl(tracer).splitlines():
        rec = {k: v for k, v in json.loads(line).items() if not k.startswith("host_")}
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(STREAM_CRC))
def test_audit_stream_is_pinned(name, request):
    run = request.getfixturevalue(name)
    assert zlib.crc32(run.audit.to_jsonl().encode()) == STREAM_CRC[name][0]


@pytest.mark.parametrize("name", sorted(STREAM_CRC))
def test_trace_stream_is_pinned(name, request):
    run = request.getfixturevalue(name)
    assert zlib.crc32(trace_jsonl(run.tracer).encode()) == STREAM_CRC[name][1]
