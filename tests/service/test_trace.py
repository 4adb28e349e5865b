"""Tests for JSONL trace round-trip and synthetic generation."""

import json
import zlib

import pytest

from repro.errors import ServiceError
from repro.service.request import Query, QueryOptions
from repro.service.trace import load_trace, save_trace, synthetic_trace


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        queries = [
            Query(qid=0, graph="rmat:9", source=3, arrival_ms=0.0),
            Query(qid=1, graph="rmat:9", source=5, arrival_ms=1.5,
                  deadline_ms=20.0),
            Query(qid=2, graph="LJ", source=7, arrival_ms=2.0,
                  options=QueryOptions(force_strategy="bottom_up")),
        ]
        path = tmp_path / "trace.jsonl"
        save_trace(queries, path)
        assert load_trace(path) == queries

    def test_options_round_trip(self, tmp_path):
        q = Query(qid=0, graph="g", source=1, arrival_ms=0.0,
                  options=QueryOptions(record_parents=True, max_levels=3))
        path = tmp_path / "t.jsonl"
        save_trace([q], path)
        (loaded,) = load_trace(path)
        assert loaded.options == q.options

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_trace([], path)
        assert load_trace(path) == []

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '# a comment\n\n{"t_ms": 0.0, "graph": "g", "source": 1}\n'
        )
        (q,) = load_trace(path)
        assert q.source == 1 and q.qid == 0


class TestValidation:
    def test_bad_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ServiceError, match="bad trace JSON"):
            load_trace(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t_ms": 0.0, "graph": "g"}\n')
        with pytest.raises(ServiceError, match="t_ms, graph, source"):
            load_trace(path)

    def test_non_monotone_arrivals(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"t_ms": 5.0, "graph": "g", "source": 1}\n'
            '{"t_ms": 1.0, "graph": "g", "source": 2}\n'
        )
        with pytest.raises(ServiceError, match="non-decreasing"):
            load_trace(path)


class TestSynthetic:
    SIZES = {"a": 100, "b": 200}

    def test_deterministic(self):
        t1 = synthetic_trace(["a", "b"], self.SIZES, num_queries=30, seed=4)
        t2 = synthetic_trace(["a", "b"], self.SIZES, num_queries=30, seed=4)
        assert t1 == t2

    def test_counts_and_bounds(self):
        trace = synthetic_trace(["a", "b"], self.SIZES, num_queries=25, seed=1)
        assert len(trace) == 25
        assert [q.qid for q in trace] == list(range(25))
        for q in trace:
            assert 0 <= q.source < self.SIZES[q.graph]

    def test_bursts_share_arrival_and_graph(self):
        trace = synthetic_trace(["a", "b"], self.SIZES, num_queries=16,
                                seed=2, burst=4)
        for i in range(0, 16, 4):
            chunk = trace[i:i + 4]
            assert len({q.arrival_ms for q in chunk}) == 1
            assert len({q.graph for q in chunk}) == 1

    def test_arrivals_non_decreasing(self):
        trace = synthetic_trace(["a"], self.SIZES, num_queries=40, seed=3)
        arrivals = [q.arrival_ms for q in trace]
        assert arrivals == sorted(arrivals)

    def test_deadline_applied(self):
        trace = synthetic_trace(["a"], self.SIZES, num_queries=3, seed=0,
                                deadline_ms=9.0)
        assert all(q.deadline_ms == 9.0 for q in trace)

    def test_validation(self):
        with pytest.raises(ServiceError):
            synthetic_trace([], {}, num_queries=1)
        with pytest.raises(ServiceError):
            synthetic_trace(["zzz"], {}, num_queries=1)
        with pytest.raises(ServiceError):
            synthetic_trace(["a"], self.SIZES, num_queries=1, burst=0)
        with pytest.raises(ServiceError, match="tenants"):
            synthetic_trace(["a"], self.SIZES, num_queries=1, tenants=0)
        with pytest.raises(ServiceError, match="interactive_frac"):
            synthetic_trace(["a"], self.SIZES, num_queries=1, tenants=2,
                            interactive_frac=1.5)

    def test_no_tenants_draws_no_labels(self):
        trace = synthetic_trace(["a", "b"], self.SIZES, num_queries=20, seed=5)
        assert {(q.tenant, q.qos) for q in trace} == {("default", "interactive")}

    def test_tenants_and_qos_drawn(self):
        trace = synthetic_trace(["a", "b"], self.SIZES, num_queries=200, seed=5,
                                tenants=3, interactive_frac=0.5)
        assert {q.tenant for q in trace} == {"t0", "t1", "t2"}
        assert {q.qos for q in trace} == {"interactive", "batch"}
        assert all(q.qos == "interactive" for q in synthetic_trace(
            ["a"], self.SIZES, num_queries=30, seed=5, tenants=2,
            interactive_frac=1.0))


#: Stream pins: CRC-32 of each query's (qid, graph, source, arrival,
#: deadline, tenant, QoS) as JSON. The single-tenant streams (no
#: ``tenants``) and the multi-tenant ones (the draw order source, tenant,
#: QoS per query) are the streams the seeded replays, benches and
#: fingerprints were recorded on; a changed draw fails here.
SIZES3 = {"rmat:10": 1024, "rmat:11": 2048, "rmat:12": 4096}
STREAM_CRC = [
    (dict(num_queries=200, seed=3), 1430334910),
    (dict(num_queries=97, seed=11, mean_gap_ms=0.5, burst=5, deadline_ms=20.0),
     1935211578),
    (dict(num_queries=200, seed=3, tenants=4), 2919995358),
    (dict(num_queries=97, seed=11, tenants=3, interactive_frac=0.4,
          mean_gap_ms=0.5, burst=5, deadline_ms=20.0), 3220291404),
]


@pytest.mark.parametrize("kwargs, crc", STREAM_CRC,
                         ids=["single", "single-deadline", "tenants", "tenants-deadline"])
def test_stream_is_pinned(kwargs, crc):
    trace = synthetic_trace(list(SIZES3), SIZES3, **kwargs)
    rows = [(q.qid, q.graph, q.source, q.arrival_ms, q.deadline_ms, q.tenant, q.qos)
            for q in trace]
    assert zlib.crc32(json.dumps(rows).encode()) == crc
