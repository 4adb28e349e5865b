"""Property tests for the frontier-exchange codec.

The codec's whole contract is *lossless accounting*: whatever wire
format it picks, ``decode(encode(v)) == v``, so attaching a codec to a
distributed engine can change modelled bytes and exchange time but
never a level array. These tests pin that contract down for arbitrary
frontiers and owned ranges, plus the cost-model boundary the format
choice hinges on, and the pods' one-source wire rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.multigcd.comm import INFINITY_FABRIC, SLINGSHOT
from repro.multigcd.exchange import (
    FORMAT_BITMAP,
    FORMAT_SPARSE,
    ID_BYTES,
    ExchangeCodec,
    bitmap_bytes,
    sparse_bytes,
)
from repro.xbfs.driver import XBFS


@st.composite
def frontier_and_range(draw):
    """A duplicate-free vertex set inside an arbitrary owned range."""
    lo = draw(st.integers(min_value=0, max_value=500))
    span = draw(st.integers(min_value=0, max_value=400))
    hi = lo + span
    if span == 0:
        vertices = np.zeros(0, dtype=np.int64)
    else:
        picks = draw(
            st.sets(
                st.integers(min_value=lo, max_value=hi - 1), max_size=span
            )
        )
        vertices = np.array(sorted(picks), dtype=np.int64)
        if draw(st.booleans()):
            # Encode order must not matter.
            vertices = vertices[::-1].copy()
    return vertices, lo, hi


class TestRoundTrip:
    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_auto_round_trip_identity(self, case):
        vertices, lo, hi = case
        codec = ExchangeCodec()
        msg = codec.encode(vertices, lo, hi)
        out = codec.decode(msg)
        assert np.array_equal(out, np.sort(vertices))
        assert msg.count == vertices.size
        assert msg.raw_bytes == sparse_bytes(vertices.size)

    @given(frontier_and_range(), st.sampled_from([FORMAT_SPARSE, FORMAT_BITMAP]))
    @settings(max_examples=100, deadline=None)
    def test_forced_formats_round_trip(self, case, fmt):
        vertices, lo, hi = case
        codec = ExchangeCodec(mode=fmt)
        msg = codec.encode(vertices, lo, hi)
        assert msg.fmt == fmt
        assert np.array_equal(codec.decode(msg), np.sort(vertices))

    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_bitmap_and_sparse_agree(self, case):
        """The two wire formats are views of the same set."""
        vertices, lo, hi = case
        sparse = ExchangeCodec(mode=FORMAT_SPARSE)
        bitmap = ExchangeCodec(mode=FORMAT_BITMAP)
        a = sparse.decode(sparse.encode(vertices, lo, hi))
        b = bitmap.decode(bitmap.encode(vertices, lo, hi))
        assert np.array_equal(a, b)

    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_wire_sizes_match_formulas(self, case):
        vertices, lo, hi = case
        codec = ExchangeCodec()
        msg = codec.encode(vertices, lo, hi)
        if msg.fmt == FORMAT_SPARSE:
            assert msg.wire_bytes == vertices.size * ID_BYTES
        else:
            assert msg.wire_bytes == bitmap_bytes(hi - lo)
        # Auto mode never ships more than the naive id list would.
        assert msg.wire_bytes <= max(msg.raw_bytes, bitmap_bytes(hi - lo))


class TestFormatChoice:
    def test_dense_frontier_prefers_bitmap(self):
        codec = ExchangeCodec()
        # 512 of 1024 owned vertices: ids = 2048 B, bitmap = 128 B.
        assert codec.choose_format(512, 1024) == FORMAT_BITMAP

    def test_sparse_frontier_prefers_ids(self):
        codec = ExchangeCodec()
        # 4 of 100k owned: ids = 16 B, bitmap = 12.5 kB.
        assert codec.choose_format(4, 100_000) == FORMAT_SPARSE

    def test_break_even_is_span_over_32(self):
        # count * 4 bytes vs span/8 bytes: bitmap wins beyond span/32
        # vertices; exact ties keep sparse.
        codec = ExchangeCodec()
        span = 3200
        assert codec.choose_format(span // 32 + 1, span) == FORMAT_BITMAP
        assert codec.choose_format(span // 32, span) == FORMAT_SPARSE

    def test_choice_is_interconnect_independent_of_latency(self):
        # Both formats pay one per-message latency, so the chosen
        # format is the same on any link (the latency term cancels).
        fast, slow = ExchangeCodec(INFINITY_FABRIC), ExchangeCodec(SLINGSHOT)
        for count, span in [(1, 64), (60, 64), (10, 4096), (200, 4096)]:
            assert fast.choose_format(count, span) == slow.choose_format(
                count, span
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(PartitionError):
            ExchangeCodec(mode="zstd")

    def test_out_of_range_vertices_rejected(self):
        codec = ExchangeCodec()
        with pytest.raises(PartitionError):
            codec.encode(np.array([5]), 6, 10)
        with pytest.raises(PartitionError):
            codec.encode(np.array([10]), 6, 10)


class TestCounters:
    def test_counters_accumulate_and_reset(self):
        codec = ExchangeCodec()
        codec.encode(np.arange(100), 0, 128)      # dense -> bitmap
        codec.encode(np.array([3]), 0, 100_000)   # sparse
        c = codec.counters()
        assert c["messages"] == 2
        assert c["messages_bitmap"] == 1
        assert c["messages_sparse"] == 1
        assert c["bytes_raw"] == 101 * ID_BYTES
        assert c["bytes_wire"] == bitmap_bytes(128) + sparse_bytes(1)
        assert c["bytes_saved"] == c["bytes_raw"] - c["bytes_wire"]
        codec.reset()
        assert all(v == 0 for v in codec.counters().values())

    def test_counters_attach_to_telemetry_registry(self):
        from repro.telemetry import CounterRegistry

        codec = ExchangeCodec()
        codec.encode(np.arange(64), 0, 64)
        registry = CounterRegistry()
        registry.attach("exchange", codec.counters)
        snap = registry.snapshot()
        assert snap["exchange.messages"] == 1
        assert snap["exchange.bytes_saved"] > 0


class TestOneSourceRule:
    """A one-source batch's row is one bit its id implies: a shipped
    row costs only its id and an uncompressed block its bitmap, so the
    pods ship exactly the per-vertex exchange. Pinned on the
    exchange-plane fingerprint's graph, codec and overlap on."""

    GRAPH = rmat(12, 8, seed=2)

    @pytest.mark.parametrize("pod, gcds, pinned", [
        (MultiGcdBFS, 4, (3174, 18432, 18, 18)),
        (Grid2dBFS, 9, (18780, 142968, 108, 108)),
    ], ids=["1d", "2d"])
    def test_one_source_ships_ids_only(self, pod, gcds, pinned):
        r = pod(self.GRAPH, gcds, codec=ExchangeCodec(), overlap=True).run_batch([0])
        messages = [sum(f[fmt] for f in r.level_formats)
                    for fmt in (FORMAT_SPARSE, FORMAT_BITMAP)]
        assert (r.bytes_exchanged, r.bytes_raw, *messages) == pinned
        assert sum(r.level_raw_bytes) == r.bytes_raw
        assert np.array_equal(r.levels[0], XBFS(self.GRAPH).run(0).levels)

    @pytest.mark.parametrize("pod, kw, wire", [
        (MultiGcdBFS, {"direction_alpha": 0.05}, 5424),
        (Grid2dBFS, {}, 12288),
    ], ids=["1d-bottom-up", "2d"])
    def test_one_source_block_is_its_bitmap(self, pod, kw, wire):
        """Without a codec a whole block ships: ceil(rows / 8) bytes."""
        r = pod(self.GRAPH, 4, **kw).run_batch([0])
        assert r.bytes_exchanged == r.bytes_raw == wire

    @pytest.mark.parametrize("pod, gcds, raw", [
        (MultiGcdBFS, 4, 81732),
        (Grid2dBFS, 9, 615024),
    ], ids=["1d", "2d"])
    def test_two_sources_ship_their_words(self, pod, gcds, raw):
        """The rule fires only at one source: from two on, each row's
        8-byte word rides along as before."""
        r = pod(self.GRAPH, gcds, codec=ExchangeCodec(), overlap=True).run_batch([0, 1])
        assert r.bytes_raw == raw


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=160))
    vertex = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(vertex, min_size=m, max_size=m))
    dst = draw(st.lists(vertex, min_size=m, max_size=m))
    source = draw(vertex)
    g = CSRGraph.from_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        n,
        symmetrize=draw(st.booleans()),
    )
    return g, source


@given(graph_and_source(), st.sampled_from(["auto", "sparse", "bitmap"]))
@settings(max_examples=40, deadline=None)
def test_codec_format_choice_never_changes_levels(case, mode):
    """The tentpole contract: whatever wire format the exchange uses
    (or none at all), the distributed levels equal solo XBFS."""
    graph, source = case
    oracle = XBFS(graph).run(source).levels
    p = min(4, graph.num_vertices)
    naive = MultiGcdBFS(graph, p).run_batch([source])
    coded = MultiGcdBFS(graph, p, codec=ExchangeCodec(mode=mode)).run_batch([source])
    assert np.array_equal(naive.levels[0], oracle)
    assert np.array_equal(coded.levels[0], oracle)
    # The codec changes bytes/time accounting only, never the answer
    # or the kernel-side cost.
    assert coded.compute_ms == naive.compute_ms
    assert coded.bytes_raw >= coded.bytes_exchanged or mode == "bitmap"
