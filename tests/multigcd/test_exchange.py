"""Property tests for the frontier-exchange pricing rule.

The pods never encode a message: they price it. These tests hold
:func:`~repro.multigcd.exchange.price` to a reference encoder in the
tests: a sorted id list, or a packed bitmap over the receiver's owned
range, plus the rows' words. For arbitrary frontiers, owned ranges and
batch widths, the priced bytes and format are the shorter reference
payload's (ties keep the id list), and that payload carries the vertex
set losslessly. Then the byte boundary the format choice hinges on, and
the pods' one-source wire rule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat
from repro.multigcd import Grid2dBFS, MultiGcdBFS
from repro.multigcd.exchange import (
    FORMAT_BITMAP,
    FORMAT_SPARSE,
    ID_BYTES,
    bitmap_bytes,
    price,
)
from repro.xbfs.bitmap import words_for
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
            # Message order must not matter.
            vertices = vertices[::-1].copy()
    return vertices, lo, hi


def reference_encode(vertices, lo, hi, fmt=None, width=1):
    """One message as bytes: the row ids as a sorted little-endian id
    list or a packed bitmap over ``[lo, hi)`` (by default the shorter;
    ties keep the id list), then each row's words for a
    ``width``-source batch (none for one source: its bit is the id)."""
    ids = np.sort(vertices).astype("<u4").tobytes()
    bits = np.zeros(hi - lo, dtype=bool)
    bits[vertices - lo] = True
    packed = np.packbits(bits, bitorder="little").tobytes()
    if fmt is None:
        fmt = FORMAT_BITMAP if len(packed) < len(ids) else FORMAT_SPARSE
    words = bytes(8 * words_for(width) * vertices.size) if width > 1 else b""
    return fmt, (packed if fmt == FORMAT_BITMAP else ids) + words


def reference_decode(fmt, payload, lo, hi):
    """The vertex ids of a reference message's id payload."""
    if fmt == FORMAT_BITMAP:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                             count=hi - lo, bitorder="little")
        return np.flatnonzero(bits).astype(np.int64) + lo
    return np.frombuffer(payload, dtype="<u4").astype(np.int64)


def price_one(vertices, lo, hi):
    wire, bitmap = price([vertices.size], [hi - lo])
    return int(wire[0]), FORMAT_BITMAP if bitmap[0] else FORMAT_SPARSE


class TestRoundTrip:
    """A priced message is a real one: the reference payload in the
    priced format carries the vertex set and has the priced length."""

    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_auto_round_trip_identity(self, case):
        vertices, lo, hi = case
        wire, fmt = price_one(vertices, lo, hi)
        ref_fmt, payload = reference_encode(vertices, lo, hi)
        assert (wire, fmt) == (len(payload), ref_fmt)
        assert np.array_equal(reference_decode(fmt, payload, lo, hi), np.sort(vertices))

    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_auto_prices_the_cheaper_format(self, case):
        """The priced message is the shorter of the two reference
        payloads; on a tie it is the id list."""
        vertices, lo, hi = case
        wire, fmt = price_one(vertices, lo, hi)
        sparse = len(reference_encode(vertices, lo, hi, FORMAT_SPARSE)[1])
        bitmap = len(reference_encode(vertices, lo, hi, FORMAT_BITMAP)[1])
        assert wire == min(sparse, bitmap)
        assert fmt == (FORMAT_BITMAP if bitmap < sparse else FORMAT_SPARSE)

    @given(frontier_and_range())
    @settings(max_examples=100, deadline=None)
    def test_wire_sizes_match_formulas(self, case):
        vertices, lo, hi = case
        wire, fmt = price_one(vertices, lo, hi)
        if fmt == FORMAT_SPARSE:
            assert wire == vertices.size * ID_BYTES
        else:
            assert wire == bitmap_bytes(hi - lo)
        # Pricing never ships more than the naive id list would.
        assert wire <= vertices.size * ID_BYTES

    @given(st.lists(frontier_and_range(), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=130))
    @settings(max_examples=100, deadline=None)
    def test_pod_prices_a_level_against_the_reference(self, cases, width):
        """A pod prices a level's messages in one call: each wire size
        is its reference message (ids plus row words), each raw size
        the id list plus row words, and the format tally matches."""
        pod = MultiGcdBFS(rmat(6, 4, seed=1), 2, codec=True)
        pod._width = width
        wire, raw, formats = pod._price(
            np.array([v.size for v, _, _ in cases]),
            np.array([hi - lo for _, lo, hi in cases]),
        )
        refs = [reference_encode(v, lo, hi, width=width) for v, lo, hi in cases]
        assert wire.tolist() == [len(payload) for _, payload in refs]
        ids = [reference_encode(v, lo, hi, FORMAT_SPARSE, width) for v, lo, hi in cases]
        assert raw.tolist() == [len(payload) for _, payload in ids]
        assert formats == {f: sum(r[0] == f for r in refs) for f in (FORMAT_SPARSE, FORMAT_BITMAP)}


class TestFormatChoice:
    @staticmethod
    def pick(count, span):
        return FORMAT_BITMAP if price(count, span)[1] else FORMAT_SPARSE

    def test_dense_frontier_prefers_bitmap(self):
        # 512 of 1024 owned vertices: ids = 2048 B, bitmap = 128 B.
        assert self.pick(512, 1024) == FORMAT_BITMAP

    def test_sparse_frontier_prefers_ids(self):
        # 4 of 100k owned: ids = 16 B, bitmap = 12.5 kB.
        assert self.pick(4, 100_000) == FORMAT_SPARSE

    def test_break_even_is_span_over_32(self):
        # count * 4 bytes vs span/8 bytes: bitmap wins beyond span/32
        # vertices; exact ties keep sparse.
        span = 3200
        assert self.pick(span // 32 + 1, span) == FORMAT_BITMAP
        assert self.pick(span // 32, span) == FORMAT_SPARSE


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
        r = pod(self.GRAPH, gcds, codec=True, overlap=True).run_batch([0])
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
        r = pod(self.GRAPH, gcds, codec=True, overlap=True).run_batch([0, 1])
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


@given(graph_and_source())
@settings(max_examples=40, deadline=None)
def test_codec_format_choice_never_changes_levels(case):
    """Whatever wire format each message is priced in (or with the
    codec off), the distributed levels equal solo XBFS."""
    graph, source = case
    oracle = XBFS(graph).run(source).levels
    p = min(4, graph.num_vertices)
    naive = MultiGcdBFS(graph, p).run_batch([source])
    coded = MultiGcdBFS(graph, p, codec=True).run_batch([source])
    assert np.array_equal(naive.levels[0], oracle)
    assert np.array_equal(coded.levels[0], oracle)
    # The codec changes bytes/time accounting only, never the answer
    # or the kernel-side cost, and never ships more than the raw ids.
    assert coded.compute_ms == naive.compute_ms
    assert coded.bytes_raw == naive.bytes_raw >= coded.bytes_exchanged
