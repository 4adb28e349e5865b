"""Pinned kernel records of XBFS under the 3-stream CUDA configuration.

The golden Table III-V fixtures pin only 1-stream runs. Fig 5's CUDA
configuration splits each top-down level's frontier into degree bins,
one kernel per non-empty bin, launched as one concurrent group; these
pins hold every record of two such runs (the adaptive run and a forced
scan-free run) on a small R-MAT graph, plus the run's wall time, which
prices each group as its largest launch overhead plus the sum of its
work terms.
"""

import numpy as np
import pytest

from repro.gcd.kernel import ExecConfig
from repro.graph.generators import rmat
from repro.xbfs.driver import XBFS

#: (name, level, stream_id, runtime_ms, fetch_kb, atomic_ops,
#: atomic_conflicts) of every kernel, and the run's elapsed_ms.
PINS = {
    None: (
        [
            ("init_status", -1, 0, 0.0060016, 0.0, 0, 0),
            ("sf_expand", 0, 0, 20.006054517, 3.35808290300555, 264, 4),
            ("ss_expand", 1, 0, 0.006051790907809584, 48.74999955954455, 0, 0),
            ("ss_expand", 1, 1, 0.00602682727205985, 25.37499977057326, 0, 0),
            ("ss_queue_gen", 2, 0, 0.0060022, 2.0, 3, 2),
            ("sf_expand", 2, 0, 0.0064975319, 31.749999528833534, 995, 745),
            ("sf_expand", 3, 0, 0.0060037667180697345, 2.110434336471257, 9, 1),
        ],
        20.116638233797936,
    ),
    "scan_free": (
        [
            ("init_status", -1, 0, 0.0060016, 0.0, 0, 0),
            ("sf_expand", 0, 0, 20.006054517, 3.35808290300555, 264, 4),
            ("sf_expand", 1, 0, 0.00830853455, 48.74999955954455, 4087, 3723),
            ("sf_expand", 1, 1, 0.0084159584, 25.37499977057326, 4308, 3881),
            ("sf_expand", 2, 0, 0.0064975319, 31.749999528833534, 995, 745),
            ("sf_expand", 3, 0, 0.0060037667180697345, 2.110434336471257, 9, 1),
        ],
        20.115281908568065,
    ),
}


@pytest.fixture(scope="module")
def graph():
    return rmat(9, 16, seed=1)


@pytest.mark.parametrize("forced", list(PINS), ids=str)
def test_three_stream_records_match_pins(graph, forced):
    want, elapsed_ms = PINS[forced]
    source = int(np.argmax(graph.degrees))
    result = XBFS(graph, config=ExecConfig(num_streams=3)).run(
        source, force_strategy=forced
    )
    got = [
        (r.name, r.level, r.stream_id, r.runtime_ms, r.fetch_kb,
         r.atomic_ops, r.atomic_conflicts)
        for r in result.records
    ]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3] and g[5:] == w[5:], (g, w)
        assert g[3:5] == pytest.approx(w[3:5], rel=1e-9, abs=1e-12), (g, w)
    assert result.elapsed_ms == pytest.approx(elapsed_ms, rel=1e-9)
