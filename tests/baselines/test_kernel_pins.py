"""Pinned kernel records of the five Fig 8 baselines.

Nothing else pins what each baseline's level kernels charge: the Fig 8
experiment reports only GTEPS, and no fingerprint entry runs them.
These pins hold every record of one run per baseline on a small R-MAT
graph, from its highest-degree vertex, plus the run's wall time. On
this graph Enterprise takes two bottom-up levels, so its bottom-up
kernel is pinned too.
"""

import numpy as np
import pytest

from repro.baselines import EnterpriseBFS, GunrockBFS, HierarchicalBFS, LinAlgBFS, SsspBFS
from repro.graph.generators import rmat

_ENGINES = {
    cls.__name__: cls
    for cls in (GunrockBFS, EnterpriseBFS, HierarchicalBFS, SsspBFS, LinAlgBFS)
}

#: (name, level, stream_id, runtime_ms, fetch_kb, atomic_ops,
#: atomic_conflicts) of every kernel, and the run's elapsed_ms.
PINS = {
    "GunrockBFS": (
        [
            ("gr_advance", 0, 0, 20.006001214423534, 0.7330830895954235, 0, 0),
            ("gr_filter", 0, 0, 0.0060260567, 1.4999998555019753, 128, 1),
            ("gr_advance", 1, 0, 0.006031418180977466, 25.62499971100395, 0, 0),
            ("gr_filter", 1, 0, 0.0060931567, 9.375, 215, 123),
            ("gr_advance", 2, 0, 0.006037718180218, 34.499999449937704, 0, 0),
            ("gr_filter", 2, 0, 0.0060063660670404044, 4.75, 5, 3),
            ("gr_advance", 3, 0, 0.006000963514377226, 0.7499580671715123, 0, 0),
            ("gr_filter", 3, 0, 0.006001244638080836, 0.5184693402873666, 0, 0),
        ],
        20.112198138404224,
    ),
    "EnterpriseBFS": (
        [
            ("en_scan", 0, 0, 20.0060016, 1.0, 0, 0),
            ("en_prefix_sum", 0, 0, 0.0060016, 1.0, 0, 0),
            ("en_compact", 0, 0, 0.0060009, 1.0, 0, 0),
            ("en_expand", 0, 0, 0.0060051780594766475, 1.7330829450973988, 0, 0),
            ("en_scan", 1, 0, 0.0060016, 1.0, 0, 0),
            ("en_prefix_sum", 1, 0, 0.0060016, 1.0, 0, 0),
            ("en_compact", 1, 0, 0.0060012, 1.0, 0, 0),
            ("en_bottom_up", 1, 0, 0.006020181800822897, 15.62499403287083, 0, 0),
            ("en_scan", 2, 0, 0.0060016, 1.0, 0, 0),
            ("en_prefix_sum", 2, 0, 0.0060016, 1.0, 0, 0),
            ("en_compact", 2, 0, 0.0060011000000000005, 1.0, 0, 0),
            ("en_bottom_up", 2, 0, 0.0060035171, 1.8675029408831312, 0, 0),
            ("en_scan", 3, 0, 0.0060016, 1.0, 0, 0),
            ("en_prefix_sum", 3, 0, 0.0060016, 1.0, 0, 0),
            ("en_compact", 3, 0, 0.0060009, 1.0, 0, 0),
            ("en_expand", 3, 0, 0.0060008562507258495, 0.47558618701082794, 0, 0),
        ],
        20.16004663321103,
    ),
    "HierarchicalBFS": (
        [
            ("hq_expand", 0, 0, 20.00602525715, 1.7330829450973988, 126, 0),
            ("hq_merge", 0, 0, 0.0092772, 4096.0, 0, 0),
            ("hq_expand", 1, 0, 0.0061266134000000005, 26.62499971100395, 270, 179),
            ("hq_merge", 1, 0, 0.0092771, 4096.0, 0, 0),
            ("hq_expand", 2, 0, 0.006017802588164196, 15.249999611588914, 1, 0),
            ("hq_merge", 2, 0, 0.009276900000000001, 4096.0, 0, 0),
            ("hq_expand", 3, 0, 0.0060008562507258495, 0.47558618701082794, 0, 0),
            ("hq_merge", 3, 0, 0.0092768, 4096.0, 0, 0),
        ],
        20.12527852938888,
    ),
    "SsspBFS": (
        [
            ("sssp_relax", 0, 0, 20.00602525715, 1.7330829450973988, 126, 0),
            ("sssp_relax", 1, 0, 0.00655947055, 27.124999744961883, 2252, 270),
            ("sssp_relax", 2, 0, 0.00663744335, 41.37499939537996, 2545, 318),
            ("sssp_relax", 3, 0, 0.00663764425, 41.49999943706078, 2546, 318),
        ],
        20.041859815299997,
    ),
    "LinAlgBFS": (
        [
            ("la_spmv", 0, 0, 20.00600733260451, 2.608082945097399, 0, 0),
            ("la_mask_assign", 0, 0, 0.0060038545454545456, 2.0, 0, 0),
            ("la_spmv", 1, 0, 0.006030936362795648, 27.12499971100395, 0, 0),
            ("la_mask_assign", 1, 0, 0.0060034909090909095, 2.0, 0, 0),
            ("la_spmv", 2, 0, 0.006020881817051895, 15.874999611588915, 0, 0),
            ("la_mask_assign", 2, 0, 0.006002629862021392, 2.0, 0, 0),
            ("la_spmv", 3, 0, 0.006001898077918331, 1.350586187010828, 0, 0),
            ("la_mask_assign", 3, 0, 0.0060024, 2.0, 0, 0),
        ],
        20.112073424178835,
    ),
}


@pytest.fixture(scope="module")
def graph():
    return rmat(8, 8, seed=1)


@pytest.mark.parametrize("engine", list(PINS))
def test_baseline_records_match_pins(graph, engine):
    want, elapsed_ms = PINS[engine]
    result = _ENGINES[engine](graph).run(int(np.argmax(graph.degrees)))
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

