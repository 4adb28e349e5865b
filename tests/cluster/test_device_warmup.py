"""A killed replica comes back cold: its worker GCDs and its pod pay
the first-launch warm-up again, once, on its first dispatch after
revival."""

import pytest

from repro.cluster.replica import Replica
from repro.service import BFSService, Query
from tests.warmups import WARMUP_MS, extra_ms, spy_dispatches


def _serve(replica, at_ms, sources):
    for k, src in enumerate(sources):
        replica.submit(Query(qid=int(at_ms) * 10 + k, graph="rmat:10", source=src,
                             arrival_ms=at_ms))
    replica.drain()


@pytest.mark.parametrize("tier,options", [
    ("solo", {}),
    ("multigcd", {"distributed_threshold_mb": 0.0}),
])
def test_revived_replica_pays_one_warmup_again(tier, options, monkeypatch):
    seen = spy_dispatches(monkeypatch)
    replica = Replica(0, BFSService(workers=1, window_ms=1.0, **options))
    _serve(replica, 0.0, [3])
    _serve(replica, 10.0, [5])
    replica.kill(15.0, restart_ms=5.0)
    replica.revive(20.0)
    _serve(replica, 30.0, [7])
    _serve(replica, 40.0, [9])
    paid = extra_ms(seen)
    assert [t for t, _w, _ms in paid] == [tier] * 4
    assert [ms for _t, _w, ms in paid] == pytest.approx(
        [WARMUP_MS, 0, WARMUP_MS, 0], abs=1e-9)
