"""The optimized engine is trace-equivalent to the pre-optimization one.

``_legacy_engine.LegacySimulator``, next to this file, reimplements the
original event loop (dataclass events, flag cancellation, O(n) pending
scan) behind the current API.  Running the full CHT stack on both
engines with the same seed must produce byte-identical operation traces:
identical op records, message counts, event counts, and final clock —
the optimizations changed the engine's cost model, never its semantics.
"""

from __future__ import annotations

import repro.core.client as client_mod
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.sim.core import Simulator

from ._legacy_engine import LegacySimulator


def _run_cht_workload(sim_cls, seed: int):
    """A full CHT run touching every engine feature.

    Writes and reads from every process exercise the fire-and-forget
    delivery path; an isolation plus heal exercises timer cancellation
    (crash/expiry paths) and the lease-expiry wait; the final quiet run
    exercises the ``until`` horizon.
    """
    original = client_mod.Simulator
    client_mod.Simulator = sim_cls
    try:
        cluster = client_mod.ChtCluster(KVStoreSpec(), ChtConfig(n=5),
                                        seed=seed)
        cluster.start()
        leader = cluster.run_until_leader()
        cluster.execute(0, put("x", 0))
        cluster.run(200.0)
        futures = []
        for i in range(30):
            futures.append(cluster.submit(0, put("hot", i)))
            for pid in range(5):
                futures.append(cluster.submit(pid, get("hot")))
            cluster.run(10.0)
        victim = max(r.pid for r in cluster.replicas if r.pid != leader.pid)
        cluster.net.isolate(victim, start=cluster.sim.now)
        cluster.execute(0, put("hot", 99), timeout=8000.0)
        cluster.net.heal_all()
        cluster.run(500.0)
        cluster.run_until(lambda: all(f.done for f in futures),
                          timeout=20_000.0)
        assert all(f.done for f in futures)
        cluster.run(250.0)
        trace = [
            (r.op_id, r.pid, r.kind, repr(r.op), r.invoked_at,
             r.responded_at, repr(r.response), r.blocked, r.blocked_local)
            for r in cluster.stats.records
        ]
        return {
            "trace": trace,
            "messages": cluster.net.total_sent(),
            "by_category": dict(cluster.net.sent_by_category()),
            "events": cluster.sim.events_processed,
            "now": cluster.sim.now,
        }
    finally:
        client_mod.Simulator = original


def test_cht_trace_identical_on_both_engines():
    new = _run_cht_workload(Simulator, seed=11)
    old = _run_cht_workload(LegacySimulator, seed=11)
    assert new["trace"] == old["trace"]
    assert new["messages"] == old["messages"]
    assert new["by_category"] == old["by_category"]
    assert new["events"] == old["events"]
    assert new["now"] == old["now"]


def test_same_seed_same_engine_reproduces_exactly():
    first = _run_cht_workload(Simulator, seed=23)
    second = _run_cht_workload(Simulator, seed=23)
    assert first == second


def test_different_seed_differs():
    a = _run_cht_workload(Simulator, seed=11)
    b = _run_cht_workload(Simulator, seed=12)
    assert a != b
