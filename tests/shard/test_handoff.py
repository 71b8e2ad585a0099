"""Fenced handoff at the cluster level: data moves, crashes don't hurt.

Key facts (sha256-based, stable): with ``num_slots=4`` and two groups,
the uniform map gives group 0 slots {0, 2} and group 1 slots {1, 3};
``"k9"`` lives in slot 0, ``"k0"`` in slot 1, ``"k2"`` in slot 2,
``"k3"`` in slot 3.
"""

import pytest

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, increment, put
from repro.shard import (
    ShardedCluster,
    ShardedSpec,
    WrongShard,
    group_fingerprint,
)
from repro.sim.core import Simulator

KEY_IN_SLOT = {0: "k9", 1: "k0", 2: "k2", 3: "k3"}


def make_cluster(seed=0, num_groups=2, obs=False, num_clients=1):
    cluster = ShardedCluster(
        KVStoreSpec(),
        ChtConfig(n=3),
        num_groups=num_groups,
        num_slots=4,
        seed=seed,
        num_clients=num_clients,
        obs=obs,
    ).start()
    cluster.run_until_leaders()
    return cluster


def await_op(cluster, future, timeout=30_000.0):
    assert cluster.run_until(lambda: future.done, timeout), "op stuck"
    return future.value


def test_handoff_moves_data_and_ownership():
    cluster = make_cluster()
    router = cluster.router(0)
    await_op(cluster, router.submit(put(KEY_IN_SLOT[0], "zero")))
    await_op(cluster, router.submit(put(KEY_IN_SLOT[2], "two")))

    record = await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}))
    assert record["src"] == 0 and record["dst"] == 1
    assert record["slots"] == (2,)
    assert record["items"] == 1
    assert record["version"] == 2
    assert cluster.map.group_for(KEY_IN_SLOT[2]) == 1

    # The moved key reads through the router from its new home; the
    # kept key still reads from group 0.
    assert await_op(cluster, router.submit(get(KEY_IN_SLOT[2]))) == "two"
    assert await_op(cluster, router.submit(get(KEY_IN_SLOT[0]))) == "zero"

    # Committed ownership converged to the published map.
    cluster.run(500.0)
    assert cluster.owned_slots(0) == frozenset({0})
    assert cluster.owned_slots(1) == frozenset({1, 2, 3})


def test_source_answers_wrong_shard_after_freeze():
    cluster = make_cluster()
    session0 = cluster.groups[0].clients[0]
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}))
    response = await_op(cluster, session0.submit(get(KEY_IN_SLOT[2])))
    assert isinstance(response, WrongShard)
    assert response.version == 2


def test_handoff_survives_source_leader_crash():
    cluster = make_cluster(seed=4)
    router = cluster.router(0)
    await_op(cluster, router.submit(put(KEY_IN_SLOT[0], 1)))

    victim = cluster.groups[0].leader()
    handoff = cluster.spawn_handoff(0, 1, slots=cluster.map.slots_of(0))
    cluster.run(5.0)  # freeze in flight when the leader dies
    victim.crash()
    record = await_op(cluster, handoff, timeout=60_000.0)
    assert record["items"] == 1
    victim.recover()

    assert await_op(cluster, router.submit(get(KEY_IN_SLOT[0]))) == 1
    cluster.run(1_000.0)
    assert cluster.owned_slots(0) == frozenset()
    assert cluster.owned_slots(1) == frozenset({0, 1, 2, 3})


def test_chained_handoffs_serialize_and_never_double_own():
    # Spawn both before running: the second must wait for the first and
    # resolve its slot set against the map the first one published.
    cluster = make_cluster(num_groups=3)
    first = cluster.spawn_handoff(0, 1, slots=cluster.map.slots_of(0))
    second = cluster.spawn_handoff(1, 2, slots={0, 1})
    await_op(cluster, first, timeout=60_000.0)
    await_op(cluster, second, timeout=60_000.0)
    cluster.run(1_000.0)
    sets = [cluster.owned_slots(g) for g in range(3)]
    assert sum(len(s) for s in sets) == 4
    assert frozenset().union(*sets) == frozenset(range(4))
    # Slot 0 travelled 0 -> 1 -> 2; slot 1 started at group 1 and moved.
    assert 0 in sets[2] and 1 in sets[2]


def test_handoff_of_already_moved_slots_is_a_noop():
    cluster = make_cluster()
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={0, 2}))
    version = cluster.map.version
    record = await_op(cluster, cluster.spawn_handoff(0, 1, slots={0, 2}))
    assert record["slots"] == ()
    assert record["items"] == 0
    assert cluster.map.version == version  # nothing republished


def test_spawn_handoff_validation():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="must differ"):
        cluster.spawn_handoff(0, 0)
    with pytest.raises(ValueError, match="unknown group"):
        cluster.spawn_handoff(0, 9)


def test_handoff_span_and_counter_recorded():
    cluster = make_cluster(obs=True)
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}))
    spans = cluster.obs.tracer.finished("shard.handoff")
    assert len(spans) == 1
    span = spans[0]
    assert span.attrs["src"] == 0 and span.attrs["dst"] == 1
    assert span.attrs["site"] == "g0"
    assert span.attrs["version"] == 2
    assert "frozen_at" in span.attrs and span.attrs["items"] == 0
    assert span.duration > 0


def test_cluster_constructor_validation():
    with pytest.raises(ValueError, match="at least one group"):
        ShardedCluster(KVStoreSpec(), num_groups=0)
    with pytest.raises(ValueError, match="at least one client"):
        ShardedCluster(KVStoreSpec(), num_clients=0)


def test_groups_share_one_timeline_with_distinct_sites():
    cluster = make_cluster(obs=True)
    assert all(g.sim is cluster.sim for g in cluster.groups)
    assert all(g.obs is cluster.obs for g in cluster.groups)
    sites = {r._site_label.get("site") for g in cluster.groups
             for r in g.replicas}
    assert sites == {"g0", "g1"}


# ----------------------------------------------------------------------
# Determinism: a run is a function of its seed, and a group's trace is a
# function of its own streams and envelopes only.
# ----------------------------------------------------------------------

def _crash_replica_zero(group, gid):
    group.sim.schedule_at(700.0, group.replicas[0].crash)
    group.sim.schedule_at(1400.0, group.replicas[0].recover)


def _scripted_run(seed, num_groups):
    """Fixed-horizon run: writes racing a mid-run handoff while replica
    0 of every group is down, then a write after it recovers."""
    cluster = ShardedCluster(
        KVStoreSpec(), ChtConfig(n=3), num_groups=num_groups, num_slots=8,
        seed=seed, num_clients=2, on_started=_crash_replica_zero,
    ).start()
    cluster.run_to(500.0)
    r0, r1 = cluster.router(0), cluster.router(1)
    futures = [r0.submit(put("k1", "before"))]
    cluster.run_to(900.0)
    handoff = cluster.spawn_handoff(0, 1)
    futures.append(r1.submit(increment("c1")))
    cluster.run_to(1600.0)
    futures.append(r0.submit(put("k2", "after")))
    cluster.run_to(2600.0)
    assert handoff.done and all(f.done for f in futures)
    prints = [group_fingerprint(group) for group in cluster.groups]
    return prints, cluster.handoffs


@pytest.mark.parametrize("num_groups", [2, 4])
def test_same_seed_gives_identical_group_fingerprints(num_groups):
    first, first_handoffs = _scripted_run(11, num_groups)
    second, second_handoffs = _scripted_run(11, num_groups)
    assert first == second
    # The control-plane record (map versions, completion times) matches
    # to the float, not just the group traces.
    assert first_handoffs == second_handoffs and len(first_handoffs) == 1
    other, _ = _scripted_run(12, num_groups)
    assert other != first, "the fingerprint must be sensitive to the seed"


def test_group_trace_does_not_depend_on_sibling_groups():
    # Every stream a group draws from is site-namespaced, so group 1
    # commits the same writes at the same instants, through the same
    # crash, among three siblings as alone on a simulator of its own.
    config = ChtConfig(n=3)
    writes = [(500.0 + 400.0 * i, put(KEY_IN_SLOT[1], i)) for i in range(4)]

    cluster = ShardedCluster(
        KVStoreSpec(), config, num_groups=4, num_slots=4, seed=5,
        on_started=_crash_replica_zero,
    ).start()
    router = cluster.router(0)
    for at, op in writes:
        cluster.run_to(at)
        router.submit(op)
    cluster.run_to(2600.0)
    assert router.redirects == 0

    sim = Simulator(seed=5)
    alone = ChtCluster(
        ShardedSpec(KVStoreSpec(), 4, cluster.map.slots_of(1)),
        config, sim=sim, site="g1", num_clients=2,
    )
    alone.start()
    _crash_replica_zero(alone, 1)
    for at, op in writes:
        # What the control plane's endpoint does with a routed submit.
        sim.call_at_front(at + config.delta, alone.clients[0].submit, op)
    sim.run(until=2600.0)

    trace = group_fingerprint(alone)
    assert len(alone.stats.completed()) == 4
    assert trace == group_fingerprint(cluster.groups[1])
