"""The routing client: placement, redirects, and cross-shard exactly-once.

Key facts (sha256-based, stable): with ``num_slots=4`` and two groups,
group 0 owns slots {0, 2} and group 1 owns {1, 3}; ``"k9"`` is in slot
0, ``"k0"`` in slot 1, ``"k2"`` in slot 2, ``"k3"`` in slot 3.
"""

import pytest

from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, increment, put, scan
from repro.shard import ShardedCluster, WrongShard, freeze_op, slot_of
from repro.shard.router import RoutingError

KEY_IN_SLOT = {0: "k9", 1: "k0", 2: "k2", 3: "k3"}


def make_cluster(seed=0, **kwargs):
    cluster = ShardedCluster(
        KVStoreSpec(),
        ChtConfig(n=3),
        num_groups=2,
        num_slots=4,
        seed=seed,
        **kwargs,
    ).start()
    cluster.run_until_leaders()
    return cluster


def await_op(cluster, future, timeout=30_000.0):
    assert cluster.run_until(lambda: future.done, timeout), "op stuck"
    return future.value


def assert_exactly_once(router):
    """Structural exactly-once: every routed op saw exactly one
    committed non-WrongShard reply across all its attempts."""
    for op_id, attempts in router.attempts.items():
        effective = [
            (gid, r) for gid, r in attempts
            if not isinstance(r, WrongShard)
        ]
        assert len(effective) == 1, (op_id, attempts)


def test_routes_by_key_to_the_owning_group():
    cluster = make_cluster()
    router = cluster.router(0)
    await_op(cluster, router.submit(put(KEY_IN_SLOT[0], "a")))
    await_op(cluster, router.submit(put(KEY_IN_SLOT[1], "b")))
    assert router.redirects == 0
    # Each op's single attempt went to the slot's owner.
    groups = [a[0][0] for a in router.attempts.values()]
    assert groups == [0, 1]
    assert await_op(cluster, router.submit(get(KEY_IN_SLOT[1]))) == "b"


def test_stale_router_chases_wrong_shard_to_the_new_owner():
    cluster = make_cluster()
    router = cluster.router(0)
    await_op(cluster, router.submit(put(KEY_IN_SLOT[2], 7)))
    stale_version = router.map.version
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}))
    assert router.map.version == stale_version  # not refreshed yet

    value = await_op(cluster, router.submit(get(KEY_IN_SLOT[2])))
    assert value == 7
    assert router.redirects >= 1
    assert router.map.version == cluster.map.version  # refreshed
    # The read's attempt list shows the WrongShard hop then the answer.
    attempts = router.attempts[("router", 0, 2)]
    assert isinstance(attempts[0][1], WrongShard)
    assert attempts[0][0] == 0 and attempts[-1][0] == 1
    assert_exactly_once(router)


def test_redirect_instant_and_counter_emitted():
    cluster = make_cluster(obs=True)
    router = cluster.router(0)
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}))
    await_op(cluster, router.submit(get(KEY_IN_SLOT[2])))
    redirects = [
        i for i in cluster.obs.tracer.instants
        if i.name == "router.redirect"
    ]
    assert len(redirects) == router.redirects >= 1
    assert redirects[0].attrs["group"] == 0


def test_one_outstanding_rmw_per_router():
    cluster = make_cluster()
    router = cluster.router(0)
    first = router.submit(increment("k0"))
    with pytest.raises(RuntimeError, match="outstanding RMW"):
        router.submit(increment("k2"))
    await_op(cluster, first)
    # Reads are not limited, and a finished RMW frees the slot.
    router.submit(increment("k2"))


def test_unpartitionable_op_rejected_at_the_router():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="no partition key"):
        cluster.router(0).submit(scan())


def test_coordinator_session_is_not_routable():
    cluster = make_cluster(num_clients=1)
    with pytest.raises(ValueError, match="not routable"):
        cluster.router(1)


def test_redirect_races_a_retransmission_exactly_once():
    """The satellite scenario: an increment's first transmission is lost,
    the slot moves while the session is retrying, and the retransmitted
    request commits at the source only as WrongShard — so the redirect
    applies the increment exactly once at the new owner."""
    cluster = make_cluster(seed=2)
    router = cluster.router(0)
    key = KEY_IN_SLOT[2]  # group 0's slot 2

    # Cut the router's group-0 session off before it can deliver the
    # request; the session-layer retry will carry it after the heal.
    session0 = cluster.groups[0].clients[0]
    start = cluster.sim.now
    cluster.groups[0].net.isolate(session0.pid, start, start + 400.0)
    future = router.submit(increment(key))
    cluster.run(5.0)
    assert not future.done

    handoff = cluster.spawn_handoff(0, 1, slots={2})
    await_op(cluster, handoff, timeout=60_000.0)
    assert not future.done  # still partitioned from group 0

    assert await_op(cluster, future, timeout=60_000.0) == 1
    attempts = router.attempts[("router", 0, 1)]
    assert [gid for gid, _ in attempts] == [0, 1]
    assert isinstance(attempts[0][1], WrongShard)
    assert attempts[1][1] == 1
    assert_exactly_once(router)
    assert await_op(cluster, router.submit(get(key))) == 1


def test_duplication_storm_stays_exactly_once_across_a_handoff():
    """Every message delivered twice on both groups while increments
    cross a handoff: per-group reply caches plus the pinning rule must
    keep each increment's effect single."""
    cluster = make_cluster(seed=5)
    for group in cluster.groups:
        group.net.dup_rule = lambda src, dst, msg, now: True
    router = cluster.router(0)
    key = KEY_IN_SLOT[2]

    total = 0
    for i in range(3):
        total = await_op(cluster, router.submit(increment(key)),
                         timeout=60_000.0)
    await_op(cluster, cluster.spawn_handoff(0, 1, slots={2}),
             timeout=60_000.0)
    for i in range(3):
        total = await_op(cluster, router.submit(increment(key)),
                         timeout=60_000.0)
    assert total == 6
    assert await_op(cluster, router.submit(get(key)),
                    timeout=60_000.0) == 6
    assert_exactly_once(router)


def test_router_gives_up_after_max_redirects():
    cluster = make_cluster()
    # A map that permanently names the wrong owner: freeze slot 2 at
    # group 0 but never install it anywhere, then pin the router's map.
    coordinator = cluster.coordinator(0)
    await_op(cluster, coordinator.submit(freeze_op({2}, 2)))
    router = cluster.router(0, retry_backoff=1.0, max_redirects=3)
    future = router.submit(get(KEY_IN_SLOT[2]))
    value = await_op(cluster, future, timeout=60_000.0)
    # The budget surfaces a prompt, inspectable error — the future
    # resolves instead of the client spinning on a group that is down.
    assert isinstance(value, RoutingError)
    assert "never converged" in str(value)
    assert value.attempts == 3
    assert router.gave_up == 1
    # Every attempt on the way out was a committed WrongShard.
    attempts = router.attempts[("router", 0, 1)]
    assert len(attempts) == 3
    assert all(isinstance(r, WrongShard) for _, r in attempts)


def test_router_backoff_grows_exponentially_to_the_cap():
    cluster = make_cluster()
    coordinator = cluster.coordinator(0)
    await_op(cluster, coordinator.submit(freeze_op({2}, 2)))
    base = 100.0
    router = cluster.router(0, retry_backoff=base, max_redirects=5,
                            backoff_cap=400.0)
    start = cluster.sim.now
    future = router.submit(get(KEY_IN_SLOT[2]))
    value = await_op(cluster, future, timeout=120_000.0)
    assert isinstance(value, RoutingError)
    elapsed = cluster.sim.now - start
    # Waits: 100 + 200 + 400 + 400 + 400 = 1500 plus five round trips;
    # fixed backoff would spend only 500 waiting.  The elapsed window
    # brackets the capped-exponential schedule.
    assert elapsed >= 1500.0
    assert elapsed < 6000.0


def test_router_rejects_bad_budget_parameters():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="max_redirects"):
        cluster.router(0, max_redirects=0)
    with pytest.raises(ValueError, match="backoff_cap"):
        cluster.router(0, retry_backoff=10.0, backoff_cap=1.0)


def test_router_budget_error_does_not_break_later_ops():
    """After a RoutingError on a stuck slot, other slots keep working
    and exactly-once accounting stays clean for them."""
    cluster = make_cluster()
    coordinator = cluster.coordinator(0)
    await_op(cluster, coordinator.submit(freeze_op({2}, 2)))
    router = cluster.router(0, retry_backoff=1.0, max_redirects=2)
    stuck = router.submit(get(KEY_IN_SLOT[2]))
    assert isinstance(await_op(cluster, stuck, timeout=60_000.0),
                      RoutingError)
    await_op(cluster, router.submit(put(KEY_IN_SLOT[1], "ok")))
    assert await_op(cluster, router.submit(get(KEY_IN_SLOT[1]))) == "ok"
    healthy = {
        op_id: attempts for op_id, attempts in router.attempts.items()
        if op_id != ("router", 0, 1)
    }
    for op_id, attempts in healthy.items():
        effective = [r for _, r in attempts if not isinstance(r, WrongShard)]
        assert len(effective) == 1, (op_id, attempts)


def test_four_groups_commit_at_least_two_and_a_half_times_one_group():
    """Each group's leader caps a commit round at ``max_batch_size``
    ops, so one group is a write bottleneck that sharding multiplies:
    32 closed-loop writers over 16 distinct-slot keys, 1.2 s window."""
    keys = {}
    i = 0
    while len(keys) < 16:
        keys.setdefault(slot_of(f"key{i}", 16), f"key{i}")
        i += 1

    def committed(groups):
        cluster = ShardedCluster(
            KVStoreSpec(), ChtConfig(n=3, max_batch_size=4),
            num_groups=groups, num_slots=16, seed=0, num_clients=32,
            obs=False,
        ).start()
        cluster.run_until_leaders()
        futures = []

        def writer(router, key):
            while True:
                futures.append(router.submit(increment(key)))
                yield futures[-1]

        routers = [cluster.router(i) for i in range(32)]
        for i, router in enumerate(routers):
            cluster.control.host.spawn(writer(router, keys[i % 16]))
        cluster.run(400.0)
        before = sum(f.done for f in futures)
        cluster.run(1_200.0)
        assert all(r.redirects == 0 for r in routers)
        return sum(f.done for f in futures) - before

    one, four = committed(1), committed(4)
    assert four >= 2.5 * one, (one, four)
