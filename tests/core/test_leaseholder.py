"""The leaseholder read tier: read-only learners serving local reads.

Pins the tier's contract end to end:

* a settled leaseholder answers reads synchronously with **zero**
  messages — the read path never touches the network;
* the tier acquires leases from the leader's grants, renews them, and a
  lapsed holder refuses to serve;
* a crashed holder is shrunk out of the leader's holder set (after the
  lease-expiry wait) and reintegrates via ``LeaseRequest`` on recovery;
* client sessions route reads through the tier (replicas as fallback)
  without adding consensus traffic;
* a crash resets the holder's volatile state and keeps its stable
  state (the classification itself is pinned for both roles by
  ``test_volatile_reset``).
"""

import pytest

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.core.leaseholder import Leaseholder
from repro.core.replica import ChtReplica
from repro.objects.kvstore import KVStoreSpec, get, increment, put
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network

from .conftest import make_cluster


def make_tiered(num_leaseholders=2, seed=3, **kwargs):
    cluster = make_cluster(seed=seed, num_leaseholders=num_leaseholders,
                           **kwargs)
    cluster.run_until_leader()
    cluster.execute(0, put("x", 7))
    # Let a few renewal cycles pass so every holder is leased and settled.
    cluster.run(3 * cluster.config.lease_period)
    return cluster


class TestLocalReads:
    def test_settled_leaseholder_read_is_synchronous_and_zero_message(self):
        cluster = make_tiered()
        lh = cluster.leaseholders[0]
        assert lh._lease_valid()
        before = cluster.net.total_sent()
        future = lh.submit_read(get("x"))
        assert future.done, "settled local read must resolve synchronously"
        assert future.value == 7
        assert cluster.net.total_sent() == before

    def test_read_volume_independent_of_messages(self):
        counts = []
        for reads in (10, 100):
            cluster = make_tiered(seed=5)
            cluster.net.reset_counters()
            lh = cluster.leaseholders[1]
            for _ in range(reads):
                assert lh.submit_read(get("x")).done
            cluster.run(50.0)
            counts.append(cluster.net.total_sent())
        assert counts[1] <= counts[0] * 1.2 + 10

    def test_lapsed_holder_does_not_serve(self):
        cluster = make_tiered()
        lh = cluster.leaseholders[0]
        cluster.net.isolate(lh.pid, start=cluster.sim.now)
        cluster.run(cluster.config.lease_period + cluster.config.epsilon + 1)
        assert not lh._lease_valid()
        future = lh.submit_read(get("x"))
        assert not future.done, "lapsed holder must block, not serve stale"

    def test_session_reads_route_through_the_tier(self):
        cluster = make_tiered(num_clients=2)
        cluster.net.reset_counters()
        value = cluster.execute(cluster.clients[0].pid, get("x"))
        assert value == 7
        sent = dict(cluster.net.sent_by_category())
        # The session round-trip is client traffic; serving it consumed
        # no consensus messages.
        assert sent.get("consensus", 0) == 0
        assert sent.get("client", 0) >= 2

    def test_crashed_tier_falls_back_to_replicas(self):
        cluster = make_tiered(num_clients=1)
        for lh in cluster.leaseholders:
            cluster.crash(lh.pid)
        value = cluster.execute(cluster.clients[0].pid, get("x"))
        assert value == 7


class TestLeaseLifecycle:
    def test_holders_acquire_and_renew(self):
        cluster = make_tiered()
        stamps = [lh.lease.ts for lh in cluster.leaseholders]
        assert all(lh._lease_valid() for lh in cluster.leaseholders)
        cluster.run(2 * cluster.config.lease_renewal)
        assert all(
            lh.lease.ts > ts
            for lh, ts in zip(cluster.leaseholders, stamps)
        ), "renewal grants must advance the lease timestamp"

    def test_leader_tracks_the_tier_in_its_holder_set(self):
        cluster = make_tiered()
        leader = cluster.leader()
        lh_pids = {lh.pid for lh in cluster.leaseholders}
        assert lh_pids <= set(leader.tenure.leaseholders)

    def test_crashed_holder_is_shrunk_after_expiry_wait(self):
        cluster = make_tiered()
        victim = cluster.leaseholders[0]
        cluster.crash(victim.pid)
        # The next commit must wait out the victim's lease, then drop it.
        cluster.execute(0, increment("x"))
        leader = cluster.leader()
        assert leader.tenure.lease_expiry_waits >= 1
        assert victim.pid not in leader.tenure.leaseholders

    def test_recovered_holder_reintegrates_via_lease_request(self):
        cluster = make_tiered()
        victim = cluster.leaseholders[0]
        cluster.crash(victim.pid)
        cluster.execute(0, increment("x"))
        assert victim.pid not in cluster.leader().tenure.leaseholders
        cluster.recover(victim.pid)
        cluster.run_until(
            lambda: victim.pid in cluster.leader().tenure.leaseholders
            and victim._lease_valid(),
            timeout=5 * cluster.config.lease_period,
        )
        assert victim._lease_valid()
        assert victim.submit_read(get("x")).done

    def test_recovered_holder_catches_up_before_serving_fresh(self):
        cluster = make_tiered()
        victim = cluster.leaseholders[0]
        cluster.crash(victim.pid)
        cluster.execute(0, put("x", 99))
        cluster.recover(victim.pid)
        cluster.run_until(
            lambda: victim._lease_valid()
            and victim.applied_upto >= cluster.leader().applied_upto,
            timeout=5 * cluster.config.lease_period,
        )
        assert victim.submit_read(get("x")).value == 99


class TestConstruction:
    def test_leaseholder_pid_must_lie_above_the_acceptors(self):
        sim = Simulator(seed=0)
        net = Network(sim, delta=10.0)
        clocks = ClockModel(6, 2.0, rng=sim.fork_rng("clocks"))
        with pytest.raises(ValueError, match="above"):
            Leaseholder(2, sim, net, clocks, KVStoreSpec(), ChtConfig(n=5))

    def test_rmw_submission_is_rejected(self):
        cluster = make_tiered()
        with pytest.raises(ValueError, match="read"):
            cluster.leaseholders[0].submit_read(put("x", 1))

    def test_tier_free_cluster_is_unchanged(self):
        # num_leaseholders=0 must not consume randomness or add pids:
        # byte-identical traces are pinned by comparing message counters.
        plain = make_cluster(seed=11)
        tiered = make_cluster(seed=11, num_leaseholders=0)
        plain.run_until_leader()
        tiered.run_until_leader()
        plain.execute(0, put("k", 1))
        tiered.execute(0, put("k", 1))
        plain.run(500.0)
        tiered.run(500.0)
        assert plain.net.messages_sent == tiered.net.messages_sent
        assert plain.sim.now == tiered.sim.now


class TestClassification:
    def test_crash_resets_volatile_keeps_stable(self):
        cluster = make_tiered()
        lh = cluster.leaseholders[0]
        stable_before = {
            name: getattr(lh, name) for name in Leaseholder.STABLE_ATTRS
        }
        assert stable_before["applied_upto"] > 0
        cluster.crash(lh.pid)
        for name, factory in Leaseholder._VOLATILE_FACTORIES.items():
            expected = factory() if callable(factory) else factory
            assert getattr(lh, name) == expected, name
        for name, value in stable_before.items():
            assert getattr(lh, name) == value, name

    def test_lease_is_volatile(self):
        # A restarted holder must never serve from a pre-crash lease: the
        # lease belongs to the volatile block by construction.
        assert "lease" in Leaseholder._VOLATILE_FACTORIES
        assert "lease" not in Leaseholder.STABLE_ATTRS

    def test_pending_batches_are_stable(self):
        # PrepareAck externalizes "I know batch j is in flight" — it
        # releases the leader from the lease-expiry wait — so the
        # knowledge must survive a crash-stop restart.  The one
        # deliberate difference from a replica, which re-seeds pending
        # from its stable estimate on recovery instead.
        assert "pending_batches" in Leaseholder.STABLE_ATTRS
        assert "pending_batches" in ChtReplica._VOLATILE_FACTORIES
