"""Crash-restart recovery at the cluster level.

A replica with a durability layer genuinely loses its memory on crash
and rebuilds from snapshot + WAL replay on restart — including the
reply cache, which is what keeps exactly-once working when a client's
retransmission races the committing replica's restart.
"""

import pytest

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.core.replica import ChtReplica
from repro.durable import (ReplicaDurability, attach_memory_durability,
                           durable_audit)
from repro.durable.disk import FileStorage
from repro.durable.wal import BatchRec, EstimateRec, PromiseRec
from repro.objects.counter import CounterSpec, increment, value
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.objects.kvstore import increment as kv_increment
from repro.objects.spec import OpInstance
from repro.shard import ShardedCluster
from repro.verify.invariants import InvariantViolation, check_i2_i3


def durable_cluster(spec=None, n=5, seed=2, **kwargs):
    cluster = ChtCluster(spec or KVStoreSpec(), ChtConfig(n=n), seed=seed,
                         durability=True, **kwargs)
    cluster.start()
    cluster.run_until_leader()
    return cluster


def await_op(cluster, future, timeout=30_000.0):
    assert cluster.run_until(lambda: future.done, timeout), "op stuck"
    return future.value


class TestRestartRebuild:
    def test_crash_erases_memory_and_recovery_rebuilds_it(self):
        cluster = durable_cluster(CounterSpec())
        leader = cluster.leader()
        for _ in range(3):
            cluster.execute(leader.pid, increment())
        cluster.run(200.0)
        victim = next(r for r in cluster.replicas if r.pid != leader.pid)
        batches_before = dict(victim.batches)
        applied_before = victim.applied_upto
        assert applied_before > 0

        cluster.crash(victim.pid)
        # Durable crash model: memory is actually gone while down.
        assert victim.batches == {}
        assert victim.applied_upto == 0
        assert victim.estimate is None
        assert victim.state == 0

        cluster.recover(victim.pid)
        # Snapshot + WAL replay restored the pre-crash stable block
        # (durably synced state is a prefix of what memory had).
        assert victim.applied_upto <= applied_before
        for j, ops in victim.batches.items():
            assert batches_before.get(j) == ops
        cluster.run(1000.0)
        check_i2_i3(cluster.replicas)
        durable_audit(cluster.replicas)
        # The restarted replica serves and the object keeps counting.
        assert cluster.execute(leader.pid, increment()) == 4

    def test_restarted_replica_never_reissues_op_ids(self):
        cluster = durable_cluster(CounterSpec(), n=3)
        leader = cluster.leader()
        cluster.execute(leader.pid, increment())
        seq_before = leader._op_seq
        assert seq_before > 0
        cluster.crash(leader.pid)
        cluster.recover(leader.pid)
        # The counter restarts a full reservation block above the
        # durable floor — strictly past anything issued pre-crash.
        assert leader._op_seq > seq_before

    def test_full_cluster_power_failure_preserves_committed_data(self):
        cluster = durable_cluster(CounterSpec(), n=3)
        leader = cluster.leader()
        assert cluster.execute(leader.pid, increment()) == 1
        assert cluster.execute(leader.pid, increment()) == 2
        cluster.run(300.0)
        for replica in cluster.replicas:
            cluster.crash(replica.pid)
        cluster.run(100.0)
        for replica in cluster.replicas:
            cluster.recover(replica.pid)
        new_leader = cluster.run_until_leader(timeout=20_000.0)
        assert cluster.execute(new_leader.pid, value(),
                               timeout=20_000.0) == 2
        check_i2_i3(cluster.replicas)
        durable_audit(cluster.replicas)

    def test_boot_over_persistent_storage_reseeds_pending_estimate(
            self, tmp_path):
        # A durable estimate may have been acked before the process died;
        # the ack can have released the leader's lease wait, so a replica
        # booting over that storage (the TCP server path: attach, then
        # _recover_from_storage, then start — no on_recover) must treat
        # the uncommitted estimate as pending or a lease for k = j-1
        # could read around batch j.
        root = str(tmp_path / "r0")
        est_ops = frozenset({OpInstance((9, 1), put("a", 1))})
        store = FileStorage(root)
        store.append(BatchRec(1, frozenset()))
        store.append(PromiseRec(5.0))
        store.append(EstimateRec(est_ops, 5.0, 2))
        store.sync(lambda: None)

        cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=0)
        replica = cluster.replicas[0]
        replica.attach_durability(ReplicaDurability(FileStorage(root)))
        replica._recover_from_storage()
        assert replica.estimate.k == 2
        assert replica.pending_batches == {2: est_ops}

    def test_checkpoint_then_recover_bounds_replay_and_converges(
            self, monkeypatch):
        # Tighter snapshot cadence leaves a shorter WAL tail to replay; a
        # follower recovered from snapshot + tail catches up to the
        # leader exactly.
        checkpoints = []
        checkpoint = ChtReplica._durable_checkpoint

        def counted(self):
            checkpoints.append(self.pid)
            checkpoint(self)

        monkeypatch.setattr(ChtReplica, "_durable_checkpoint", counted)
        wal_records = []
        for interval in (0, 20, 5):
            checkpoints.clear()
            config = ChtConfig(n=3, compaction_interval=interval)
            cluster = ChtCluster(KVStoreSpec(), config, seed=5,
                                 durability=True)
            cluster.start()
            leader = cluster.run_until_leader()
            for i in range(60):
                cluster.execute(leader.pid, kv_increment(f"k{i % 8}"))
            cluster.run(300.0)
            victim = next(r for r in cluster.replicas if r.pid != leader.pid)
            wal_records.append(victim.durable.storage.wal_records())
            assert interval == 0 or checkpoints, interval
            cluster.crash(victim.pid)
            cluster.recover(victim.pid)
            cluster.run(300.0)
            assert victim.applied_upto == leader.applied_upto, interval
            assert victim.state == leader.state, interval
        assert wal_records == sorted(wal_records, reverse=True), wal_records


class TestReplyCacheRecovery:
    """Satellite: retransmission racing a restart gets the *cached*
    response — the reply cache survives in the WAL."""

    def test_serial_retransmission_after_full_restart(self):
        cluster = ChtCluster(CounterSpec(), ChtConfig(n=3), seed=4,
                             num_clients=2, durability=True)
        cluster.start()
        cluster.run_until_leader()
        blocked, other = cluster.clients
        # Replies to the first session vanish: it commits but never hears.
        cluster.net.add_one_way_partition(
            frozenset(range(3)), frozenset({blocked.pid}),
            start=cluster.sim.now, end=cluster.sim.now + 1200.0,
        )
        fut1 = blocked.submit(increment())
        assert cluster.run_until(
            lambda: any(r.state >= 1 for r in cluster.replicas), 10_000.0
        ), "first increment never applied"
        assert not fut1.done
        # A second session's op forces group-commit flushes everywhere.
        assert await_op(cluster, other.submit(increment())) == 2

        for replica in cluster.replicas:
            cluster.crash(replica.pid)
        cluster.run(100.0)
        for replica in cluster.replicas:
            cluster.recover(replica.pid)

        # Retransmission (after the window heals) must be answered from
        # the recovered reply cache, not re-executed.
        assert await_op(cluster, fut1, timeout=40_000.0) == 1
        leader = cluster.run_until_leader(timeout=20_000.0)
        assert cluster.execute(leader.pid, value(), timeout=20_000.0) == 2
        for replica in cluster.replicas:
            cached = replica.last_applied.get(blocked.pid)
            if cached is not None:
                assert cached == (1, 1)
        durable_audit(cluster.replicas)

    def test_sharded_retransmission_after_group_restart(self):
        cluster = ShardedCluster(
            KVStoreSpec(), ChtConfig(n=3), num_groups=2, num_slots=4,
            seed=0, num_clients=1,
            group_setup=lambda group, gid: attach_memory_durability(group),
        ).start()
        cluster.run_until_leaders()
        group = cluster.groups[0]           # owns slots {0, 2}: "k9", "k2"
        blocked, spare = group.clients
        group.net.add_one_way_partition(
            frozenset(range(3)), frozenset({blocked.pid}),
            start=cluster.sim.now, end=cluster.sim.now + 1200.0,
        )
        fut1 = blocked.submit(kv_increment("k9"))
        assert cluster.run_until(
            lambda: any(r.applied_upto >= 1 for r in group.replicas),
            10_000.0,
        ), "first increment never applied"
        assert not fut1.done
        assert await_op(cluster, spare.submit(kv_increment("k9"))) == 2

        for replica in group.replicas:
            group.crash(replica.pid)
        cluster.run(100.0)
        for replica in group.replicas:
            group.recover(replica.pid)

        assert await_op(cluster, fut1, timeout=40_000.0) == 1
        assert await_op(cluster, spare.submit(get("k9")),
                        timeout=20_000.0) == 2
        # The sharded invariant surface now includes the durable audit.
        assert cluster.invariant_failures() == {}


class TestPromiseDurability:
    def test_skipped_promise_fsync_is_caught_at_recovery(self):
        # The planted bug: promises/estimates are appended but acks are
        # externalized without waiting for the sync.  The run-wide
        # monitor knows what each pid vouched for; a restart that
        # recovers less is an invariant verdict, not silent corruption.
        cluster = ChtCluster(CounterSpec(), ChtConfig(n=3), seed=4,
                             durability=True)
        for replica in cluster.replicas:
            replica.bug_switches.add("skip_promise_fsync")
        cluster.start()
        leader = cluster.run_until_leader()
        cluster.execute(leader.pid, increment())
        victim = next(r for r in cluster.replicas if r.pid != leader.pid)
        cluster.crash(victim.pid)
        with pytest.raises(InvariantViolation, match="promise regressed"):
            cluster.recover(victim.pid)

    def test_correct_sync_discipline_never_trips_the_check(self):
        cluster = durable_cluster(CounterSpec(), n=3)
        leader = cluster.leader()
        cluster.execute(leader.pid, increment())
        for replica in list(cluster.replicas):
            cluster.crash(replica.pid)
            cluster.recover(replica.pid)
            cluster.run(500.0)
        cluster.run_until_leader(timeout=20_000.0)
        durable_audit(cluster.replicas)
