"""Tests for log compaction and snapshot transfer."""

import pytest

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, increment, put
from repro.objects.spec import COMPACTED
from repro.verify import check_linearizable


def compacting_cluster(seed=3, interval=5, retain=2, n=5):
    config = ChtConfig(n=n, compaction_interval=interval,
                       compaction_retain=retain)
    cluster = ChtCluster(KVStoreSpec(), config, seed=seed)
    cluster.start()
    cluster.run_until_leader()
    return cluster


class TestPruning:
    def test_log_is_bounded(self):
        cluster = compacting_cluster()
        for i in range(30):
            cluster.execute(i % 5, put(f"k{i % 3}", i))
        cluster.run(500.0)
        for replica in cluster.replicas:
            assert len(replica.batches) <= (
                cluster.config.compaction_interval
                + cluster.config.compaction_retain + 2
            )
            assert replica.pruned_upto > 0

    def test_disabled_compaction_keeps_everything(self):
        config = ChtConfig(n=5, compaction_interval=0)
        cluster = ChtCluster(KVStoreSpec(), config, seed=3)
        cluster.start()
        cluster.run_until_leader()
        for i in range(20):
            cluster.execute(i % 5, put("k", i))
        cluster.run(500.0)
        leader = cluster.leader()
        assert leader.pruned_upto == 0
        assert min(leader.batches) == 1

    def test_state_survives_pruning(self):
        cluster = compacting_cluster()
        for i in range(25):
            cluster.execute(i % 5, increment("total"))
        assert cluster.execute(2, get("total")) == 25

    def test_recent_batches_are_retained(self):
        cluster = compacting_cluster()
        for i in range(25):
            cluster.execute(0, put("k", i))
        leader = cluster.leader()
        assert leader.applied_upto in leader.batches or (
            leader.applied_upto <= leader.pruned_upto
        )
        # The retained window sits right below the applied prefix.
        assert max(leader.batches) >= leader.applied_upto - 1


class TestSnapshotTransfer:
    def test_laggard_catches_up_via_snapshot(self):
        cluster = compacting_cluster()
        leader = cluster.leader()
        victim = max(r.pid for r in cluster.replicas if r.pid != leader.pid)
        cluster.net.isolate(victim, start=cluster.sim.now)
        for i in range(30):
            cluster.execute(leader.pid, put("k", i), timeout=20_000.0)
        # The victim is now far behind the pruning point.
        assert leader.pruned_upto > cluster.replicas[victim].applied_upto
        cluster.net.heal_all()
        cluster.run_until(
            lambda: cluster.replicas[victim].applied_upto
            >= leader.applied_upto,
            timeout=20_000.0,
        )
        assert cluster.replicas[victim].state == leader.state

    def test_laggard_reads_fresh_after_snapshot(self):
        cluster = compacting_cluster()
        leader = cluster.leader()
        victim = max(r.pid for r in cluster.replicas if r.pid != leader.pid)
        cluster.net.isolate(victim, start=cluster.sim.now)
        for i in range(30):
            cluster.execute(leader.pid, put("k", i), timeout=20_000.0)
        cluster.net.heal_all()
        assert cluster.execute(victim, get("k"), timeout=20_000.0) == 29

    def test_new_leader_initializes_from_snapshot(self):
        cluster = compacting_cluster()
        leader = cluster.leader()
        successor = next(
            r.pid for r in cluster.replicas if r.pid != leader.pid
        )
        cluster.net.isolate(successor, start=cluster.sim.now)
        for i in range(30):
            cluster.execute(leader.pid, put("k", i), timeout=20_000.0)
        cluster.net.heal_all()
        cluster.run(50.0)
        cluster.crash(leader.pid)
        cluster.run_until_leader(timeout=20_000.0)
        reader = next(r.pid for r in cluster.alive())
        assert cluster.execute(reader, get("k"), timeout=20_000.0) == 29
        assert cluster.execute(reader, put("k", 99),
                               timeout=20_000.0) is None

    def test_snapshot_install_purges_covered_pending_batches(self):
        # Isolate a follower one delta after a put: it has adopted the
        # put's Prepare (a pending batch) but misses its Commit, then
        # falls behind the pruning point and catches up by snapshot.
        # The snapshot covers the pending batch, so it must not linger.
        cluster = compacting_cluster()
        leader = cluster.leader()
        victim = cluster.replicas[
            max(r.pid for r in cluster.replicas if r.pid != leader.pid)
        ]
        leader.submit_rmw(put("k", -1))
        cluster.run(1.0 * cluster.config.delta)
        cluster.net.isolate(victim.pid, start=cluster.sim.now)
        for i in range(30):
            cluster.execute(leader.pid, put("k", i), timeout=20_000.0)
        cluster.net.heal_all()
        cluster.run_until(
            lambda: victim.applied_upto >= leader.applied_upto,
            timeout=20_000.0,
        )
        assert victim.pruned_upto > 0, "expected a snapshot catch-up"
        assert all(j > victim.applied_upto for j in victim.pending_batches), (
            sorted(victim.pending_batches)
        )

    def test_history_linearizable_with_compaction(self):
        cluster = compacting_cluster()
        ops = []
        for i in range(20):
            ops.append((i % 5, put(f"k{i % 2}", i)))
            ops.append(((i + 1) % 5, get(f"k{i % 2}")))
        cluster.execute_all(ops, timeout=30_000.0)
        result = check_linearizable(
            cluster.spec, cluster.history(), partition_by_key=True
        )
        assert result, result.reason


class TestCompactedResponses:
    def test_jumped_ops_resolve(self):
        # A victim submits writes that commit (via retries reaching the
        # leader) while it is partitioned from the responses; after a
        # snapshot catch-up its futures resolve — the latest with its true
        # response, earlier ones possibly with the COMPACTED sentinel.
        cluster = compacting_cluster(interval=3, retain=1)
        leader = cluster.leader()
        victim_pid = max(
            r.pid for r in cluster.replicas if r.pid != leader.pid
        )
        victim = cluster.replicas[victim_pid]
        futures = [victim.submit_rmw(increment("c")) for _ in range(3)]
        cluster.run(50.0)  # submissions reach the leader...
        cluster.net.isolate(victim_pid, start=cluster.sim.now)
        submitted_ids = [(victim_pid, seq) for seq in (1, 2, 3)]
        cluster.run_until(
            lambda: all(op_id in leader.committed_op_ids
                        for op_id in submitted_ids),
            timeout=20_000.0,
        )
        # Push the log far past the victim's position.
        for i in range(20):
            cluster.execute(leader.pid, put("filler", i), timeout=20_000.0)
        cluster.net.heal_all()
        cluster.run_until(lambda: all(f.done for f in futures),
                          timeout=30_000.0)
        values = [f.value for f in futures]
        # All three committed exactly once: the counter reads 3 everywhere,
        # and any non-sentinel responses are consistent with one execution
        # order (1, 2, 3).
        assert cluster.execute(leader.pid, get("c"), timeout=20_000.0) == 3
        concrete = [v for v in values if v is not COMPACTED]
        assert all(v in (1, 2, 3) for v in concrete)

    def test_sentinel_repr_and_singleton(self):
        from repro.objects.spec import CompactedResponse

        assert CompactedResponse() is COMPACTED
        assert "compacted" in repr(COMPACTED)

    def test_checker_accepts_unknown_responses(self):
        from repro.objects.register import RegisterSpec, read, write
        from repro.verify.history import History, HistoryEntry

        spec = RegisterSpec(initial=0)
        history = History([
            HistoryEntry(write(1), None, 0, 1, response_unknown=True),
            HistoryEntry(read(), 1, 2, 3),
        ])
        assert check_linearizable(spec, history)

    def test_checker_still_requires_unknown_ops_to_take_effect(self):
        from repro.objects.register import RegisterSpec, read, write
        from repro.verify.history import History, HistoryEntry

        spec = RegisterSpec(initial=0)
        # The write's response is unknown but it completed; a later read
        # of the initial value is a violation.
        history = History([
            HistoryEntry(write(1), None, 0, 1, response_unknown=True),
            HistoryEntry(read(), 0, 2, 3),
        ])
        assert not check_linearizable(spec, history)


class TestConfigValidation:
    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            ChtConfig(compaction_interval=-1)
        with pytest.raises(ValueError):
            ChtConfig(compaction_interval=10, compaction_retain=0)
