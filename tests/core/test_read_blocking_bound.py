"""The paper's 3-delta read-blocking bound, at the leaseholder tier.

``test_reads.py`` pins the bound for replica-local reads; these tests
pin it for the read-only tier: a leaseholder read that conflicts with a
pending (prepared-but-uncommitted) batch blocks, unblocks within
``3 * delta`` of local time, and returns the conflicting write's value;
a read of an unrelated key sails through the same window synchronously.
"""

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.sim.latency import FixedDelay


def settled_cluster(seed=11):
    cluster = ChtCluster(
        KVStoreSpec(), ChtConfig(n=5), seed=seed,
        num_leaseholders=2,
        post_gst_delay=FixedDelay(10.0),
    )
    cluster.start()
    cluster.run_until_leader()
    cluster.execute(0, put("hot", 1))
    cluster.execute(0, put("cold", 1))
    cluster.run(3 * cluster.config.lease_period)
    return cluster


def run_to_pending(cluster, lh, op):
    """Submit ``op`` at the leader; run until ``lh`` holds the batch as
    pending (Prepare arrived) but not yet committed."""
    leader = cluster.leader()
    future = cluster.submit(leader.pid, op)
    cluster.run_until(
        lambda: any(j not in lh.batches for j in lh.pending_batches),
        timeout=100.0,
    )
    return future


class TestConflictingReads:
    def test_conflicting_read_blocks_then_unblocks_within_3_delta(self):
        cluster = settled_cluster()
        lh = cluster.leaseholders[0]
        write = run_to_pending(cluster, lh, put("hot", 2))
        read = lh.submit_read(get("hot"))
        assert not read.done, "read conflicting with a pending RMW must block"
        cluster.run_until(lambda: read.done)
        assert read.value == 2, "the blocked read sees the pending write"
        assert cluster.stats.max_blocking("read") <= 3 * cluster.config.delta
        cluster.run_until(lambda: write.done)

    def test_sustained_conflict_tail_stays_under_3_delta(self):
        cluster = settled_cluster(seed=13)
        lh = cluster.leaseholders[1]
        futures = []
        for i in range(10):
            futures.append(cluster.submit(cluster.leader().pid,
                                          put("hot", i)))
            futures.append(lh.submit_read(get("hot")))
            cluster.run(15.0)
        cluster.run_until(lambda: all(f.done for f in futures))
        assert any(t > 0.0 for t in cluster.stats.blocking_times("read")), (
            "no read conflicted with a pending write"
        )
        assert cluster.stats.max_blocking("read") <= 3 * cluster.config.delta

    def test_k_hat_rises_only_for_the_conflicting_key(self):
        cluster = settled_cluster()
        lh = cluster.leaseholders[0]
        run_to_pending(cluster, lh, put("hot", 2))
        pending_j = max(
            j for j in lh.pending_batches if j not in lh.batches
        )
        assert lh._compute_k_hat(get("hot")) == pending_j
        assert lh._compute_k_hat(get("cold")) < pending_j
        cluster.run_until(lambda: lh.applied_upto >= pending_j)


class TestNonConflictingReads:
    def test_nonconflicting_read_never_blocks(self):
        cluster = settled_cluster()
        lh = cluster.leaseholders[0]
        run_to_pending(cluster, lh, put("hot", 2))
        read = lh.submit_read(get("cold"))
        assert read.done, "read of an unrelated key must not block"
        assert read.value == 1

    def test_steady_state_reads_do_not_block_at_any_holder(self):
        cluster = settled_cluster(seed=17)
        futures = [lh.submit_read(get("hot"))
                   for lh in cluster.leaseholders for _ in range(5)]
        assert all(f.done for f in futures)
        assert cluster.stats.blocked_fraction("read") == 0.0
