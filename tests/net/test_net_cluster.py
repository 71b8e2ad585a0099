"""End-to-end: real OS processes, real TCP, the same protocol code.

Each test boots a 3-replica (+1 leaseholder) cluster as subprocesses
via :class:`repro.net.launch.ClusterLauncher` and drives it with the
real :class:`repro.net.client.NetKV` client.  These are the
acceptance-criteria pins: linearizable-session writes, reads through
the leaseholder tier, exactly-once across a SIGKILL'd replica, and
durable recovery when every member is killed and restarted.
"""

import sys
import threading
import time

import pytest

from repro.net.client import NetKV, OpTimeout
from repro.net.launch import ClusterLauncher, local_spec


def test_real_cluster_serves_writes_and_reads():
    spec = local_spec(n=3, num_leaseholders=1, seed=101)
    with ClusterLauncher(spec) as cluster:
        with NetKV(spec, client_seed=1) as kv:
            assert kv.put("a", "alpha", timeout=20) is None
            assert kv.get("a", timeout=20) == "alpha"
            assert kv.increment("n", 3, timeout=20) == 3
            assert kv.increment("n", 4, timeout=20) == 7
            assert kv.delete("a", timeout=20) is None
            assert kv.get("a", timeout=20) is None
            # The read path preferred the leaseholder tier: the session's
            # read targets start at the holder's pid.
            assert kv.session.read_targets[0] == 3


def test_sigkill_mid_stream_stays_exactly_once():
    spec = local_spec(n=3, num_leaseholders=1, seed=102)
    with ClusterLauncher(spec) as cluster:
        with NetKV(spec, client_seed=2) as kv:
            acked = 0
            for _ in range(5):
                kv.increment("k", 1, timeout=20)
                acked += 1
            # Crash-stop a replica (possibly the leader) mid-stream; the
            # survivors are a majority, so the stream must continue and
            # every retransmitted increment must apply exactly once.
            cluster.kill(0)
            for _ in range(5):
                kv.increment("k", 1, timeout=30)
                acked += 1
            assert kv.get("k", timeout=20) == acked == 10


def test_killed_members_recover_from_file_storage(tmp_path):
    spec = local_spec(n=3, num_leaseholders=0, seed=103,
                      storage_dir=str(tmp_path / "store"))
    with ClusterLauncher(spec) as cluster:
        with NetKV(spec, client_seed=3) as kv:
            for i in range(4):
                kv.increment("c", 1, timeout=20)
            kv.put("x", "survives", timeout=20)
        # SIGKILL every replica: all volatile state is gone; only the
        # WAL/snapshot files remain.
        for pid in spec.replica_pids:
            cluster.kill(pid)
        for pid in spec.replica_pids:
            cluster.restart(pid)
        with NetKV(spec, client_seed=4) as kv2:
            assert kv2.get("c", timeout=30) == 4
            assert kv2.get("x", timeout=20) == "survives"
            # And the recovered cluster still commits new writes.
            assert kv2.increment("c", 1, timeout=20) == 5


def test_client_times_out_against_a_dead_cluster():
    spec = local_spec(n=3, num_leaseholders=0, seed=104)
    with ClusterLauncher(spec) as cluster:
        with NetKV(spec, client_seed=5) as kv:
            kv.put("seed", 1, timeout=20)
            for pid in spec.replica_pids:
                cluster.kill(pid)
            # A majority is gone: the call must surface a prompt error
            # instead of spinning forever.
            with pytest.raises(OpTimeout):
                kv.put("seed", 2, timeout=2.0)


def test_submit_error_reaches_the_caller_at_once(monkeypatch):
    # No cluster needed: the error is raised before anything is sent.
    spec = local_spec(n=3, num_leaseholders=0, seed=105)
    with NetKV(spec, client_seed=6) as kv:
        def refuse(op):
            raise RuntimeError("submit refused")

        monkeypatch.setattr(kv.session, "submit", refuse)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="submit refused"):
            kv.put("a", 1, timeout=30)
        assert time.monotonic() - t0 < 5.0  # not the 30 s timeout


def test_client_keeps_only_in_flight_ops():
    spec = local_spec(n=3, num_leaseholders=1, seed=106)
    with ClusterLauncher(spec):
        with NetKV(spec, client_seed=7) as kv:
            kv.put("k", "v", timeout=20)
            for _ in range(500):
                assert kv.get("k", timeout=20) == "v"
            # Read on the loop thread, after the reply's handling is done.
            assert kv.runtime.call(lambda: kv.stats.records) == []
            assert kv.runtime.call(lambda: kv.session._futures) == {}


def test_threads_sharing_a_handle_lose_no_increment():
    # More callers than cores, switching often: every call's hand-off
    # must pair its own reply with its own caller.
    spec = local_spec(n=3, num_leaseholders=1, seed=107)
    threads, per_thread = 6, 25
    replies = []
    with ClusterLauncher(spec):
        with NetKV(spec, client_seed=8) as kv:
            def work():
                for _ in range(per_thread):
                    replies.append(kv.increment("c", 1, timeout=20))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                workers = [threading.Thread(target=work)
                           for _ in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(w.is_alive() for w in workers)
            total = threads * per_thread
            assert sorted(replies) == list(range(1, total + 1))
            assert kv.get("c", timeout=20) == total
