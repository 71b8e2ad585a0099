"""Pin the crash-time state classification against the real attribute set.

Every instance attribute a :class:`ChtReplica` or a :class:`Leaseholder`
carries beyond the Process base must be classified as stable, volatile,
or infrastructure.  The classification drives ``on_crash`` — an
unclassified field would silently survive crashes it must not (or vice
versa) — so this test fails the moment someone adds a field without
deciding its fate.
"""

import math

import pytest

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.core.leaseholder import Leaseholder
from repro.core.replica import ChtReplica
from repro.objects.kvstore import KVStoreSpec, put
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


def base_attr_names():
    sim = Simulator(seed=0)
    net = Network(sim, delta=1.0)
    clocks = ClockModel(1, 0.0, rng=sim.fork_rng("clocks"))
    return set(vars(Process(0, sim, net, clocks)))


def run_workload(durability=False, num_leaseholders=0):
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=3), seed=6,
                         durability=durability,
                         num_leaseholders=num_leaseholders)
    cluster.start()
    leader = cluster.run_until_leader()
    for i in range(3):
        cluster.execute(leader.pid, put(f"k{i}", i))
    cluster.run(300.0)
    return cluster, leader


ROLES = pytest.mark.parametrize(
    "role", [ChtReplica, Leaseholder], ids=lambda cls: cls.__name__
)


class TestClassification:
    @ROLES
    def test_every_replica_attribute_is_classified(self, role):
        cluster, leader = run_workload(num_leaseholders=2)
        base = base_attr_names()
        classified = (
            set(role.STABLE_ATTRS)
            | set(role._VOLATILE_FACTORIES)
            | set(role.INFRA_ATTRS)
        )
        processes = [p for p in cluster.replicas + cluster.leaseholders
                     if type(p) is role]
        assert processes
        for process in processes:
            extra = set(vars(process)) - base
            unclassified = extra - classified
            assert not unclassified, (
                f"unclassified attributes {sorted(unclassified)}: add "
                "them to STABLE_ATTRS, _VOLATILE_FACTORIES, or "
                f"INFRA_ATTRS in {role.__name__} (or in Learner when "
                "every role has them)"
            )
            stale = classified - extra
            assert not stale, (
                f"classified attributes {sorted(stale)} no longer exist "
                f"on {role.__name__}"
            )

    @ROLES
    def test_classes_are_disjoint(self, role):
        stable = set(role.STABLE_ATTRS)
        volatile = set(role._VOLATILE_FACTORIES)
        infra = set(role.INFRA_ATTRS)
        assert not stable & volatile
        assert not stable & infra
        assert not volatile & infra


class TestCrashSemantics:
    def test_volatile_state_resets_to_factory_values(self):
        cluster, leader = run_workload()
        cluster.crash(leader.pid)
        for name, factory in ChtReplica._VOLATILE_FACTORIES.items():
            assert getattr(leader, name) == factory(), name

    def test_stable_state_survives_legacy_crash(self):
        cluster, leader = run_workload()
        before = {
            name: getattr(leader, name) for name in ChtReplica.STABLE_ATTRS
        }
        assert before["_op_seq"] > 0
        cluster.crash(leader.pid)
        for name, value in before.items():
            assert getattr(leader, name) == value, name

    def test_op_seq_is_stable_not_volatile(self):
        # Regression pin: _op_seq was historically listed under volatile
        # state.  Resetting it on crash would reissue op ids and break
        # I1; it belongs to the stable block.
        assert "_op_seq" in ChtReplica.STABLE_ATTRS
        assert "_op_seq" not in ChtReplica._VOLATILE_FACTORIES

    def test_durable_crash_erases_the_whole_stable_block(self):
        cluster, leader = run_workload(durability=True)
        assert leader.applied_upto > 0
        cluster.crash(leader.pid)
        assert leader.batches == {}
        assert leader.estimate is None
        assert leader.max_leader_ts_seen == -math.inf
        assert leader.applied_upto == 0
        assert leader.state == KVStoreSpec().initial_state()
        assert leader.committed_op_ids == set()
        assert leader.pruned_upto == 0
        assert leader.last_applied == {}
        assert leader._op_seq == 0
