"""The multi-group façade over one shared simulator.

A :class:`ShardedCluster` runs *G* independent CHT groups over **one**
shared simulator, so their events interleave in a single deterministic
timeline.  Each group is a full :class:`~repro.core.client.ChtCluster`
— its own network, clocks, replicas, and client sessions — hosting a
:class:`~repro.shard.spec.ShardedSpec` that owns this group's share of
the key slots.  Groups share nothing but the simulator (and, when
observability is on, one :class:`~repro.obs.spans.ObsContext` where the
``site`` label ``"g0" / "g1" / ...`` keeps their telemetry apart, since
pids repeat across groups).

Routing and handoffs do not reach into sibling groups directly: the
shard map, the routers' driving tasks, and the fenced handoff
coordinator all live on a :class:`~repro.shard.transport.ControlPlane`,
which talks to each group's :class:`~repro.shard.transport.GroupPort`
through a :class:`~repro.shard.transport.LocalTransport`.

Handoff of a slot range from group ``src`` to ``dst`` is three steps,
each fenced by the map version it carries:

1. **Publish**: the control plane's shard map is replaced by one where
   the slots belong to ``dst`` and the version is bumped.  Routers that
   refresh now route to ``dst`` and simply retry on ``WrongShard``
   until step 3 lands; routers that do not refresh keep hitting ``src``
   until step 2 commits there, then get ``WrongShard`` and converge.
2. **Freeze**: ``shard_freeze`` commits at ``src`` through an ordinary
   client session, exporting the items and shrinking ``src``'s owned
   set.  From this commit on, ``src`` answers the moved range only with
   ``WrongShard`` — including reads, which the conflict relation forces
   to wait out the freeze.
3. **Install**: ``shard_install`` commits the exported items at ``dst``,
   which starts answering for the range.

Leader crashes anywhere in this sequence are harmless: freeze and
install are session RMWs, so they survive through retransmission and
the reply cache exactly like any client operation.  Handoffs are
serialized (each waits for its predecessor) so the slot set frozen is
always computed against the current map.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Optional

from ..core.client import ChtCluster, ClientSession
from ..core.config import ChtConfig
from ..objects.spec import ObjectSpec
from ..obs.spans import ObsContext
from ..sim.core import Simulator
from ..sim.latency import DelayModel, FixedDelay
from ..sim.tasks import Future
from .map import ShardMap
from .router import Router
from .spec import ShardedSpec
from .transport import ControlPlane, GroupPort, LocalTransport

__all__ = ["ShardedCluster", "group_fingerprint"]


def group_fingerprint(group: ChtCluster) -> str:
    """One group's run trace, canonically serialized.

    Captures the full per-session operation history (ids, kinds,
    operations, invocation and response times, responses), each
    replica's applied prefix and state, and the group network's message
    accounting.  Two runs whose fingerprints match byte-for-byte
    processed this group's events in the same order at the same times.
    """
    stats = [
        [
            list(record.op_id),
            record.pid,
            record.kind,
            repr(record.op),
            record.invoked_at,
            record.responded_at,
            repr(record.response),
            record.blocked,
        ]
        for record in group.stats.records
    ]
    replicas = [
        [replica.pid, replica.applied_upto, repr(replica.state)]
        for replica in group.replicas
    ]
    net = {
        "sent": sorted(group.net.messages_sent.items()),
        "delivered": sorted(group.net.messages_delivered.items()),
        "dropped": sorted(group.net.messages_dropped.items()),
        "duplicated": sorted(group.net.messages_duplicated.items()),
        "categories": sorted(group.net.category_sent.items()),
    }
    return json.dumps(
        {"stats": stats, "replicas": replicas, "net": net},
        sort_keys=True,
        separators=(",", ":"),
    )


class ShardedCluster:
    """``num_groups`` CHT groups partitioning one logical object."""

    def __init__(
        self,
        spec: ObjectSpec,
        config: Optional[ChtConfig] = None,
        num_groups: int = 2,
        num_slots: int = 16,
        seed: int = 0,
        num_clients: int = 1,
        obs: bool = False,
        gst: float = 0.0,
        monitors: bool = True,
        transport_delay: Optional[DelayModel] = None,
        group_setup: Optional[Callable[[ChtCluster, int], None]] = None,
        on_started: Optional[Callable[[ChtCluster, int], None]] = None,
        num_leaseholders: int = 0,
    ) -> None:
        if num_groups < 1:
            raise ValueError("need at least one group")
        if num_clients < 1:
            raise ValueError("need at least one client per group")
        self.inner_spec = spec
        self.config = config or ChtConfig()
        self.num_groups = num_groups
        self.num_clients = num_clients
        # Per-group leaseholder read tier (read-only learners; see
        # repro.core.leaseholder).  Each group gets its own set, so a
        # range handoff changes which group's leaseholders may answer
        # for the moved slots — the freeze conflict plus lease fencing
        # keeps a stale holder from serving the frozen range.
        self.num_leaseholders = num_leaseholders
        self.sim = Simulator(seed=seed)
        # One shared context, attached before any group builds processes.
        self.obs: Optional[ObsContext] = (
            ObsContext(self.sim) if obs else None
        )
        # The control plane is built first, so its un-namespaced rng
        # streams ("network", "process-0", "transport") are the first
        # fork of each label whatever the groups fork afterwards.
        if transport_delay is None:
            transport_delay = FixedDelay(self.config.delta)
        transport = LocalTransport(self.sim, transport_delay)
        self.control = ControlPlane(
            self.sim,
            transport,
            ShardMap.uniform(num_slots, num_groups),
            num_groups,
            num_clients,
            delta=self.config.delta,
            obs=self.obs,
        )
        # Per group: ``num_clients`` router-facing sessions plus one
        # extra session (the last) reserved as the handoff coordinator,
        # so freeze/install never contend with a workload session's
        # one-outstanding-RMW limit.
        self.groups: list[ChtCluster] = []
        self.ports: list[GroupPort] = []
        for g in range(num_groups):
            group = ChtCluster(
                ShardedSpec(spec, num_slots, self.control.map.slots_of(g)),
                self.config,
                sim=self.sim,
                site=f"g{g}",
                num_clients=num_clients + 1,
                obs=self.obs if self.obs is not None else False,
                gst=gst,
                monitors=monitors,
                num_leaseholders=num_leaseholders,
            )
            self.groups.append(group)
            self.ports.append(GroupPort(g, group, transport))
        self._group_setup = group_setup
        self._on_started = on_started

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def map(self) -> ShardMap:
        """The published shard map (owned by the control plane)."""
        return self.control.map

    @property
    def handoffs(self) -> list[dict[str, Any]]:
        return self.control.handoffs

    def start(self) -> "ShardedCluster":
        # Hook order is setup (fault switches), start, on_started
        # (schedule arming): recorded traces depend on it.
        if self._group_setup is not None:
            for g, group in enumerate(self.groups):
                self._group_setup(group, g)
        for group in self.groups:
            group.start()
        if self._on_started is not None:
            for g, group in enumerate(self.groups):
                self._on_started(group, g)
        return self

    def run(self, duration: float) -> None:
        self.sim.run_for(duration)

    def run_to(self, until: float) -> None:
        """Run to an absolute simulation time."""
        self.sim.run(until=until)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float = 10_000.0
    ) -> bool:
        deadline = self.sim.now + timeout
        self.sim.run(until=deadline, stop_when=predicate)
        return predicate()

    def run_until_leaders(self, timeout: float = 10_000.0) -> None:
        """Run until every group has an initialized leader."""
        ok = self.run_until(
            lambda: all(g.leader() is not None for g in self.groups),
            timeout,
        )
        if not ok:
            missing = [
                i for i, g in enumerate(self.groups) if g.leader() is None
            ]
            raise TimeoutError(
                f"groups {missing} elected no leader within {timeout}"
            )

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def router(self, index: int, **kwargs: Any) -> Router:
        """A routing client for client-session index ``index``."""
        if not 0 <= index < self.num_clients:
            raise ValueError(
                f"client index {index} out of range "
                f"(coordinator sessions are not routable)"
            )
        return Router(self, index, **kwargs)

    def coordinator(self, gid: int) -> ClientSession:
        """Group ``gid``'s reserved handoff session."""
        return self.groups[gid].clients[self.num_clients]

    # ------------------------------------------------------------------
    # Handoff
    # ------------------------------------------------------------------
    def spawn_handoff(
        self,
        src: int,
        dst: int,
        slots: Optional[Iterable[int]] = None,
    ) -> Future:
        """Move ``slots`` (default: half of ``src``'s) from ``src`` to
        ``dst``; see :meth:`ControlPlane.spawn_handoff`."""
        return self.control.spawn_handoff(src, dst, slots)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"map={self.map!r}"]
        for i, group in enumerate(self.groups):
            parts.append(f"g{i}: {group.describe()}")
        return " | ".join(parts)

    def owned_slots(self, gid: int) -> frozenset[int]:
        """The slot set the most caught-up live replica of ``gid`` has
        applied — the group's committed ownership, which trails the
        published map until freeze/install commit."""
        group = self.groups[gid]
        alive = [r for r in group.replicas if not r.crashed]
        best = max(alive, key=lambda r: r.applied_upto)
        return best.state.owned

    def invariant_failures(self) -> dict[str, str]:
        """Per-site I2/I3 violation details; empty when all groups pass.

        Groups running with a durability layer additionally get their
        durable footprints audited (reload-as-a-restart-would + durable
        I1/I2); the audit is a no-op for groups without one.
        """
        from ..durable import durable_audit
        from ..verify.invariants import check_i2_i3

        failures: dict[str, str] = {}
        for g, group in enumerate(self.groups):
            try:
                check_i2_i3(group.replicas)
                durable_audit(group.replicas)
            except AssertionError as exc:
                failures[f"g{g}"] = str(exc) or "invariant check failed"
        return failures
