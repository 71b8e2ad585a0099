"""The shared control plane and its link to the groups.

Routers and the handoff coordinator never hold a reference to a group's
client sessions; everything that crosses between sites goes through a
star-shaped message link:

* the **control plane** (shard map, routers' driving tasks, the handoff
  coordinator) runs on a dedicated :class:`ControlHost` process;
* each **group** exposes a :class:`GroupPort` that accepts ``submit``
  envelopes (run this operation as session ``index``) and answers with
  ``reply`` envelopes carrying the committed response;
* every crossing is one :meth:`TransportEndpoint.send`, which samples a
  latency and schedules the delivery on the shared simulator.

What a group observes is a function of its own seed-derived streams and
of the envelopes it is sent, never of which other groups happen to
share the simulator.  Three properties carry that:

1. **Per-endpoint draws.**  Each endpoint owns a forked ``"transport"``
   rng stream (site-namespaced for groups), so its latency draws are a
   function of that endpoint's send order alone.
2. **Front-of-time delivery.**  An envelope delivered at ``T`` was sent
   strictly before ``T``, so it is handled ahead of the destination's
   own events at ``T`` (:meth:`~repro.sim.core.Simulator.call_at_front`),
   FIFO in send order.
3. **Site stagger.**  Every endpoint adds a tiny site-specific constant
   (``site_index * 1e-6``) to each draw, so envelopes from *different*
   sites never share a delivery instant at the control host.  The
   stagger is orders of magnitude below every protocol timescale in the
   repository.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.latency import DelayModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.tasks import Future
from .map import ShardMap
from .spec import freeze_op, install_op

if TYPE_CHECKING:  # pragma: no cover
    from ..core.client import ChtCluster
    from ..obs.spans import ObsContext

__all__ = [
    "CONTROL_SITE",
    "TransportEndpoint",
    "LocalTransport",
    "ControlHost",
    "ControlPlane",
    "GroupPort",
    "site_of",
    "site_index",
]

CONTROL_SITE = "ctl"

#: Per-site latency stagger; see the module docstring, property 3.
_STAGGER = 1e-6


def site_of(gid: int) -> str:
    return f"g{gid}"


def site_index(site: str) -> int:
    """0 for the control site, ``gid + 1`` for group sites."""
    if site == CONTROL_SITE:
        return 0
    return int(site[1:]) + 1


class TransportEndpoint:
    """One site's sending half: latency draws, site stagger, FIFO clamp."""

    def __init__(
        self,
        site: str,
        sim: Simulator,
        delay_model: DelayModel,
        handlers: dict[str, Callable[[Any], None]],
    ) -> None:
        self.site = site
        self.sim = sim
        self.delay_model = delay_model
        self._handlers = handlers
        self._stagger = site_index(site) * _STAGGER
        # Group endpoints namespace the stream by site, so a group's
        # draws do not depend on how many groups share the simulator.
        self.rng = sim.fork_rng(
            "transport", site=None if site == CONTROL_SITE else site
        )
        self._last_delivery: dict[str, float] = {}

    def send(self, dst: str, payload: Any) -> None:
        delay = self.delay_model.sample(
            site_index(self.site), site_index(dst), self.rng
        )
        deliver_at = self.sim.now + delay + self._stagger
        # FIFO per (src, dst) site pair, like the in-group network links.
        floor = self._last_delivery.get(dst, 0.0)
        if deliver_at < floor:
            deliver_at = floor
        self._last_delivery[dst] = deliver_at
        self.sim.call_at_front(deliver_at, self._handlers[dst], payload)


class LocalTransport:
    """The cross-site link: one delay model, one handler per site."""

    def __init__(self, sim: Simulator, delay_model: DelayModel) -> None:
        self.sim = sim
        self.delay_model = delay_model
        self._handlers: dict[str, Callable[[Any], None]] = {}

    def endpoint(
        self, site: str, handler: Callable[[Any], None]
    ) -> TransportEndpoint:
        """Register ``site``'s receiving handler; return its sending half."""
        self._handlers[site] = handler
        return TransportEndpoint(
            site, self.sim, self.delay_model, self._handlers
        )


class ControlHost(Process):
    """The process hosting routers' driving tasks and the handoff task.

    It lives on its own single-process network purely so the task/timer
    machinery (Sleep backoffs, workload think time) works; it never
    sends or receives network messages, and its clock is exact
    (offset 0), so local time equals simulation time.
    """

    def on_message(self, src: int, msg: Any) -> None:  # pragma: no cover
        raise AssertionError("the control host exchanges no network messages")


class ControlPlane:
    """Shard map, request bridging, and fenced handoffs for one cluster."""

    def __init__(
        self,
        sim: Simulator,
        transport: LocalTransport,
        shard_map: ShardMap,
        num_groups: int,
        num_clients: int,
        delta: float,
        obs: "Optional[ObsContext]" = None,
    ) -> None:
        self.sim = sim
        self.map = shard_map
        self.num_groups = num_groups
        self.num_clients = num_clients
        self.obs = obs
        net = Network(sim, delta=delta)
        clocks = ClockModel(1, 0.0, offsets=[0.0])
        self.host = ControlHost(0, sim, net, clocks)
        self.endpoint = transport.endpoint(CONTROL_SITE, self._on_message)
        #: Completed handoff records (dicts), in completion order.
        self.handoffs: list[dict[str, Any]] = []
        self._last_handoff: Optional[Future] = None
        self._pending: dict[int, Future] = {}
        self._req = 0

    # ------------------------------------------------------------------
    # Request bridging
    # ------------------------------------------------------------------
    def submit(self, gid: int, index: int, op: Any) -> Future:
        """Run ``op`` as group ``gid``'s session ``index``; the future
        resolves with the session's committed response."""
        self._req += 1
        future = Future()
        self._pending[self._req] = future
        self.endpoint.send(site_of(gid), ("submit", index, self._req, op))
        return future

    def _on_message(self, payload: tuple) -> None:
        kind, req_id, value = payload
        assert kind == "reply", payload
        self._pending.pop(req_id).resolve(value)

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
        ``dst``.  Returns a future resolving with the handoff record once
        the install commits.  Handoffs are serialized: this one starts
        only after every previously spawned handoff completes."""
        if src == dst:
            raise ValueError("handoff source and destination must differ")
        for gid in (src, dst):
            if not 0 <= gid < self.num_groups:
                raise ValueError(f"unknown group {gid}")
        future = Future()
        prev, self._last_handoff = self._last_handoff, future
        self.host.spawn(
            self._handoff_task(src, dst, slots, prev, future),
            name=f"handoff-{src}-{dst}",
        )
        return future

    def _handoff_task(
        self,
        src: int,
        dst: int,
        slots: Optional[Iterable[int]],
        prev: Optional[Future],
        future: Future,
    ) -> Generator:
        if prev is not None and not prev.done:
            yield prev
        # Resolve the slot set only now, against the *current* map —
        # an earlier handoff may have moved slots since spawn time, and
        # freezing a slot the source no longer owns would install stale
        # (empty) ownership over the current owner's data.
        current = self.map.slots_of(src)
        if slots is None:
            half = sorted(current)[: max(1, len(current) // 2)]
            moving = frozenset(half)
        else:
            moving = frozenset(slots) & current
        if not moving:
            record = {
                "src": src, "dst": dst, "slots": (), "version":
                self.map.version, "items": 0, "completed_at": self.sim.now,
            }
            future.resolve(record)
            return
        new_map = self.map.move(moving, dst)
        self.map = new_map  # step 1: publish; the version bump fences
        coordinator = self.num_clients  # the reserved session index
        span = None
        if self.obs is not None:
            span = self.obs.tracer.begin(
                "shard.handoff", "shard", self.host.pid,
                src=src, dst=dst, slots=len(moving),
                version=new_map.version, site=site_of(src),
            )
            self.obs.registry.counter("shard_handoffs_total").inc()
        freeze = self.submit(src, coordinator, freeze_op(moving, new_map.version))
        yield freeze  # step 2: src stops answering for the range
        items = freeze.value
        if span is not None:
            span.mark("frozen_at", self.sim.now)
            span.mark("items", len(items))
        install = self.submit(
            dst, coordinator, install_op(moving, new_map.version, items)
        )
        yield install  # step 3: dst starts answering for the range
        record = {
            "src": src,
            "dst": dst,
            "slots": tuple(sorted(moving)),
            "version": new_map.version,
            "items": len(items),
            "completed_at": self.sim.now,
        }
        self.handoffs.append(record)
        if span is not None:
            self.obs.tracer.close(span, "completed")
        future.resolve(record)


class GroupPort:
    """One group's receiving half: submit envelopes in, replies out.

    The port is the group's **only** cross-site sender: every envelope a
    group emits is a ``reply`` to a ``submit`` it received here.
    """

    def __init__(
        self, gid: int, group: "ChtCluster", transport: LocalTransport
    ) -> None:
        self.gid = gid
        self.group = group
        self.endpoint = transport.endpoint(site_of(gid), self._on_message)

    def _on_message(self, payload: tuple) -> None:
        kind, index, req_id, op = payload
        assert kind == "submit", payload
        future = self.group.clients[index].submit(op)
        future.on_resolve(lambda value: self._reply(req_id, value))

    def _reply(self, req_id: int, value: Any) -> None:
        self.endpoint.send(CONTROL_SITE, ("reply", req_id, value))
