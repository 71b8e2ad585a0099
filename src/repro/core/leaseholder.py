"""The leaseholder tier: read-only learners with local reads.

A :class:`Leaseholder` is the paper's answer to read scale-out: a process
that *never* joins quorums — it holds no estimate, makes no promises, and
does not count toward any majority — yet serves linearizable reads
entirely from local state under a read lease.  Because the leader's
Prepare/Commit/LeaseGrant broadcasts already reach every registered
process, attaching L leaseholders adds only their PrepareAcks and the
grant fan-out: Θ(n + L) messages per renewal interval, independent of the
read rate (tests/core/test_lease_complexity.py pins the linearity).

Everything a leaseholder shares with a replica — storing and applying
committed batches, compaction, snapshots, catch-up, the Commit /
LeaseGrant / BatchRequest / BatchReply handlers and the local read path —
is :class:`~repro.core.learner.Learner`.  This subclass adds only what
makes it a *read-only* learner:

* **Prepare** — remember the batch as *pending* (the conflict-blocking
  rule inspects it) and acknowledge.  The ack never counts toward the
  commit majority (the leader filters acceptor pids); it only releases
  the leader from waiting out the lease expiry for this holder.
* **ClientRequest** — reads are served locally; a RMW that strays here
  is forwarded once toward the leader whose grant arrived last.

Crash-stop state classification extends the learner's tables (pinned by
tests/core/test_volatile_reset.py).  One deliberate choice is load-
bearing for shard fencing: ``pending_batches`` is *stable*.  A
leaseholder's PrepareAck externalizes "I know batch j is in flight" —
it is precisely what lets the leader commit j without waiting out this
holder's lease — so that knowledge must survive a crash.  Were it
volatile, a leaseholder could ack Prepare(j) (say, a shard freeze),
crash, recover with a still-valid in-flight lease for k = j-1, and
serve a read from the frozen range without blocking on j
(tests/shard/test_leaseholder_fencing.py).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from ..objects.spec import ObjectSpec
from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.network import Network
from ..sim.trace import RunStats
from .config import ChtConfig
from .learner import Learner
from .messages import ClientRequest, LeaseGrant, Prepare, PrepareAck

__all__ = ["Leaseholder"]


class Leaseholder(Learner):
    """A read-only learner holding a read lease (no quorum participation)."""

    _READ_SPAN = "read.local"

    def __init__(
        self,
        pid: int,
        sim: Optional[Simulator] = None,
        net: Optional[Network] = None,
        clocks: Optional[ClockModel] = None,
        spec: ObjectSpec = None,
        config: ChtConfig = None,
        stats: Optional[RunStats] = None,
        site: Optional[str] = None,
        runtime: Optional[Any] = None,
    ) -> None:
        if config is not None and pid < config.n:
            raise ValueError("leaseholder pids must lie above the replicas")
        super().__init__(pid, sim, net, clocks, spec, config, stats,
                         site=site, runtime=runtime)
        # Where the most recent LeaseGrant came from: the best guess at
        # the current leader, used only to forward stray RMW requests.
        self._last_leader: Optional[int] = None

    # pending_batches is stable on purpose: the PrepareAck below
    # externalizes it (see the module docstring and the shard-fencing
    # regression test).
    STABLE_ATTRS = Learner.STABLE_ATTRS | {"pending_batches"}
    _VOLATILE_FACTORIES = {
        **Learner._VOLATILE_FACTORIES,
        "_last_leader": lambda: None,
    }

    def start(self) -> None:
        """Leaseholders are purely reactive: no tasks, no timers.  They
        are folded into the lease flow by the leader's next grant (their
        LeaseRequest answer to it reintegrates them)."""

    # ==================================================================
    # Message handlers
    # ==================================================================
    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.j - 1, msg.prev_batch)
        if msg.j > self.applied_upto and msg.j not in self.batches:
            # Values accumulate by union when competing leaders prepare
            # the same slot: the conflict check can then only over-block,
            # never under-block.
            prior = self.pending_batches.get(msg.j)
            self.pending_batches[msg.j] = (
                msg.ops if prior is None else prior | msg.ops
            )
        # Ack unconditionally: the ack carries no promise (this process
        # is not an acceptor), it only tells the leader of tenure msg.t
        # that this holder has been notified of batch j.
        self.send(src, PrepareAck(msg.t, msg.j))

    def _on_lease_grant(self, src: int, msg: LeaseGrant) -> None:
        self._last_leader = src
        super()._on_lease_grant(src, msg)

    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        if self.spec.is_read(msg.op):
            self._serve_client_read(msg.client_id, msg.seq, msg.op)
            return
        # A RMW has no business here; forward it once toward the leader
        # that granted our lease (sessions also rotate toward replicas on
        # their own, so dropping when we know no leader is safe).
        if not msg.forwarded and self._last_leader is not None:
            self.send(self._last_leader, replace(msg, forwarded=True))

    _HANDLERS = {
        **Learner._HANDLERS,
        "Prepare": _on_prepare,
        "LeaseGrant": _on_lease_grant,
        "ClientRequest": _on_client_request,
    }

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else (
            "leased" if self._lease_valid() else "lapsed"
        )
        return (
            f"<Leaseholder {self.pid} {status} applied={self.applied_upto}>"
        )
