"""The learner: the state and code every process of a group shares.

In the paper every process learns committed batches, applies them in
order, and serves reads under a read lease (the red code, lines 7-19 and
102-106); only acceptors and the leader add the black code on top — the
proposer/acceptor/learner split of Paxos.  :class:`Learner` is that
shared part: the batch log and its in-order application, compaction,
snapshot make/install, catch-up (BatchRequest/BatchReply), the Commit
and LeaseGrant handlers, and the local read path — wait for a read
basis, compute the linearization point k-hat from the pending batches
and the conflict relation, wait until the applied prefix reaches it,
apply locally.  The read path never sends a message; that locality is
the paper's whole point (tests/core/test_leaseholder.py pins it).

The roles subclass it: :class:`~repro.core.replica.ChtReplica` (an
acceptor that may lead, with a durable layer) and
:class:`~repro.core.leaseholder.Leaseholder` (read-only, never in a
quorum).  They extend the shared steps through ``super()``
(``_store_batch``, ``_maybe_compact``, ``_install_snapshot``,
``_next_op_id``, ``on_crash``) or four hooks that do nothing here:
``_leader_lease_k``, ``_on_applied``, ``_on_batch_applied`` and
``_on_snapshot_installed``.  The shared code never asks which role it
serves.  Each role extends the crash-time classification rows below
(``STABLE_ATTRS`` / ``_VOLATILE_FACTORIES`` / ``INFRA_ATTRS``, pinned by
tests/core/test_volatile_reset.py) and decides the class of
``pending_batches`` itself.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..objects.spec import NOOP, ObjectSpec, Operation
from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.network import Network
from ..sim.process import Process
from ..sim.tasks import Future, Until
from ..sim.trace import RunStats
from .config import ChtConfig
from .messages import (
    BatchReply,
    BatchRequest,
    ClientReply,
    Commit,
    LeaseGrant,
    LeaseRequest,
    Snapshot,
)
from .state import ReadLease

__all__ = ["Learner"]


def _noop() -> None:
    """Shared timer callback for pure wake-up timers (see ``_wait``)."""


class Learner(Process):
    """A process that learns committed batches and reads under a lease."""

    #: Span name for directly submitted reads; the leaseholder tier
    #: overrides this with ``"read.local"`` so traces distinguish the
    #: read-only tier from reads at full replicas.
    _READ_SPAN = "read"

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
        if spec is None or config is None:
            raise ValueError("spec and config are required")
        super().__init__(pid, sim, net, clocks, site=site, runtime=runtime)
        self.spec = spec
        self.config = config
        self.stats = stats if stats is not None else RunStats()
        # Extra metric/span labels in multi-group runs (pids collide
        # across groups); empty — so metric names stay unchanged — in
        # ordinary single-group runs.
        self._site_label = {} if site is None else {"site": site}
        # Fault-injection switches for the chaos harness: names of
        # deliberately disabled mechanisms (e.g. "skip_reply_cache").
        # Empty in normal operation.
        self.bug_switches: set[str] = set()

        # --- stable state (survives crashes) --------------------------
        self.batches: dict[int, frozenset] = {}
        self.applied_upto: int = 0
        self.state: Any = spec.initial_state()
        # Log compaction: batches <= pruned_upto have been folded into the
        # state; last_applied[pid] = (seq, response) of pid's most recent
        # applied operation (carried by snapshots for exactly-once
        # response recovery).
        self.pruned_upto: int = 0
        self.last_applied: dict[int, tuple[int, Any]] = {}
        # The op-id counter is stable: invariant I1 forbids an op id from
        # ever appearing in two batches, so a restart must not reissue ids.
        self._op_seq = 0

        # Batches this process has been notified of (Prepare) but not seen
        # commit; the read path's conflict rule inspects them.  Stable or
        # volatile depending on the role (see each subclass's tables).
        self.pending_batches: dict[int, frozenset] = {}

        # --- volatile state -------------------------------------------
        self.lease: Optional[ReadLease] = None
        self._client_read_tasks: set[tuple[int, int]] = set()
        self._catchup_target: int = 0
        self._fetching: bool = False

    # The rows of the crash-time classification every role shares; each
    # subclass extends them with its own attributes.
    STABLE_ATTRS = frozenset({
        "batches", "applied_upto", "state", "pruned_upto", "last_applied",
        "_op_seq",
    })
    _VOLATILE_FACTORIES = {
        "lease": lambda: None,
        "_client_read_tasks": set,
        "_catchup_target": lambda: 0,
        "_fetching": lambda: False,
    }
    # Identity, configuration, and run-long instrumentation: not state
    # of the replicated object, untouched by crashes.
    INFRA_ATTRS = frozenset({
        "spec", "config", "stats", "_site_label", "bug_switches",
    })

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def on_crash(self) -> None:
        # Every volatile attribute vanishes with the process; the
        # classification table drives the reset so a newly added field
        # cannot be silently forgotten.
        for attr, factory in self._VOLATILE_FACTORIES.items():
            setattr(self, attr, factory())

    def _next_op_id(self) -> tuple[int, int]:
        self._op_seq += 1
        return (self.pid, self._op_seq)

    # ==================================================================
    # Message handlers
    # ==================================================================
    def on_message(self, src: int, msg: Any) -> None:
        handler = self._HANDLERS.get(type(msg).__name__)
        if handler is not None:
            handler(self, src, msg)
        # Everything else is traffic the broadcast primitive also
        # delivered here (heartbeats, EstReq, stray acks); a learner has
        # nothing to contribute and ignores it.

    def _on_commit(self, src: int, msg: Commit) -> None:
        self._store_batch(msg.j, msg.ops)
        self._apply_ready()
        if self.applied_upto < msg.j:
            self._ensure_catchup(msg.j)

    def _on_lease_grant(self, src: int, msg: LeaseGrant) -> None:
        # Red code (paper lines 102-106): only current leaseholders may
        # refresh their lease; everyone else asks to be reintegrated.
        if self.pid in msg.leaseholders:
            if self.lease is None or msg.ts > self.lease.ts:
                self.lease = ReadLease(msg.k, msg.ts)
        else:
            self.send(src, LeaseRequest())
        if msg.k > self.applied_upto:
            self._ensure_catchup(msg.k)

    def _on_batch_request(self, src: int, msg: BatchRequest) -> None:
        known = tuple(
            (j, self.batches[j]) for j in sorted(msg.wanted)
            if j in self.batches
        )
        # Requests below our compaction point are served by snapshot.
        snapshot = None
        if any(1 <= j <= self.pruned_upto for j in msg.wanted):
            snapshot = self._make_snapshot()
        if known or snapshot is not None:
            self.send(src, BatchReply(known, snapshot))

    def _on_batch_reply(self, src: int, msg: BatchReply) -> None:
        if msg.snapshot is not None:
            self._install_snapshot(msg.snapshot)
        for j, ops in msg.batches:
            self._store_batch(j, ops)
        self._apply_ready()

    _HANDLERS = {
        "Commit": _on_commit,
        "LeaseGrant": _on_lease_grant,
        "BatchRequest": _on_batch_request,
        "BatchReply": _on_batch_reply,
    }

    # ==================================================================
    # Batch storage and application
    # ==================================================================
    def _store_batch(self, j: int, ops: frozenset) -> bool:
        """Record committed batch ``j``; True iff it was not known yet."""
        if j < 1:
            return False
        existing = self.batches.get(j)
        if existing is not None:
            if existing != ops:
                raise AssertionError(
                    f"I1 violated locally at {self.pid}: batch {j} "
                    f"rewritten from {set(existing)} to {set(ops)}"
                )
            return False
        self.batches[j] = ops
        self.pending_batches.pop(j, None)
        return True

    def _apply_ready(self) -> None:
        """Apply committed batches in sequence to the local state.

        Advances from the ``applied_upto`` frontier only — the batch log is
        never rescanned — and the common no-progress call (every Commit
        handler invokes this) costs a single dict probe.
        """
        batches = self.batches
        j = self.applied_upto + 1
        if j not in batches:
            return
        apply_any = self.spec.apply_any
        last_applied = self.last_applied
        on_applied = self._on_applied
        while j in batches:
            for instance in sorted(batches[j]):
                self.state, response = apply_any(self.state, instance.op)
                pid, seq = op_id = instance.op_id
                prev = last_applied.get(pid)
                if prev is None or seq > prev[0]:
                    last_applied[pid] = (seq, response)
                on_applied(op_id, response)
            self.applied_upto = j
            self._on_batch_applied(j)
            j += 1
        obs = self.obs
        if obs is not None:
            obs.registry.gauge("applied_upto", pid=self.pid).set(
                self.applied_upto
            )
        self._maybe_compact()

    def _on_applied(self, op_id: tuple[int, int], response: Any) -> None:
        """Hook: operation ``op_id`` was applied with ``response``."""

    def _on_batch_applied(self, j: int) -> None:
        """Hook: batch ``j`` was applied (``applied_upto == j``)."""

    def _maybe_compact(self) -> bool:
        """Prune the batch log once it grows past the compaction window;
        True iff it pruned.

        The current state *is* the snapshot of everything applied, so no
        historical copy is kept; requests for pruned batches are answered
        with a state snapshot instead (see ``_on_batch_request``).
        """
        interval = self.config.compaction_interval
        if not interval:
            return False
        target = self.applied_upto - self.config.compaction_retain
        if target - self.pruned_upto < interval:
            return False
        for j in range(self.pruned_upto + 1, target + 1):
            self.batches.pop(j, None)
        self.pruned_upto = target
        return True

    def _make_snapshot(self) -> Snapshot:
        return Snapshot(
            upto=self.applied_upto,
            state=self.state,
            last_applied=tuple(
                (pid, seq, response)
                for pid, (seq, response) in sorted(self.last_applied.items())
            ),
        )

    def _install_snapshot(self, snapshot: Snapshot) -> bool:
        """Jump to a snapshot taken ahead of the local log; True iff it
        was ahead.  Pending entries it covers committed, so they go."""
        if snapshot.upto <= self.applied_upto:
            return False
        self.state = snapshot.state
        self.applied_upto = snapshot.upto
        self.pruned_upto = max(self.pruned_upto, snapshot.upto)
        for pid, seq, response in snapshot.last_applied:
            prev = self.last_applied.get(pid)
            if prev is None or seq > prev[0]:
                self.last_applied[pid] = (seq, response)
        for j in [j for j in self.pending_batches if j <= snapshot.upto]:
            del self.pending_batches[j]
        self._on_snapshot_installed(snapshot)
        self._apply_ready()
        return True

    def _on_snapshot_installed(self, snapshot: Snapshot) -> None:
        """Hook: ``snapshot`` replaced the state, before later batches
        apply on top of it."""

    # ------------------------------------------------------------------
    # Catch-up (fetch committed batches we missed)
    # ------------------------------------------------------------------
    def _ensure_catchup(self, target: int) -> None:
        if target <= self._catchup_target and self._fetching:
            return
        self._catchup_target = max(self._catchup_target, target)
        if not self._fetching:
            self.spawn(self._fetch_task(), name="catchup")

    def _fetch_task(self) -> Generator:
        self._fetching = True
        try:
            while True:
                missing = [
                    j for j in range(self.applied_upto + 1,
                                     self._catchup_target + 1)
                    if j not in self.batches
                ]
                if not missing:
                    return
                self.broadcast(BatchRequest(frozenset(missing)))
                yield from self._wait(
                    lambda: all(j in self.batches for j in missing),
                    timeout=self.config.retry_period,
                )
        finally:
            self._fetching = False

    # ==================================================================
    # Read path (red code; paper lines 7-19)
    # ==================================================================
    def submit_read(self, op: Operation) -> Future:
        """Submit a read; always local (sends no messages)."""
        if self.crashed:
            raise RuntimeError(f"process {self.pid} is crashed")
        if not self.spec.is_read(op):
            raise ValueError(f"{op!r} is not a read operation")
        op_id = self._next_op_id()
        future = Future()
        self.stats.invoke(op_id, self.pid, "read", op, self.now)
        self.spawn(self._read_task(op, op_id, future), name=f"read{op_id}")
        return future

    def _read_task(self, op: Operation, op_id: tuple[int, int],
                   future: Future) -> Generator:
        invoked_local = self.local_time
        blocked = False
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                self._READ_SPAN, "read", self.pid, op=op.name
            )
            obs.registry.counter("reads_total", pid=self.pid).inc()
        try:
            # Wait until this process can anchor the read: either it is
            # the (initialized) leader — which needs no lease — or it
            # holds a valid read lease (paper lines 10-13).
            if not self._read_basis_available():
                blocked = True
                wait_from = self.now
                yield Until(self._read_basis_available)
                if span is not None:
                    span.mark("basis_wait", self.now - wait_from)

            # Determine the batch after which to linearize the read
            # (line 15).
            k_hat = self._compute_k_hat(op)

            # Wait until all batches up to k_hat are known and applied
            # (line 16).  No message is ever sent on this path —
            # locality — lost Commits are repaired by the leader's lazy
            # rebroadcast and the lease-triggered catch-up, whose rates
            # are read-independent.
            if self.applied_upto < k_hat:
                blocked = True
                wait_from = self.now
                yield Until(lambda: self.applied_upto >= k_hat)
                if span is not None:
                    span.mark("conflict_wait", self.now - wait_from)

            _, value = self.spec.apply_any(self.state, op)
            if blocked:
                self.stats.mark_blocked(op_id, self.local_time - invoked_local)
            if span is not None:
                obs.tracer.close(span, "served", k_hat=k_hat)
                if blocked:
                    obs.registry.counter(
                        "reads_blocked_total", pid=self.pid
                    ).inc()
                    obs.registry.histogram("read_block_ms").observe(
                        span.attrs.get("basis_wait", 0.0)
                        + span.attrs.get("conflict_wait", 0.0)
                    )
            self.stats.respond(op_id, value, self.now)
            future.resolve(value)
        finally:
            # A crash cancels the task (TaskCancelled unwinds through
            # here); never leave the span dangling.
            if span is not None and span.open:
                obs.tracer.close(span, "cancelled")

    def _read_basis_available(self) -> bool:
        return self._leader_lease_k() is not None or self._lease_valid()

    def _leader_lease_k(self) -> Optional[int]:
        """Hook: the leader's implicit lease — the latest batch it
        committed while it holds one, else None.  A learner that never
        leads reads purely on explicit leases."""
        return None

    def _lease_valid(self) -> bool:
        lease = self.lease
        return lease is not None and lease.valid_at(
            self.local_time, self.config.lease_period
        )

    def _compute_k_hat(self, op: Operation) -> int:
        """The linearization point k-hat of a read (paper line 15).

        With a valid lease (k, ts): if no batch j > k pending at this
        process conflicts with the read, k-hat = k; otherwise k-hat is the
        largest pending batch with a conflicting operation.

        We additionally raise k-hat to the locally applied prefix, which
        avoids materializing historical states; reading a *fresher*
        committed state is also linearizable (see DESIGN.md Section 9).
        """
        leader_k = self._leader_lease_k()
        if leader_k is not None:
            return max(leader_k, self.applied_upto)
        assert self.lease is not None
        k_hat = self.lease.k
        for j, ops in self.pending_batches.items():
            if j <= k_hat or j in self.batches:
                continue
            if any(self.spec.conflicts(op, inst.op) for inst in ops
                   if inst.op.name != NOOP.name):
                k_hat = j
        return max(k_hat, self.applied_upto)

    # ------------------------------------------------------------------
    # Session reads (exactly-once clients; reads are idempotent)
    # ------------------------------------------------------------------
    def _serve_client_read(self, client_id: int, seq: int,
                           op: Operation) -> None:
        """Spawn (at most once per ``(client, seq)``) a task serving a
        session read from local state; retransmissions of an in-flight
        read attach to the already-running task."""
        key = (client_id, seq)
        if key not in self._client_read_tasks:
            self._client_read_tasks.add(key)
            self.spawn(
                self._client_read_task(client_id, seq, op),
                name=f"cread{key}",
            )

    def _client_read_task(
        self, client_id: int, seq: int, op: Operation
    ) -> Generator:
        """Serve a session read from local state (same basis rules as
        :meth:`_read_task`) and send the value back."""
        if not self._read_basis_available():
            yield Until(self._read_basis_available)
        k_hat = self._compute_k_hat(op)
        if self.applied_upto < k_hat:
            yield Until(lambda: self.applied_upto >= k_hat)
        _, value = self.spec.apply_any(self.state, op)
        self._client_read_tasks.discard((client_id, seq))
        self.send(client_id, ClientReply(client_id, seq, value))

    # ==================================================================
    # Utilities
    # ==================================================================
    def _wait(self, predicate, timeout: Optional[float] = None) -> Generator:
        """Suspend until ``predicate()`` or (when given) a local-time
        timeout elapses.  The timer guarantees re-evaluation at the
        deadline even if no other event wakes this process."""
        if timeout is None:
            yield Until(predicate)
            return
        deadline = self.local_time + max(timeout, 0.0)
        self.set_timer(max(timeout, 0.0), _noop)
        yield Until(lambda: predicate() or self.local_time >= deadline)
