"""The replication algorithm (paper Section 3).

A :class:`ChtReplica` is a :class:`~repro.core.learner.Learner` (the
batch log, apply, compaction, snapshots, catch-up and the local read
path it shares with the leaseholder tier) plus the black code, the
leader's red code (lease issuance, the implicit lease) and the durable
layer, hooked into the learner's steps.

Each replica implements the paper's three logical threads:

* **Thread 1** — handles the RMW and read operations submitted at this
  process (``submit_rmw`` / ``submit_read`` spawn per-operation tasks).
* **Thread 2** — an infinite loop that checks whether this process is the
  leader at the current local time and, if so, runs :meth:`_leader_work`
  until leadership is lost.
* **Thread 3** — the message handlers.

The code follows the paper's two-colour structure: methods belonging to the
consensus-like mechanism for RMW operations (the *black code*) carry no
special marker, while everything belonging to the read-lease mechanism (the
*red code*) is grouped under the "read-lease mechanism" sections and could
be deleted wholesale leaving a plain linearizable replicated object whose
reads go through consensus.

Stable versus volatile state: batches, the estimate, and the promise
timestamp survive crashes (they are the Paxos acceptor state and the log),
while leases, pending batches, leadership tenure, and client tasks are
volatile and reset by :meth:`on_crash`.  The class-level ``STABLE_ATTRS``
/ ``_VOLATILE_FACTORIES`` / ``INFRA_ATTRS`` tables extend the learner's
and classify every instance attribute (pinned by
tests/core/test_volatile_reset.py).  Without a durability layer the
stable attributes simply survive in memory — perfect write-ahead
persistence.  With :meth:`attach_durability` every stable-state mutation
also appends to a write-ahead log behind a group-commit ``sync`` barrier,
a crash erases *all* of memory, and :meth:`on_recover` rebuilds the
stable state from snapshot + WAL replay (see docs/DURABILITY.md).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Generator, Optional

from ..durable.layer import SEQ_RESERVE_BLOCK, ReplicaDurability
from ..durable.wal import BatchRec, EstimateRec, PromiseRec, SeqReserve, SnapRecord
from ..objects.spec import NOOP, ObjectSpec, Operation, OpInstance
from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.network import Network
from ..sim.tasks import Future, Sleep
from ..sim.trace import RunStats
from ..leader.enhanced import EnhancedLeaderService
from ..leader.omega import HeartbeatOmega, OmegaDetector
from ..verify.invariants import BatchMonitor, LeaderIntervalMonitor
from .config import ChtConfig
from .learner import Learner
from .messages import (
    BatchRequest,
    ClientReply,
    ClientRequest,
    Commit,
    EstReply,
    EstReq,
    Estimate,
    LeaseGrant,
    LeaseRequest,
    Prepare,
    PrepareAck,
    Snapshot,
    SubmitOp,
)
from .state import COMPACTED, Tenure

__all__ = ["ChtReplica", "CommitRecord"]


class CommitRecord:
    """Per-commit measurements kept by the committing leader (experiments)."""

    __slots__ = ("j", "size", "started_local", "committed_local", "expiry_wait")

    def __init__(self, j: int, size: int, started_local: float,
                 committed_local: float, expiry_wait: bool) -> None:
        self.j = j
        self.size = size
        self.started_local = started_local
        self.committed_local = committed_local
        self.expiry_wait = expiry_wait

    @property
    def latency(self) -> float:
        return self.committed_local - self.started_local


class ChtReplica(Learner):
    """One process of the replicated object."""

    def __init__(
        self,
        pid: int,
        sim: Optional[Simulator] = None,
        net: Optional[Network] = None,
        clocks: Optional[ClockModel] = None,
        spec: ObjectSpec = None,
        config: ChtConfig = None,
        stats: Optional[RunStats] = None,
        omega: Optional[OmegaDetector] = None,
        leader_monitor: Optional[LeaderIntervalMonitor] = None,
        batch_monitor: Optional[BatchMonitor] = None,
        site: Optional[str] = None,
        runtime: Optional[Any] = None,
    ) -> None:
        super().__init__(pid, sim, net, clocks, spec, config, stats,
                         site=site, runtime=runtime)
        self.batch_monitor = batch_monitor

        detector = omega or HeartbeatOmega(
            self, config.heartbeat_period, config.heartbeat_timeout
        )
        self.leader_service = EnhancedLeaderService(
            self,
            detector,
            config.n,
            config.support_period,
            config.support_duration,
            monitor=leader_monitor,
        )

        # --- stable state (survives crashes) --------------------------
        # (The learned log, state and op-id counter live in Learner; with
        # a durability layer the counter restarts above the durably
        # reserved block, see _recover_from_storage.)
        self.estimate: Optional[Estimate] = None
        # The phase-1 promise: the largest leadership time seen in an
        # EstReq or Prepare; this process rejects Prepares from older
        # leaders, which is what makes estimate transfer safe.
        self.max_leader_ts_seen: float = -math.inf
        self.committed_op_ids: set[tuple[int, int]] = set()

        # Durability seam: None means the legacy crash-stop model where
        # stable state survives in memory.  attach_durability installs a
        # ReplicaDurability whose WAL/snapshot then carries the stable
        # state across crashes instead.
        self.durable: Optional[ReplicaDurability] = None

        # --- volatile state -------------------------------------------
        # (pending_batches is volatile here: a surviving estimate is
        # re-seeded into it on recovery, see _reseed_pending.)
        self.tenure: Optional[Tenure] = None
        self.submit_queue: dict[tuple[int, int], OpInstance] = {}
        # Local time the oldest queued submission arrived; anchors the
        # batch accumulation window (config.batch_window).
        self._queue_since: Optional[float] = None
        self.op_futures: dict[tuple[int, int], Future] = {}
        self._acks: dict[tuple[float, int], set[int]] = {}
        self._est_replies: dict[float, dict[int, EstReply]] = {}
        self._last_commit: Optional[Commit] = None
        # Observability: submission timestamps (sim time) for the
        # commit-latency queue-wait phase.  Only populated when an
        # ObsContext is attached (self.obs, cached by Process.__init__);
        # stays empty — and costs nothing — otherwise.
        self._submit_times: dict[tuple[int, int], float] = {}

        # Experiment instrumentation.
        self.commit_log: list[CommitRecord] = []
        self.tenure_history: list[float] = []  # leadership acquisition times

        # The peer set never changes; computed once, copied per tenure.
        self._others: frozenset[int] = frozenset(
            p for p in range(config.n) if p != pid
        )
        # Read-only learner pids attached to this group (repro.core
        # .leaseholder).  Set by the cluster façade after construction;
        # a leader folds them into every tenure's leaseholder set, but
        # they never count toward a commit majority.
        self.leaseholder_pids: frozenset[int] = frozenset()

    # Classification of every instance attribute beyond the Process base
    # class, extending Learner's rows.  on_crash is driven by the
    # volatile table, and tests/core/test_volatile_reset.py fails when a
    # new attribute is added without classifying it here — an
    # unclassified field is exactly how accidental durability (or
    # accidental amnesia) slips in.
    STABLE_ATTRS = Learner.STABLE_ATTRS | {
        "estimate", "max_leader_ts_seen", "committed_op_ids",
    }
    _VOLATILE_FACTORIES = {
        **Learner._VOLATILE_FACTORIES,
        "pending_batches": dict,
        "tenure": lambda: None,
        "submit_queue": dict,
        "_queue_since": lambda: None,
        "op_futures": dict,
        "_acks": dict,
        "_est_replies": dict,
        "_last_commit": lambda: None,
        "_submit_times": dict,
    }
    INFRA_ATTRS = Learner.INFRA_ATTRS | {
        "batch_monitor", "leader_service", "commit_log", "tenure_history",
        "_others", "leaseholder_pids", "durable",
    }

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Arm the services and Thread 2."""
        self.leader_service.start()
        self.spawn(self._thread2(), name="thread2")

    def attach_durability(self, layer: ReplicaDurability) -> None:
        """Route stable-state mutations through a WAL/snapshot seam.

        Must be attached before :meth:`start`.  From then on a crash
        erases *everything* in memory and recovery replays the storage
        (the crash-stop memory model keeps applying when no layer is
        attached).
        """
        self.durable = layer

    def on_crash(self) -> None:
        super().on_crash()
        if self.durable is not None:
            # Durable mode: memory is gone wholesale.  The stable block
            # lives on the storage model now; on_recover rebuilds it
            # from snapshot + WAL replay.
            self.durable.on_crash()
            self.batches = {}
            self.estimate = None
            self.max_leader_ts_seen = -math.inf
            self.applied_upto = 0
            self.state = self.spec.initial_state()
            self.committed_op_ids = set()
            self.pruned_upto = 0
            self.last_applied = {}
            self._op_seq = 0

    def on_recover(self) -> None:
        if self.durable is not None:
            self._recover_from_storage()
        else:
            self._reseed_pending()
        self.leader_service.on_recover()
        self.start()

    def _reseed_pending(self) -> None:
        """Treat an uncommitted estimate as a pending batch again.

        pending_batches is volatile, but the estimate may have been
        externalized through a PrepareAck before the crash — that ack can
        have released the leader from this process's lease wait — so a
        post-recovery lease must not serve a read around it."""
        est = self.estimate
        if est is not None and est.k not in self.batches:
            self.pending_batches[est.k] = est.ops

    def _recover_from_storage(self) -> None:
        """Rebuild the stable block from snapshot + WAL replay."""
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "recovery", "recovery", self.pid, **self._site_label
            )
        recovered = self.durable.recover(self.spec)
        self.batches = dict(recovered.batches)
        self.estimate = recovered.estimate
        self.max_leader_ts_seen = recovered.promise
        self.applied_upto = recovered.applied_upto
        self.state = recovered.state
        self.committed_op_ids = set(recovered.committed_op_ids)
        self.pruned_upto = recovered.pruned_upto
        self.last_applied = dict(recovered.last_applied)
        # Never reuse an op id: restart a full reservation block above
        # the recovered floor, covering ids whose reservation record was
        # still unsynced at the crash.
        self._op_seq = recovered.seq_floor(self.pid) + SEQ_RESERVE_BLOCK
        # Every boot path (on_recover, or a direct call at process start
        # over persistent storage) needs the reseed, so it lives here.
        self._reseed_pending()
        # Re-announce recovered batches to the run-wide monitor: the
        # re-record is idempotent when the durable value matches what
        # this pid reported before the crash, and raises (an invariant
        # verdict) when storage handed back a divergent batch.
        if self.batch_monitor is not None:
            # Sync-before-externalize: any promise this pid vouched for
            # in an EstReply/PrepareAck/self-ack must survive the
            # restart, or estimate transfer can read around it.
            self.batch_monitor.check_recovered_promise(
                self.pid, self.max_leader_ts_seen
            )
            for j in sorted(self.batches):
                self.batch_monitor.record_batch(
                    self.pid, j, self.batches[j], self.now
                )
        if obs is not None:
            storage = self.durable.storage
            obs.tracer.close(
                span, "recovered",
                replayed_batches=recovered.replayed_batches,
                wal_records=recovered.wal_records,
                wal_bytes=storage.wal_bytes(),
                snapshot_upto=recovered.snapshot_upto,
                snapshot_age=(
                    self.now - recovered.snapshot_taken_at
                    if recovered.snapshot_taken_at is not None else -1.0
                ),
                applied_upto=self.applied_upto,
                torn_tail=recovered.torn_tail,
            )
            obs.registry.counter(
                "recoveries_total", pid=self.pid, **self._site_label
            ).inc()

    # ==================================================================
    # Public operation API (Thread 1)
    # ==================================================================
    def submit_rmw(self, op: Operation) -> Future:
        """Submit a RMW operation; the future resolves with its response."""
        if self.crashed:
            raise RuntimeError(f"process {self.pid} is crashed")
        op_id = self._next_op_id()
        instance = OpInstance(op_id, op)
        future = Future()
        self.op_futures[op_id] = future
        self.stats.invoke(op_id, self.pid, "rmw", op, self.now)
        future.on_resolve(
            lambda value: self.stats.respond(op_id, value, self.now)
        )
        self.spawn(self._submit_task(instance, future), name=f"rmw{op_id}")
        return future

    def _next_op_id(self) -> tuple[int, int]:
        op_id = super()._next_op_id()
        if self.durable is not None:
            # Cover the id with a durable block reservation (one WAL
            # record per SEQ_RESERVE_BLOCK ids); the barriers below sync
            # it before the id can leave this process.
            self.durable.reserve_seq(self._op_seq)
        return op_id

    def _sync_barrier(self) -> Generator:
        """Suspend until every WAL record appended so far is durable.

        The group-commit point: concurrent barriers (and the lazy batch
        appends behind them) coalesce into one device flush.  With no
        storage fault active the flush completes inline — no event, no
        RNG draw — so fault-free runs are trace-identical to
        durability-off runs.
        """
        future = Future()
        self.durable.sync(future.resolve)
        if not future.done:
            yield future

    # ------------------------------------------------------------------
    # RMW submission (paper lines 2-6)
    # ------------------------------------------------------------------
    def _submit_task(self, instance: OpInstance, future: Future) -> Generator:
        # Send (o, (p, i)) to the believed leader, periodically, until the
        # operation has been applied locally and its response resolved.
        if self.durable is not None:
            # The id's block reservation must be durable before the id
            # leaves this process: a restart must never reissue it (I1).
            yield from self._sync_barrier()
        while not future.done:
            target = self.leader_service.believed_leader()
            if target == self.pid:
                self._enqueue_submission(instance)
            else:
                self.send(target, SubmitOp(instance))
            yield from self._wait(
                lambda: future.done, timeout=self.config.retry_period
            )

    def _enqueue_submission(self, instance: OpInstance) -> None:
        """Leader side: accept a submitted operation into the next batch."""
        if self.tenure is None:
            return  # not the leader; the submitter keeps retrying
        op_id = instance.op_id
        if op_id in self.committed_op_ids or op_id in self.submit_queue:
            return  # duplicate (invariant I1: never commit an op twice)
        cached = self.last_applied.get(op_id[0])
        if cached is not None and op_id[1] <= cached[0]:
            # Already applied, but the batch that committed it was folded
            # into a snapshot (so committed_op_ids no longer knows it).
            # Re-committing a floating retransmission would re-execute.
            return
        if not self.submit_queue:
            # First op of a fresh batch: the accumulation window (when
            # configured) runs from here.
            self._queue_since = self.local_time
        self.submit_queue[op_id] = instance
        if self.obs is not None:
            self._submit_times[op_id] = self.now

    # ------------------------------------------------------------------
    # Read path (red code; paper lines 7-19)
    # ------------------------------------------------------------------
    # The read path is Learner's, shared with the read-only leaseholder
    # tier.  The replica contributes the one piece a leaseholder cannot
    # have: the leader's implicit lease.

    def _leader_lease_k(self) -> Optional[int]:
        """The leader's implicit lease: it commits every batch itself, so
        once initialized it can read its own latest committed state
        (batch ``tenure.k``) without holding an explicit lease (paper:
        "the permanently elected leader ... can always read without
        blocking")."""
        tenure = self.tenure
        if (
            tenure is not None
            and tenure.ready
            and self.leader_service.am_leader(tenure.t, self.local_time)
        ):
            return tenure.k
        return None

    def is_leader(self) -> bool:
        """Is this process currently an initialized leader?"""
        return self._leader_lease_k() is not None

    # ==================================================================
    # Thread 2: leadership loop (paper lines 20-23)
    # ==================================================================
    def _thread2(self) -> Generator:
        while True:
            t = self.local_time
            if self.leader_service.am_leader(t, t):
                yield from self._leader_work(t)
            yield Sleep(self.config.leader_loop_period)

    # ------------------------------------------------------------------
    # LeaderWork (paper lines 24-51)
    # ------------------------------------------------------------------
    def _leader_work(self, t: float) -> Generator:
        cfg = self.config
        self.tenure = Tenure(t=t, leaseholders=self._all_others())
        self.tenure_history.append(t)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "tenure", "leader", self.pid, t=t, **self._site_label
            )
            obs.registry.counter(
                "tenures_total", pid=self.pid, **self._site_label
            ).inc()
        try:
            # --- initialization (lines 26-36) -------------------------
            replies = yield from self._collect_estimates(t)
            if replies is None:
                return
            if obs is not None:
                obs.tracer.instant(
                    "estimates.collected", "leader", self.pid,
                    t=t, replies=len(replies),
                )
            best = self._freshest_estimate(replies)
            if best is None:
                ops_star: frozenset = frozenset()
                k_star = 1
            else:
                ops_star, k_star = best.ops, best.k
            ok = yield from self._find_missing_batches(t, k_star - 1)
            if not ok:
                return
            self._apply_ready()  # ExecuteUpToBatch(k_star - 1)
            ok = yield from self._do_ops(ops_star, t, k_star)
            if not ok:
                return
            self.tenure.ready = True
            if span is not None:
                span.mark("ready_at", self.now)
                obs.tracer.instant(
                    "leader.ready", "leader", self.pid, t=t, k_star=k_star
                )
            # A NoOp keeps reads live even with no further RMW traffic.
            self._enqueue_submission(OpInstance(self._next_op_id(), NOOP))

            # --- steady state (lines 39-51) ----------------------------
            yield from self._leader_loop(t)
        finally:
            self._acks.clear()
            self._est_replies.pop(t, None)
            was_ready = self.tenure is not None and self.tenure.ready
            self.tenure = None
            self._submit_times.clear()
            if span is not None and span.open:
                # Crash-cancellation also unwinds through here, so a
                # tenure span can never leak open.
                if self.crashed:
                    status = "crashed"
                elif was_ready:
                    status = "lost"
                else:
                    status = "aborted"
                obs.tracer.close(span, status)
                obs.registry.histogram(
                    "leader_dwell_ms",
                    buckets=(10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
                    **self._site_label,
                ).observe(span.end - span.start)

    def _collect_estimates(
        self, t: float
    ) -> Generator[Any, Any, Optional[dict[int, EstReply]]]:
        """Gather estimates from a majority (lines 26-30), or None if
        leadership is lost while trying."""
        cfg = self.config
        self._est_replies[t] = {}

        def enough() -> bool:
            return len(self._est_replies[t]) + 1 >= cfg.majority

        while not enough():
            if not self.leader_service.am_leader(t, self.local_time):
                self._est_replies.pop(t, None)
                return None
            if self.max_leader_ts_seen > t:
                # Our own promise already outranks this tenure, so every
                # acceptor that honors promises will reject EstReq(t) and
                # line 52 would abort us later anyway.  Bailing here
                # matters after a durable restart: the recovered promise
                # can exceed the first post-restart tenure's timestamp,
                # and without this check the candidate would broadcast a
                # doomed EstReq forever while its leases keep renewing.
                self._est_replies.pop(t, None)
                return None
            self.broadcast(EstReq(t))
            yield from self._wait(enough, timeout=cfg.retry_period)
        return self._est_replies.pop(t)

    def _freshest_estimate(
        self, replies: dict[int, EstReply]
    ) -> Optional[Estimate]:
        """Select the freshest estimate among the replies and our own
        (line 31), storing the committed predecessor batches carried by
        the replies (line 90)."""
        candidates = []
        for reply in replies.values():
            if reply.prev_batch is not None:
                self._store_batch(reply.prev_batch_index, reply.prev_batch)
            if reply.estimate is not None:
                candidates.append(reply.estimate)
        if self.estimate is not None:
            candidates.append(self.estimate)
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.freshness)

    def _find_missing_batches(self, t: float, upto: int) -> Generator:
        """Fetch batches 1..upto this process is missing (line 33).  Each
        is known by a majority (I3), hence by some correct process."""
        cfg = self.config
        while True:
            # Batches at or below the applied prefix are already folded
            # into the state (possibly via a snapshot).
            start = max(1, self.applied_upto + 1)
            missing = {j for j in range(start, upto + 1)
                       if j not in self.batches}
            if not missing:
                return True
            if not self.leader_service.am_leader(t, self.local_time):
                return False
            self.broadcast(BatchRequest(frozenset(missing)))

            def all_arrived() -> bool:
                # Incremental: drop batches as they arrive instead of
                # rescanning the whole 1..upto range per wakeup.
                batches = self.batches
                applied = self.applied_upto
                missing.difference_update(
                    [j for j in missing if j in batches or j <= applied]
                )
                return not missing

            yield from self._wait(all_arrived, timeout=cfg.retry_period)

    def _leader_loop(self, t: float) -> Generator:
        """The leader's continuing tasks (lines 39-51): renew read leases,
        commit batches of submitted RMW operations, lazily re-send the
        last committed batch."""
        cfg = self.config
        next_renewal = self.local_time  # issue leases immediately
        next_lazy = self.local_time + cfg.retry_period
        while True:
            now = self.local_time
            if not self.leader_service.am_leader(t, now):  # lines 41, 50
                return
            if now >= next_renewal:  # lines 42-44
                self._issue_leases()
                next_renewal = now + cfg.lease_renewal
            if now >= next_lazy:  # line 51 (safeguard against loss)
                if self._last_commit is not None:
                    self.broadcast(self._last_commit)
                next_lazy = now + cfg.retry_period
            batch = self._drain_queue()
            if batch:  # lines 47-49
                assert self.tenure is not None
                ok = yield from self._do_ops(batch, t, self.tenure.k + 1)
                if not ok:
                    return
                continue
            deadline = min(next_renewal, next_lazy)
            if self.submit_queue and self._queue_since is not None:
                # Accumulation window open: wake exactly when it closes
                # so the waiting burst commits as one batch.
                deadline = min(
                    deadline, self._queue_since + cfg.batch_window
                )
            timeout = max(deadline - self.local_time, cfg.leader_loop_period)
            yield from self._wait(self._batch_ready, timeout=timeout)

    def _drain_queue(self) -> Optional[frozenset]:
        """Take the queued submissions for the next batch, or None while
        the accumulation window is still open.

        With ``batch_window > 0`` the leader holds the queue for up to
        the window after the *first* submission of a batch arrived, so a
        burst of submissions commits as one DoOps instead of a DoOps per
        straggler — trading up to one window of latency for fewer
        Prepare/ack/Commit rounds per committed operation.
        """
        if not self.submit_queue:
            return None
        window = self.config.batch_window
        if window:
            since = self._queue_since
            if since is None:
                # Ops queued before this tenure carry no window start
                # (e.g. adopted across a leader change); open one now.
                self._queue_since = self.local_time
                return None
            if self.local_time < since + window:
                return None  # keep accumulating
        cap = self.config.max_batch_size
        if cap and len(self.submit_queue) > cap:
            # Take the oldest ``cap`` submissions (op-id order is the
            # deterministic in-batch application order, so it doubles as
            # the fairness order here); the rest stay queued and anchor
            # a fresh accumulation window.
            take = sorted(self.submit_queue)[:cap]
            queued = {op_id: self.submit_queue.pop(op_id) for op_id in take}
            self._queue_since = self.local_time if window else None
        else:
            queued, self.submit_queue = self.submit_queue, {}
            self._queue_since = None
        fresh = [
            inst for op_id, inst in queued.items()
            if op_id not in self.committed_op_ids
        ]
        return frozenset(fresh) if fresh else None

    def _batch_ready(self) -> bool:
        """Is there a batch _drain_queue would hand out right now?"""
        if not self.submit_queue:
            return False
        window = self.config.batch_window
        if not window:
            return True
        since = self._queue_since
        return since is None or self.local_time >= since + window

    def _all_others(self) -> set[int]:
        """Initial leaseholder set of a fresh tenure: every other
        acceptor plus the attached read-only tier."""
        return set(self._others) | set(self.leaseholder_pids)

    # ------------------------------------------------------------------
    # DoOps: commit one batch (paper lines 52-70)
    # ------------------------------------------------------------------
    def _do_ops(self, ops: frozenset, t: float, j: int) -> Generator:
        """Try to commit ``ops`` as batch ``j``; True on success, False if
        this process lost the leadership on the way."""
        cfg = self.config
        tenure = self.tenure
        assert tenure is not None

        # Line 52: abdicate if we have promised a later leader.
        if self.max_leader_ts_seen > t:
            return False
        self.max_leader_ts_seen = t

        obs = self.obs
        span = None
        if obs is not None:
            # Queue wait: how long the oldest op of this batch sat in the
            # submit queue before DoOps picked it up (0 for estimate
            # transfers, whose ops were never locally enqueued).
            now = self.now
            queue_wait = 0.0
            if self._submit_times:
                for instance in ops:
                    enqueued = self._submit_times.pop(instance.op_id, None)
                    if enqueued is not None and now - enqueued > queue_wait:
                        queue_wait = now - enqueued
            span = obs.tracer.begin(
                "batch.commit", "batch", self.pid,
                j=j, t=t, size=len(ops), queue_wait=queue_wait,
            )
        committed = False
        try:
            # Line 53: adopt the batch as our own estimate.
            estimate = Estimate(ops, t, j)
            durable = self.durable
            if durable is not None and estimate != self.estimate:
                durable.append_promise(t)
                durable.append_estimate(estimate)
            self.estimate = estimate
            self.pending_batches[j] = ops
            prev = self.batches.get(j - 1)
            assert prev is not None or j == 1 or self.applied_upto >= j - 1, (
                f"leader missing batch {j - 1}"
            )

            if durable is not None \
                    and "skip_promise_fsync" not in self.bug_switches:
                # Group-commit barrier: the self-ack below counts toward
                # the majority, so the adopted estimate (and the lazy
                # batch records behind it) must be durable first.
                yield from self._sync_barrier()
                # The barrier suspended us; re-run the line-52 check in
                # case a newer leader was promised meanwhile.
                if self.max_leader_ts_seen > t:
                    return False

            key = (t, j)
            if durable is not None and self.batch_monitor is not None:
                # The self-ack externalizes the promise exactly like a
                # follower's PrepareAck does.
                self.batch_monitor.record_externalized_promise(self.pid, t)
            self._acks[key] = {self.pid}
            acks = self._acks[key]
            prepare_start = self.local_time

            # Lines 54-58: Prepare until a majority (incl. us) acknowledges.
            # Only acceptors (pids < n) count: leaseholder acks release
            # the lease wait below but carry no estimate adoption.
            def majority_acked() -> bool:
                if len(acks) < cfg.majority:
                    return False
                return sum(1 for a in acks if a < cfg.n) >= cfg.majority

            while not majority_acked():
                if not self.leader_service.am_leader(t, self.local_time):
                    return False
                self.broadcast(Prepare(ops, t, j, prev))
                yield from self._wait(majority_acked, timeout=cfg.retry_period)

            if span is not None:
                span.mark("acked_at", self.now)

            # Lines 59-62: the leaseholder mechanism.  Wait for every current
            # leaseholder to acknowledge, or for 2*delta since the Prepares
            # started; a leaseholder that missed the round-trip window forces
            # us to wait out every lease ever issued, and is then dropped.
            # The paper's footnote allows 2*delta + beta, with beta the Prepare
            # processing time; the beta slack also keeps acks that land exactly
            # at the deadline from being miscounted as missing.
            holders = frozenset(tenure.leaseholders)
            beta = 0.01 * cfg.delta
            two_delta_deadline = prepare_start + 2 * cfg.delta + beta

            def holders_acked() -> bool:
                return holders <= acks

            if not holders_acked():
                yield from self._wait(
                    holders_acked,
                    timeout=max(two_delta_deadline - self.local_time, beta),
                )
            expiry_wait = False
            if not holders_acked() \
                    and "skip_lease_shrink" not in self.bug_switches:
                # A holder missed the 2*delta window: wait out every lease
                # ever issued (max(t, last_ts) + LeasePeriod + epsilon on
                # our clock covers the holder's skewed clock) before the
                # commit may proceed.  The planted skip_lease_shrink bug
                # drops exactly this wait — an unreachable holder's
                # still-valid lease then serves stale reads, which the
                # chaos soak's linearizability verdict catches.
                expiry_wait = True
                tenure.lease_expiry_waits += 1
                last_ts = tenure.last_lease_ts if tenure.last_lease_ts is not None else t
                expiry = max(t, last_ts) + cfg.lease_period + cfg.epsilon
                if self.local_time <= expiry:
                    yield from self._wait(
                        lambda: self.local_time > expiry,
                        timeout=expiry - self.local_time + cfg.leader_loop_period,
                    )
            tenure.leaseholders = set(acks) - {self.pid}
            if obs is not None:
                span.mark("holders_done_at", self.now)
                if expiry_wait:
                    span.mark("expiry_wait", True)
                    obs.registry.counter("lease_expiry_waits_total").inc()
                dropped = holders - acks
                if dropped:
                    obs.tracer.instant(
                        "leaseholders.shrunk", "lease", self.pid,
                        j=j, dropped=sorted(dropped),
                        remaining=len(tenure.leaseholders),
                    )
                    obs.registry.counter(
                        "leaseholders_dropped_total"
                    ).inc(len(dropped))

            # Lines 63-64: verify uninterrupted leadership before committing.
            if not self.leader_service.am_leader(t, self.local_time):
                return False

            # Lines 65-70: commit.
            self._store_batch(j, ops)
            self._apply_ready()
            tenure.k = j
            self._last_commit = Commit(ops, j)
            self.broadcast(self._last_commit)
            self.commit_log.append(
                CommitRecord(
                    j=j,
                    size=len(ops),
                    started_local=prepare_start,
                    committed_local=self.local_time,
                    expiry_wait=expiry_wait,
                )
            )
            committed = True
            return True
        finally:
            # Runs on every exit: success, leadership loss, and the
            # TaskCancelled a crash throws into the generator.  A
            # "batch.commit" span therefore always terminates as either
            # committed or superseded (the property test pins this).
            if span is not None:
                obs.tracer.close(
                    span, "committed" if committed else "superseded"
                )
                if committed:
                    obs.registry.counter(
                        "commits_total", pid=self.pid, **self._site_label
                    ).inc()
                    obs.registry.counter(
                        "committed_ops_total", **self._site_label
                    ).inc(len(ops))
                    obs.registry.histogram("commit_latency_ms").observe(
                        span.end - span.start
                    )

    # ------------------------------------------------------------------
    # Read-lease issuance (red code; paper lines 42-46)
    # ------------------------------------------------------------------
    def _issue_leases(self) -> None:
        tenure = self.tenure
        assert tenure is not None
        ts = self.local_time
        tenure.last_lease_ts = ts
        grant = LeaseGrant(tenure.k, ts, frozenset(tenure.leaseholders))
        self.broadcast(grant)
        if self.obs is not None:
            # Renewal traffic: one grant broadcast = one renewal round;
            # the per-message cost is the network's "lease" category.
            self.obs.registry.counter(
                "lease_renewals_total", pid=self.pid, **self._site_label
            ).inc()
            self.obs.registry.gauge(
                "leaseholders_current", pid=self.pid, **self._site_label
            ).set(len(tenure.leaseholders))

    # ==================================================================
    # Thread 3: message handlers
    # ==================================================================
    def on_message(self, src: int, msg: Any) -> None:
        if self.leader_service.handle(src, msg):
            return
        handler = self._HANDLERS.get(type(msg).__name__)
        if handler is None:
            raise TypeError(f"unhandled message {msg!r}")
        handler(self, src, msg)

    def _on_submit(self, src: int, msg: SubmitOp) -> None:
        self._enqueue_submission(msg.instance)

    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        """Serve a client-session operation (exactly-once for RMWs).

        Reads are idempotent and served locally through the ordinary
        lease-based read path.  RMW requests first consult the reply
        cache (``last_applied``, part of the replicated state machine):
        a retransmission of an already-applied operation is answered
        from the cache instead of being executed again, and a stale
        duplicate of an acknowledged older operation is dropped.  Fresh
        operations are enqueued when this replica leads, or forwarded
        once towards the believed leader otherwise.
        """
        if self.spec.is_read(msg.op):
            self._serve_client_read(msg.client_id, msg.seq, msg.op)
            return
        if "skip_reply_cache" not in self.bug_switches:
            cached = self.last_applied.get(msg.client_id)
            if cached is not None:
                seq, response = cached
                if seq == msg.seq:
                    self.send(
                        msg.client_id,
                        ClientReply(msg.client_id, msg.seq, response),
                    )
                    return
                if seq > msg.seq:
                    return  # stale duplicate; the client moved on already
        if self.tenure is not None:
            self._enqueue_submission(
                OpInstance((msg.client_id, msg.seq), msg.op)
            )
        elif not msg.forwarded:
            target = self.leader_service.believed_leader()
            if target != self.pid:
                self.send(target, replace(msg, forwarded=True))

    def _on_est_req(self, src: int, msg: EstReq) -> None:
        # Promise: once we answer a leader with time t we must never accept
        # Prepares from older leaders, or estimate transfer breaks.
        if msg.t < self.max_leader_ts_seen:
            return
        self.max_leader_ts_seen = msg.t
        durable = self.durable
        if durable is not None:
            durable.append_promise(msg.t)
            if "skip_promise_fsync" not in self.bug_switches:
                # The reply externalizes the promise: sync first.  The
                # reply is built at flush completion, so it carries the
                # freshest estimate (reading fresher is always safe).
                durable.sync(lambda: self._send_est_reply(src, msg.t))
                return
        self._send_est_reply(src, msg.t)

    def _send_est_reply(self, dst: int, t: float) -> None:
        est = self.estimate
        if est is not None and est.k >= 2:
            prev_index = est.k - 1
            prev = self.batches.get(prev_index)
        else:
            prev_index, prev = 0, None
        if self.durable is not None and self.batch_monitor is not None:
            self.batch_monitor.record_externalized_promise(self.pid, t)
        self.send(dst, EstReply(t, est, prev_index, prev))

    def _on_est_reply(self, src: int, msg: EstReply) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.prev_batch_index, msg.prev_batch)
        bucket = self._est_replies.get(msg.t)
        if bucket is not None:
            bucket[src] = msg

    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.j - 1, msg.prev_batch)
        if msg.t < self.max_leader_ts_seen:
            return  # stale leader; our promise forbids adopting this
        self.max_leader_ts_seen = msg.t
        durable = self.durable
        if durable is not None:
            # WAL order matters: the predecessor batch (stored above)
            # precedes the estimate, so a suffix-only tail loss can
            # never strand a durable estimate without its predecessor
            # (durable I2).
            durable.append_promise(msg.t)
        estimate = Estimate(msg.ops, msg.t, msg.j)
        if self.estimate is None or estimate.freshness >= self.estimate.freshness:
            if durable is not None and estimate != self.estimate:
                durable.append_estimate(estimate)
            self.estimate = estimate
            self.pending_batches[msg.j] = msg.ops
        ack = PrepareAck(msg.t, msg.j)
        if durable is not None \
                and "skip_promise_fsync" not in self.bug_switches:
            # The ack makes this acceptor count toward the majority:
            # promise + estimate must be durable before it is sent.
            durable.sync(lambda: self._send_prepare_ack(src, ack))
            return
        self._send_prepare_ack(src, PrepareAck(msg.t, msg.j))

    def _send_prepare_ack(self, dst: int, ack: PrepareAck) -> None:
        if self.durable is not None and self.batch_monitor is not None:
            self.batch_monitor.record_externalized_promise(self.pid, ack.t)
        self.send(dst, ack)

    def _on_prepare_ack(self, src: int, msg: PrepareAck) -> None:
        acks = self._acks.get((msg.t, msg.j))
        if acks is not None:
            acks.add(src)

    def _on_lease_request(self, src: int, msg: LeaseRequest) -> None:
        # Red code (line 46): reintegrate the requester.
        if self.tenure is not None:
            self.tenure.leaseholders.add(src)

    _HANDLERS = {
        **Learner._HANDLERS,
        "SubmitOp": _on_submit,
        "ClientRequest": _on_client_request,
        "EstReq": _on_est_req,
        "EstReply": _on_est_reply,
        "Prepare": _on_prepare,
        "PrepareAck": _on_prepare_ack,
        "LeaseRequest": _on_lease_request,
    }

    # ==================================================================
    # Batch storage and application (extending Learner's)
    # ==================================================================
    def _store_batch(self, j: int, ops: frozenset) -> bool:
        if not super()._store_batch(j, ops):
            return False
        if self.durable is not None:
            # Lazy (group-commit): the record rides the next sync
            # barrier.  Commit durability is carried by the majority of
            # synced estimates; a batch record lost to a crash is
            # repaired by ordinary catch-up after recovery.
            self.durable.append_batch(j, ops)
        if self.batch_monitor is not None:
            self.batch_monitor.record_batch(self.pid, j, ops, self.now)
        for instance in ops:
            self.committed_op_ids.add(instance.op_id)
        return True

    def _on_applied(self, op_id: tuple[int, int], response: Any) -> None:
        """Resolve the future of our own operation; answer a client
        session whose operation was applied while we lead.  Followers
        stay silent — the session retransmits and hits the reply cache
        if this (or any later) reply is lost."""
        pid = op_id[0]
        if pid == self.pid:
            future = self.op_futures.get(op_id)
            if future is not None and not future.done:
                future.resolve(response)
        elif pid >= self.config.n and self.tenure is not None:
            self.send(pid, ClientReply(pid, op_id[1], response))

    def _on_batch_applied(self, j: int) -> None:
        if self.obs is not None:
            self.obs.tracer.instant("batch.applied", "batch", self.pid, j=j)

    def _maybe_compact(self) -> bool:
        compacted = super()._maybe_compact()
        if compacted and self.durable is not None:
            self._durable_checkpoint()
        return compacted

    def _durable_checkpoint(self) -> None:
        """Fold the applied prefix into a durable snapshot.

        The WAL is rewritten to just the still-live tail: the op-id
        reservation, the promise, batches above the snapshot point, and
        the estimate — batch records strictly before the estimate, so
        the rewritten log preserves the durable-I2 append order.
        """
        durable = self.durable
        base = self._make_snapshot()
        snap = SnapRecord(base.upto, base.state, base.last_applied,
                          taken_at=self.now)
        tail: list = []
        if durable.seq_reserved:
            tail.append(SeqReserve(durable.seq_reserved))
        if self.max_leader_ts_seen != -math.inf:
            tail.append(PromiseRec(self.max_leader_ts_seen))
        for j in sorted(self.batches):
            if j > snap.upto:
                tail.append(BatchRec(j, self.batches[j]))
        est = self.estimate
        if est is not None:
            tail.append(EstimateRec(est.ops, est.ts, est.k))
        durable.checkpoint(snap, tail)

    def _install_snapshot(self, snapshot: Snapshot) -> bool:
        installed = super()._install_snapshot(snapshot)
        if installed and self.durable is not None:
            # The folded prefix has no batch records of its own: persist
            # the jump so a restart cannot strand a later-adopted
            # estimate behind batches this replica never held.
            self._durable_checkpoint()
        return installed

    def _on_snapshot_installed(self, snapshot: Snapshot) -> None:
        """Our own operations folded into the snapshot resolve with their
        recorded response when the snapshot carries it (each submitter's
        most recent operation), or with the COMPACTED sentinel otherwise:
        they committed, but their responses were compacted away."""
        exact = {
            (pid, seq): response
            for pid, seq, response in snapshot.last_applied
        }
        my_last = self.last_applied.get(self.pid)
        for op_id, future in self.op_futures.items():
            if future.done or op_id[0] != self.pid:
                continue
            if op_id in exact:
                future.resolve(exact[op_id])
            elif op_id in self.committed_op_ids or (
                my_last is not None and op_id[1] <= my_last[0]
            ):
                future.resolve(COMPACTED)

    def __repr__(self) -> str:
        role = "leader" if self.tenure is not None else "follower"
        status = "crashed" if self.crashed else role
        return (
            f"<ChtReplica {self.pid} {status} applied={self.applied_upto}>"
        )
