"""The replica-facing durability seam and the end-of-run durable audit.

:class:`ReplicaDurability` is what a :class:`~repro.core.replica.ChtReplica`
holds when durability is on.  It owns the WAL discipline so the replica
only states *what* changed:

* ``append_promise`` / ``append_estimate`` / ``append_batch`` /
  ``reserve_seq`` append records (volatile until synced).  Promise
  appends dedupe against the highest promise already recorded, so the
  hot path does not write a record per message.
* ``sync(on_done)`` is the group-commit barrier: the replica calls it
  immediately before *externalizing* durable state (EstReply,
  PrepareAck, the leader counting its own ack, a client op id leaving
  the process) and the storage coalesces concurrent barriers into one
  device flush.  There is deliberately no periodic background flush:
  every flush is demanded by an externalization, which keeps fault-free
  durability-on runs event-for-event identical to durability-off runs.
* ``checkpoint`` writes a snapshot plus the still-live WAL tail,
  bounding replay length.  At most one checkpoint is in flight.
* ``recover`` loads ``snapshot + WAL``, replays it through
  :func:`~repro.durable.wal.rebuild`, and primes the dedupe/reservation
  cursors from the recovered state.

:func:`durable_audit` is the recovery analogue of ``check_i2_i3``: it
reloads every replica's durable footprint *as a restarted process
would* and checks cross-replica agreement (durable I1), agreement with
live memory, and the durable estimate-chaining of I2.  The chaos
nemesis runs it after every schedule alongside the in-memory invariant
checks.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional

from ..verify.invariants import InvariantViolation
from .storage import MemStorage, Storage
from .wal import (BatchRec, EstimateRec, PromiseRec, RecoveredState,
                  SeqReserve, SnapRecord, rebuild)

__all__ = [
    "SEQ_RESERVE_BLOCK",
    "ReplicaDurability",
    "attach_memory_durability",
    "durable_audit",
]

# Op-id counters advance in durably reserved blocks of this size: one
# SeqReserve record per BLOCK ids issued, and recovery restarts the
# counter a full block above the recovered floor (ids reserved by a
# lost unsynced record can never be reused).
SEQ_RESERVE_BLOCK = 64


class ReplicaDurability:
    """One replica's WAL/snapshot seam over a :class:`Storage` backend."""

    def __init__(self, storage: Storage) -> None:
        self.storage = storage
        self._last_promise = float("-inf")
        self.seq_reserved = 0
        self._snap_inflight = False
        self.recoveries = 0

    # -- appends (volatile until the next sync) ------------------------

    def append_promise(self, t: float) -> bool:
        """Record a promise bump; returns False when already covered."""
        if t <= self._last_promise:
            return False
        self._last_promise = t
        self.storage.append(PromiseRec(t))
        return True

    def append_estimate(self, estimate: Any) -> None:
        self.storage.append(
            EstimateRec(estimate.ops, estimate.ts, estimate.k))
        if estimate.ts > self._last_promise:
            self._last_promise = estimate.ts

    def append_batch(self, j: int, ops: frozenset) -> None:
        self.storage.append(BatchRec(j, ops))

    def reserve_seq(self, seq: int) -> None:
        """Ensure op ids through ``seq`` are covered by a reservation."""
        if seq > self.seq_reserved:
            upto = self.seq_reserved + SEQ_RESERVE_BLOCK
            while upto < seq:
                upto += SEQ_RESERVE_BLOCK
            self.seq_reserved = upto
            self.storage.append(SeqReserve(upto))

    # -- barriers and checkpoints --------------------------------------

    def sync(self, on_done: Callable[[], None]) -> None:
        self.storage.sync(on_done)

    def checkpoint(self, snapshot: SnapRecord, tail: list) -> bool:
        """Write a snapshot + live tail; at most one in flight."""
        if self._snap_inflight:
            return False
        self._snap_inflight = True

        def done() -> None:
            self._snap_inflight = False

        self.storage.write_snapshot(snapshot, tail, done)
        return True

    # -- crash / recover -----------------------------------------------

    def on_crash(self) -> None:
        self.storage.on_crash()
        self._last_promise = float("-inf")
        self.seq_reserved = 0
        self._snap_inflight = False

    def recover(self, spec: Any) -> RecoveredState:
        snapshot, records, stats = self.storage.load()
        recovered = rebuild(spec, snapshot, records)
        recovered.torn_tail = bool(stats.get("torn_tail", False))
        self._last_promise = recovered.promise
        self.seq_reserved = recovered.seq_reserved
        self._snap_inflight = False
        self.recoveries += 1
        return recovered


def attach_memory_durability(cluster: Any,
                             rng_site: Optional[str] = None) -> None:
    """Give every replica of a ChtCluster an in-sim durable store.

    Device RNG streams fork off the simulator keyed by pid (and the
    cluster's site label under sharding), so a group's device delays
    and torn-tail cuts do not depend on its sibling groups.
    """
    sim = cluster.sim
    for replica in cluster.replicas:
        site = rng_site if rng_site is not None else getattr(
            replica, "site", None)
        rng = _fork_disk_rng(sim, replica.pid, site)
        replica.attach_durability(ReplicaDurability(MemStorage(sim, rng)))


def _fork_disk_rng(sim: Any, pid: int, site: Optional[str]) -> random.Random:
    fork = getattr(sim, "fork_rng", None)
    if fork is None:
        return random.Random(f"disk-{pid}")
    if site is not None:
        return fork(f"disk-{pid}", site=site)
    return fork(f"disk-{pid}")


def durable_audit(replicas: Iterable[Any]) -> None:
    """Check the durable footprints the way a restart would read them.

    * **Durable I1** — no two replicas hold different durable values
      for one batch index, and no replica's durable batch disagrees
      with its own live memory.
    * **Durable I2** — a durable estimate for batch ``k`` implies batch
      ``k - 1`` is durable too (as a record or folded into the
      snapshot): the WAL append order must never let a suffix-only
      tail loss strand an estimate without its predecessor.

    Replicas without a durability layer are skipped, so the audit is a
    no-op on durability-off runs.  :func:`rebuild` itself raises on
    intra-log divergence, which this surfaces unchanged.
    """
    durable_values: dict[int, frozenset] = {}
    for replica in replicas:
        layer = getattr(replica, "durable", None)
        if layer is None:
            continue
        snapshot, records, _stats = layer.storage.load()
        recovered = rebuild(replica.spec, snapshot, records)
        for j, ops in recovered.batches.items():
            prior = durable_values.get(j)
            if prior is not None and prior != ops:
                raise InvariantViolation(
                    f"durable I1 violated: replicas disagree on durable "
                    f"batch {j}: {set(prior)!r} vs {set(ops)!r}"
                )
            durable_values[j] = ops
            live = replica.batches.get(j)
            if live is not None and live != ops:
                raise InvariantViolation(
                    f"durable-vs-memory divergence at replica "
                    f"{replica.pid}, batch {j}: memory {set(live)!r} vs "
                    f"durable {set(ops)!r}"
                )
        estimate = recovered.estimate
        if estimate is not None and estimate.k > 1:
            k = estimate.k
            if (k - 1) not in recovered.batches \
                    and recovered.applied_upto < k - 1:
                raise InvariantViolation(
                    f"durable I2 violated at replica {replica.pid}: "
                    f"estimate for batch {k} is durable but batch {k - 1} "
                    f"is neither durable nor folded "
                    f"(applied_upto={recovered.applied_upto})"
                )
