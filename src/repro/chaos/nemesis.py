"""The nemesis: run one workload + fault schedule and verify everything.

:class:`NemesisRunner` builds a fresh cluster (CHT or the Multi-Paxos
baseline), arms a :class:`~repro.sim.failures.FaultSchedule`, drives a
client-session workload through it, and then renders a verdict:

* **invariant** — a monitor tripped during the run (EL1 leader
  intervals, I1 batch agreement, Paxos slot agreement) or the final
  I2/I3 cross-replica check failed.
* **liveness** — some submitted operation failed to complete within
  ``liveness_bound`` of ``max(horizon, last disruption)``: after every
  fault has healed, every operation must finish.
* **linearizability** — the completed operation history (reads and RMWs
  from every session) is not linearizable against the sequential spec.
* **undecided** — the linearizability search hit its configuration
  budget before rendering a verdict.  Neither a pass nor a bug: soak
  summaries count these separately, and they are never shrunk (there is
  no failure to preserve).
* **exception** — the run crashed outright.

All randomness comes from the simulator's forked streams, so a verdict
is a deterministic function of ``(system, seed, schedule, workload
parameters)`` — which is what makes shrinking and repro artifacts work.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..baselines.multipaxos import PaxosCluster
from ..core.client import ChtCluster
from ..core.config import ChtConfig
from ..objects.kvstore import KVStoreSpec, delete, get, increment, put
from ..objects.spec import Operation
from ..shard.cluster import ShardedCluster
from ..shard.router import Router
from ..shard.spec import WrongShard
from ..durable import attach_memory_durability, durable_audit
from ..sim.failures import FaultSchedule
from ..sim.tasks import Future, Sleep
from ..verify.history import History
from ..verify.invariants import check_i2_i3
from ..verify.linearizability import check_linearizable

__all__ = ["NemesisResult", "NemesisRunner", "last_disruption", "SYSTEMS"]

SYSTEMS = ("cht", "multipaxos", "sharded")

#: Slot count of every nemesis-built sharded cluster.  Fixed so that a
#: verdict stays a pure function of (system, seed, schedule, workload).
SHARD_SLOTS = 16


def last_disruption(schedule: FaultSchedule) -> float:
    """The real time by which every fault in the plan has healed.

    The liveness clock starts at ``max(horizon, last_disruption)``: ops
    may legitimately stall while faults are active, but not afterwards.
    """
    t = 0.0
    for c in schedule.crashes:
        t = max(t, c.at)
    for r in schedule.recoveries:
        t = max(t, r.at)
    for lc in schedule.leader_crashes:
        t = max(t, lc.at + lc.downtime)
    for cr in schedule.crash_restarts:
        t = max(t, cr.at + cr.downtime)
    for df in schedule.disk_faults:
        t = max(t, df.end)
    for p in schedule.partitions:
        t = max(t, p.start if p.end == float("inf") else p.end)
    for p in schedule.one_way_partitions:
        t = max(t, p.start if p.end == float("inf") else p.end)
    for w in schedule.losses:
        t = max(t, w.end)
    for w in schedule.duplications:
        t = max(t, w.end)
    for w in schedule.delay_bursts:
        t = max(t, w.end)
    for d in schedule.desyncs:
        end = d.end if d.end is not None else d.start
        # A resynchronizing clock crawls at 1% speed for about as long as
        # it had jumped ahead; only after that is the process fully back.
        t = max(t, end + 1.1 * d.jump)
    return t


@dataclass
class NemesisResult:
    """Verdict of one nemesis run."""

    ok: bool
    # invariant | liveness | linearizability | undecided | exception
    kind: Optional[str] = None
    detail: str = ""
    ops_completed: int = 0
    # Metrics snapshot (repro.obs) of the run that produced the verdict;
    # None when the runner was built with obs=False or the run died
    # before the cluster existed.
    metrics: Optional[dict] = None

    def __repr__(self) -> str:
        if self.ok:
            return f"<NemesisResult ok ops={self.ops_completed}>"
        return f"<NemesisResult FAIL {self.kind}: {self.detail[:120]}>"


class NemesisRunner:
    """Runs workload + schedule through one system and checks the history."""

    def __init__(
        self,
        system: str = "cht",
        n: int = 5,
        num_clients: int = 2,
        seed: int = 0,
        horizon: float = 2500.0,
        ops_per_client: int = 6,
        liveness_bound: float = 3000.0,
        bug: Optional[str] = None,
        obs: bool = True,
        verify_workers: Optional[int] = None,
        max_configurations: int = 2_000_000,
        groups: int = 2,
        handoffs: int = 1,
        durability: bool = False,
        num_leaseholders: int = 0,
    ) -> None:
        if system not in SYSTEMS:
            raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
        if durability and system == "multipaxos":
            raise ValueError(
                "durability mode needs the CHT durable-storage seam; the "
                "multipaxos baseline does not implement it"
            )
        self.system = system
        # Durability mode: replicas get in-sim durable stores, so
        # CrashRestart faults genuinely erase memory and recover via
        # snapshot + WAL replay, DiskFaultWindow entries can target
        # their storage, and the post-run verdicts include the durable
        # audit (cross-replica durable I1/I2 agreement).
        self.durability = durability
        self.n = n
        self.num_clients = num_clients
        # Leaseholder read tier: read-only learners holding read leases
        # and serving local reads (cht and sharded systems; the paxos
        # baseline has no lease machinery to host them).
        if num_leaseholders and system == "multipaxos":
            raise ValueError(
                "leaseholders ride on the CHT lease machinery; the "
                "multipaxos baseline does not implement them"
            )
        self.num_leaseholders = num_leaseholders
        # Sharded runs only: group count and how many fenced handoffs the
        # runner fires while the fault schedule is playing out.
        self.groups = groups
        self.handoffs = handoffs
        self.seed = seed
        self.horizon = horizon
        self.ops_per_client = ops_per_client
        self.liveness_bound = liveness_bound
        self.bug = bug
        # Fan the per-key linearizability sub-checks over a process pool
        # of this size (None/1 = serial; verdicts identical either way).
        self.verify_workers = verify_workers
        # Budget for the linearizability search; a breach becomes an
        # "undecided" verdict, never a crash or a wrong answer.
        self.max_configurations = max_configurations
        # Observability is on by default: attaching an ObsContext never
        # schedules events or consumes randomness, so verdicts are
        # bit-identical with or without it — and failures then carry a
        # metrics snapshot for free.
        self.obs = obs
        # The most recent run's ObsContext (tracer + registry), for
        # callers that want more than the snapshot (property tests).
        self.last_obs: Optional[Any] = None

    # ------------------------------------------------------------------
    def run(self, schedule: FaultSchedule) -> NemesisResult:
        """Execute one run; never raises — failures become results."""
        self.last_obs = None
        try:
            result = self._run_checked(schedule)
        except AssertionError as exc:  # includes InvariantViolation
            detail = str(exc)
            if not detail:
                # A bare assert carries no message; name the site instead.
                tb = traceback.extract_tb(exc.__traceback__)
                if tb:
                    frame = tb[-1]
                    detail = (
                        f"assert failed at {frame.filename}:{frame.lineno}"
                        f" ({frame.line})"
                    )
            result = NemesisResult(False, "invariant", detail)
        except Exception as exc:  # noqa: BLE001 — verdict, not crash
            result = NemesisResult(
                False, "exception", f"{type(exc).__name__}: {exc}"
            )
        if self.last_obs is not None:
            result.metrics = self.last_obs.snapshot()
        return result

    def _run_checked(self, schedule: FaultSchedule) -> NemesisResult:
        if self.system == "sharded":
            return self._run_sharded(schedule)
        spec = KVStoreSpec()
        cluster, probe = self._build(spec)
        # The paxos baseline has no leaseholder tier (constructor rejects
        # the combination), so its clusters expose no such attribute.
        leaseholders = list(getattr(cluster, "leaseholders", []))
        if self.bug:
            for replica in cluster.replicas:
                replica.bug_switches.add(self.bug)
            for holder in leaseholders:
                holder.bug_switches.add(self.bug)
        cluster.start()
        schedule.arm(
            cluster.sim,
            cluster.net,
            list(cluster.replicas)
            + list(cluster.clients)
            + leaseholders,
            clocks=cluster.clocks,
            leader_probe=probe,
        )

        futures: list[Future] = []
        expected = self.num_clients * self.ops_per_client
        for i, session in enumerate(cluster.clients):
            ops = self._client_ops(cluster.sim.fork_rng(f"chaos-ops-{i}"))
            think_rng = cluster.sim.fork_rng(f"chaos-think-{i}")
            session.spawn(
                self._workload(session, ops, think_rng, futures),
                name=f"workload{i}",
            )

        # Phase 1: play the entire schedule out (no early stop), so the
        # invariant monitors observe every fault even if the workload
        # finishes early.
        settle = max(self.horizon, last_disruption(schedule))
        cluster.sim.run(until=settle)

        # Phase 2: liveness-after-heal — every operation must complete
        # within the bound of the last heal.
        def all_done() -> bool:
            return len(futures) == expected and all(f.done for f in futures)

        cluster.sim.run(until=settle + self.liveness_bound, stop_when=all_done)

        if self.system == "cht":
            check_i2_i3(cluster.replicas)
            durable_audit(cluster.replicas)

        if not all_done():
            completed = sum(1 for f in futures if f.done)
            return NemesisResult(
                False,
                "liveness",
                f"{completed}/{expected} ops completed within "
                f"{self.liveness_bound} of last heal (t={settle}); "
                f"{cluster.describe()}",
                ops_completed=completed,
            )
        history = cluster.history()
        result = check_linearizable(
            spec, history, partition_by_key=True,
            max_configurations=self.max_configurations,
            workers=self.verify_workers,
        )
        if result.undecided:
            return NemesisResult(
                False, "undecided", str(result.reason),
                ops_completed=expected,
            )
        if not result.ok:
            return NemesisResult(
                False, "linearizability", str(result.reason),
                ops_completed=expected,
            )
        return NemesisResult(True, ops_completed=expected)

    # ------------------------------------------------------------------
    # Sharded runs
    # ------------------------------------------------------------------
    def _run_sharded(self, schedule: FaultSchedule) -> NemesisResult:
        """One sharded run: G CHT groups, routed workloads, mid-schedule
        fenced handoffs, and the shard-aware verdict pipeline.

        The same fault schedule is armed once per group (each arm call
        forks fresh randomness, so the groups see distinct loss/dup
        windows at the same planned times), which means every group
        fights the same weather while handoffs are in flight.  On top of
        the per-group I1/I2/I3 checks, a sharded run must satisfy:

        * **ownership convergence** — after the last heal, the groups'
          applied owned-slot sets form a disjoint, complete partition of
          the slot space;
        * **global linearizability** — the union of every router's
          history linearizes against the *inner* (unsharded) spec, so a
          read answered from a frozen range or a doubly-applied redirect
          is caught as an ordinary linearizability violation;
        * **structural exactly-once** — every routed operation saw
          exactly one committed non-WrongShard reply across all groups.
        """
        spec = KVStoreSpec()
        bug = self.bug
        durability = self.durability

        def group_setup(group: ChtCluster, gid: int) -> None:
            if bug:
                for replica in group.replicas:
                    replica.bug_switches.add(bug)
                for holder in group.leaseholders:
                    holder.bug_switches.add(bug)
            if durability:
                attach_memory_durability(group)

        def on_started(group: ChtCluster, gid: int) -> None:
            schedule.arm(
                group.sim,
                group.net,
                list(group.replicas)
                + list(group.clients)
                + list(group.leaseholders),
                clocks=group.clocks,
                leader_probe=self._cht_probe(group),
            )

        cluster = ShardedCluster(
            spec,
            ChtConfig(n=self.n),
            num_groups=self.groups,
            num_slots=SHARD_SLOTS,
            seed=self.seed,
            num_clients=self.num_clients,
            obs=self.obs,
            group_setup=group_setup,
            on_started=on_started,
            num_leaseholders=self.num_leaseholders,
        )
        self.last_obs = cluster.obs
        cluster.start()
        routers = [cluster.router(i) for i in range(self.num_clients)]
        futures: list[Future] = []
        expected = self.num_clients * self.ops_per_client
        for i, router in enumerate(routers):
            ops = self._client_ops(cluster.sim.fork_rng(f"chaos-ops-{i}"))
            think_rng = cluster.sim.fork_rng(f"chaos-think-{i}")
            router._host.spawn(
                self._workload(router, ops, think_rng, futures),
                name=f"workload{i}",
            )

        # Handoffs fire at fixed fractions of the horizon — deliberately
        # inside the window where the fault schedule is active, so leader
        # crashes race freeze/install commits.
        handoff_futures: list[Future] = []
        if self.handoffs:
            times = [
                self.horizon * (j + 1) / (self.handoffs + 1)
                for j in range(self.handoffs)
            ]
            pairs = [
                (j % self.groups, (j + 1) % self.groups)
                for j in range(self.handoffs)
            ]
            cluster.control.host.spawn(
                self._handoff_driver(cluster, times, pairs, handoff_futures),
                name="handoff-driver",
            )

        settle = max(self.horizon, last_disruption(schedule))
        cluster.run_to(settle)

        def all_done() -> bool:
            return (
                len(futures) == expected
                and all(f.done for f in futures)
                and len(handoff_futures) == self.handoffs
                and all(f.done for f in handoff_futures)
            )

        cluster.run_until(all_done, timeout=self.liveness_bound)

        failures = cluster.invariant_failures()
        if failures:
            return NemesisResult(
                False,
                "invariant",
                "; ".join(
                    f"{site}: {msg}"
                    for site, msg in sorted(failures.items())
                ),
            )

        if not all_done():
            completed = sum(1 for f in futures if f.done)
            handoffs_done = sum(1 for f in handoff_futures if f.done)
            return NemesisResult(
                False,
                "liveness",
                f"{completed}/{expected} ops and {handoffs_done}/"
                f"{self.handoffs} handoffs completed within "
                f"{self.liveness_bound} of last heal (t={settle}); "
                f"{cluster.describe()}",
                ops_completed=completed,
            )

        # Ownership convergence: replicas may trail the committed
        # freeze/install batches when the liveness phase ends, so give
        # catch-up (retransmission, snapshot transfer) one more bounded
        # quiet window before asserting.
        def converged() -> bool:
            slot_sets = [
                cluster.owned_slots(g) for g in range(self.groups)
            ]
            union = frozenset().union(*slot_sets)
            return (
                sum(len(s) for s in slot_sets) == len(union)
                and union == frozenset(range(SHARD_SLOTS))
            )

        cluster.run_until(converged, timeout=self.liveness_bound)
        assert converged(), (
            "shard ownership did not converge to a disjoint, complete "
            f"partition after heal: "
            + " ".join(
                f"g{g}={sorted(cluster.owned_slots(g))}"
                for g in range(self.groups)
            )
        )

        self._check_exactly_once(routers)

        history = History(
            entry for router in routers
            for entry in History.from_stats(router.stats)
        )
        result = check_linearizable(
            spec, history, partition_by_key=True,
            max_configurations=self.max_configurations,
            workers=self.verify_workers,
        )
        if result.undecided:
            return NemesisResult(
                False, "undecided", str(result.reason),
                ops_completed=expected,
            )
        if not result.ok:
            return NemesisResult(
                False, "linearizability", str(result.reason),
                ops_completed=expected,
            )
        return NemesisResult(True, ops_completed=expected)

    @staticmethod
    def _cht_probe(cluster: ChtCluster) -> Callable[[], Optional[int]]:
        """Leader probe over one CHT group (for targeted LeaderCrash)."""

        def probe() -> Optional[int]:
            leader = cluster.leader()
            if leader is not None:
                return leader.pid
            for replica in cluster.replicas:
                if not replica.crashed:
                    return replica.leader_service.believed_leader()
            return None

        return probe

    @staticmethod
    def _handoff_driver(
        cluster: ShardedCluster,
        times: list[float],
        pairs: list[tuple[int, int]],
        handoff_futures: list[Future],
    ) -> Generator:
        """Fire each planned handoff at its time, strictly in sequence."""
        for at, (src, dst) in zip(times, pairs):
            remaining = at - cluster.sim.now
            if remaining > 0:
                yield Sleep(remaining)
            future = cluster.spawn_handoff(src, dst)
            handoff_futures.append(future)
            yield future

    @staticmethod
    def _check_exactly_once(routers: list[Router]) -> None:
        """Every routed op saw exactly one non-WrongShard committed reply
        across all its attempts — the structural form of 'no op lost, no
        op doubly applied, none answered from a frozen range'."""
        for router in routers:
            for op_id, attempts in sorted(router.attempts.items()):
                real = [
                    (gid, value) for gid, value in attempts
                    if not isinstance(value, WrongShard)
                ]
                assert len(real) == 1, (
                    f"op {op_id} saw {len(real)} non-WrongShard replies "
                    f"across groups (attempts: {attempts}); exactly-once "
                    "across shards violated"
                )

    # ------------------------------------------------------------------
    def _build(self, spec: KVStoreSpec) -> tuple[Any, Callable[[], Optional[int]]]:
        if self.system == "cht":
            cluster = ChtCluster(
                spec,
                ChtConfig(n=self.n),
                seed=self.seed,
                num_clients=self.num_clients,
                obs=self.obs,
                durability=self.durability,
                num_leaseholders=self.num_leaseholders,
            )
            self.last_obs = cluster.obs

            def probe() -> Optional[int]:
                leader = cluster.leader()
                if leader is not None:
                    return leader.pid
                for replica in cluster.replicas:
                    if not replica.crashed:
                        return replica.leader_service.believed_leader()
                return None

            return cluster, probe

        cluster = PaxosCluster(
            spec,
            n=self.n,
            seed=self.seed,
            num_clients=self.num_clients,
            obs=self.obs,
        )
        self.last_obs = cluster.obs

        def paxos_probe() -> Optional[int]:
            for replica in cluster.replicas:
                if not replica.crashed:
                    return replica.omega.leader()
            return None

        return cluster, paxos_probe

    def _client_ops(self, rng: Any) -> list[Operation]:
        """A single-key workload mix (ints only, so increment composes
        with put; single-key ops keep the linearizability check
        P-compositional).

        Leaseholder runs flip to a read-heavy mix: the workload is
        closed-loop, so a client partitioned together with its
        leaseholder stalls at its first RMW — a read-mostly stream keeps
        local reads flowing through exactly the window where a stale
        lease could serve them.
        """
        keys = ("a", "b")
        ops: list[Operation] = []
        if self.num_leaseholders:
            # Read-heavy branch; the legacy branch below must stay
            # byte-identical for leaseholder-free (seed, index) cells.
            for _ in range(self.ops_per_client):
                key = rng.choice(keys)
                roll = rng.random()
                if roll < 0.60:
                    ops.append(get(key))
                elif roll < 0.78:
                    ops.append(put(key, rng.randrange(100)))
                elif roll < 0.94:
                    ops.append(increment(key))
                else:
                    ops.append(delete(key))
            return ops
        for _ in range(self.ops_per_client):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.30:
                ops.append(put(key, rng.randrange(100)))
            elif roll < 0.60:
                ops.append(increment(key))
            elif roll < 0.72:
                ops.append(delete(key))
            else:
                ops.append(get(key))
        return ops

    @staticmethod
    def _workload(
        session: Any, ops: list[Operation], rng: Any, futures: list[Future]
    ) -> Generator:
        """One session's closed-loop client: think, submit, await."""
        for op in ops:
            yield Sleep(rng.uniform(20.0, 200.0))
            future = session.submit(op)
            futures.append(future)
            yield future
