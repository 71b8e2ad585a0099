"""The two ``sim_*`` workloads: the seeded simulator, in this process.

Work is cut into fixed-size units (a block of write rounds, a window of
chaos schedules) that repeat until ``--seconds`` of measured time have
passed.  Host-time metrics are medians over the units, so one noisy
unit does not move them; simulated quantities are *counts* — a pure
function of the seed — taken from the first unit and fingerprinted by a
digest that must not change under a host-speed-only optimisation.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Optional

from common import HERE, Result, median, peak_rss_mb, percentile

from repro.chaos import NemesisRunner, ScheduleGenerator
from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.verify.linearizability import check_linearizable

from tracing import Recorder, install_sim

DIGESTS = HERE / "digests.json"
CANONICAL_SEED = 0

# sim_write: the E6 / bench_engine steady-write shape.
WRITE_N = 5
WRITE_ROUNDS = 1000      # per block (one fresh cluster)
WRITE_CHUNK = 10         # rounds per timed chunk
OPS_PER_ROUND = 9        # 1 put + 4 readers x 2 gets

# sim_chaos: python -m repro.chaos soak --systems sharded --n 3 --groups 2
#   --handoffs 1 --durability --leaseholders 1 --workers 1
CHAOS = dict(n=3, num_clients=2, horizon=2500.0, ops_per_client=6,
             groups=2, handoffs=1, durability=True, num_leaseholders=1)
CHAOS_WINDOW = 10        # schedules per timed window
CHAOS_TAIL_Q = 0.90      # ~100 schedules a run: p90 has ten beyond it


# ----------------------------------------------------------------------
# sim_write
# ----------------------------------------------------------------------
def _write_block(seed: int, rounds: int, examine: bool = False) -> dict:
    """One fresh cluster, ``rounds`` timed rounds.  With ``examine`` the
    finished cluster is also checked and counted (outside the timed
    region) before it is dropped: the history must be linearizable, and
    the digest and the paper's per-op costs are exact under the seed."""
    t0 = time.perf_counter()
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=WRITE_N), seed=seed)
    cluster.start()
    cluster.run(800.0)  # a leader is elected and holds leases
    setup = time.perf_counter() - t0

    futures: list = []
    chunks: list = []
    events0 = cluster.sim.events_processed
    cpu0 = time.process_time()
    start = last = time.perf_counter()
    for i in range(rounds):
        futures.append(cluster.submit(0, put("hot", i)))
        for pid in range(1, WRITE_N):
            futures.append(cluster.submit(pid, get("hot")))
            futures.append(cluster.submit(pid, get("cold")))
        cluster.run(10.0)
        if (i + 1) % WRITE_CHUNK == 0:
            now = time.perf_counter()
            chunks.append(now - last)
            last = now
    cluster.run_until(lambda: all(f.done for f in futures),
                      timeout=60_000.0)
    block = {
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu0, "setup_s": setup,
        "chunks": chunks, "ops": len(futures),
        "pending": sum(1 for f in futures if not f.done),
        "events": cluster.sim.events_processed - events0,
    }
    if examine:
        block["verdict"] = check_linearizable(
            KVStoreSpec(), cluster.history(), partition_by_key=True)
        block["digest"] = _write_digest(cluster)
        block["counts"] = _write_counts(cluster, block)
    return block


def _write_blocks(seed: int, seconds: float, rounds: int) -> list:
    """Blocks until ``seconds`` of measured time; block ``b`` runs seed
    ``seed + b``, so the first (the examined one) is the seed's own."""
    blocks, spent = [], 0.0
    while spent < seconds:
        blocks.append(_write_block(seed + len(blocks), rounds,
                                   examine=not blocks))
        spent += blocks[-1]["wall_s"]
    return blocks


def _write_digest(cluster: ChtCluster) -> str:
    h = hashlib.sha256()
    for e in cluster.history().entries:
        h.update(repr((e.op, e.response, e.invoked_at, e.responded_at,
                       e.pid, e.op_id)).encode())
    h.update(repr(sorted(cluster.net.sent_by_type().items())).encode())
    h.update(repr(cluster.sim.now).encode())
    return h.hexdigest()


def _write_counts(cluster: ChtCluster, block: dict) -> dict:
    """name -> (value, n): exact counts of one block."""
    ops = block["ops"]
    by_cat = cluster.net.sent_by_category()
    commits = [c for r in cluster.replicas for c in r.commit_log]
    return {
        "sim.events_per_op": (block["events"] / ops, ops),
        "sim.msgs_per_op": (cluster.net.total_sent() / ops, ops),
        "core.consensus_msgs_per_op": (
            by_cat.get("consensus", 0) / ops, ops),
        "core.lease_msgs_per_op": (by_cat.get("lease", 0) / ops, ops),
        "core.client_msgs_per_op": (by_cat.get("client", 0) / ops, ops),
        "leader.msgs_per_sim_s": (
            by_cat.get("leader-election", 0) / (cluster.sim.now / 1e3), 1),
        "core.ops_per_batch": (
            sum(c.size for c in commits) / max(len(commits), 1),
            len(commits)),
        "core.commit_latency_sim_ms_p50": (
            median(cluster.stats.latencies("rmw")), len(commits)),
        "core.read_blocked_frac": (
            cluster.stats.blocked_fraction("read"), ops),
    }


def run_write(seed: int, seconds: float, trace: bool,
              result: Result) -> None:
    rounds = WRITE_ROUNDS
    per_chunk = WRITE_CHUNK * OPS_PER_ROUND
    if trace:
        ref = _write_blocks(seed, seconds / 3, rounds)
        recorder = Recorder()
        install_sim(recorder)
    blocks = _write_blocks(seed, seconds / 2 if trace else seconds, rounds)
    first = blocks[0]
    for block in blocks:
        result.attempted += block["ops"]
        if block["pending"]:
            result.failed += block["pending"]
            result.error(
                f"sim_write: {block['pending']} futures never resolved")
    if not first["verdict"].ok:
        result.error("sim_write: history not linearizable: "
                     f"{first['verdict']!r}")
    ops = rounds * OPS_PER_ROUND
    result.extra.update(digest=first["digest"], blocks=len(blocks),
                        rounds_per_block=rounds)

    def chunk_ms(run: list) -> list:
        return [c / per_chunk * 1e3 for b in run for c in b["chunks"]]

    if trace:
        for name, (value, n) in first["counts"].items():
            result.put(name, value, n=n)
        _sim_layers(result, recorder, sum(b["wall_s"] for b in blocks),
                    sum(b["events"] for b in blocks))
        result.put("trace.overhead_frac",
                   median(b["wall_s"] for b in blocks)
                   / median(b["wall_s"] for b in ref) - 1.0)
        result.put("tail.op_p99_ms", percentile(chunk_ms(ref), 0.99),
                   n=len(chunk_ms(ref)))
    else:
        total = ops * len(blocks)
        result.put_median("ops_per_s", [ops / b["wall_s"] for b in blocks],
                          n=total)
        result.put("op_p50_ms", median(chunk_ms(blocks)),
                   n=len(chunk_ms(blocks)))
        # Inert on purpose — whole-block time per op, the reciprocal of
        # ops_per_s: every percentile of the chunk times above the
        # median measured the host, not the program (README).
        result.put_median("op_tail_ms",
                          [b["wall_s"] * 1e3 / ops for b in blocks], n=total)
        result.put_median("cpu_ms_per_op",
                          [b["cpu_s"] * 1e3 / ops for b in blocks], n=total)
        result.put_median("setup_s", [result.startup_s + b["setup_s"]
                                      for b in blocks])
        result.put("peak_rss_mb", peak_rss_mb())
    # Last: with tracing on, the canonical seed's block must not add to
    # the accumulators the figures above were read from.
    canonical = (first if seed == CANONICAL_SEED
                 else _write_block(CANONICAL_SEED, rounds, examine=True))
    _digest_changed(result, "sim_write", canonical["digest"])


# ----------------------------------------------------------------------
# sim_chaos
# ----------------------------------------------------------------------
def _chaos_pair(seed: int, obs: bool) -> tuple:
    n, clients = CHAOS["n"], CHAOS["num_clients"]
    generator = ScheduleGenerator(
        n=n, num_clients=clients, horizon=CHAOS["horizon"], seed=seed,
        durability=CHAOS["durability"],
        num_leaseholders=CHAOS["num_leaseholders"],
        # Sharded groups run one extra (coordinator) session.
        leaseholder_base=n + clients + 1)
    runner = NemesisRunner(system="sharded", seed=seed, obs=obs, **CHAOS)
    return generator, runner


def _chaos_windows(seed: int, obs: bool, result: Result, *,
                   seconds: float = 0.0, windows: int = 0,
                   first_index: int = 0) -> dict:
    """Generate + simulate + verify schedules ``first_index..`` in
    windows of CHAOS_WINDOW: exactly ``windows`` of them when given,
    else until ``seconds`` have passed."""
    generator, runner = _chaos_pair(seed, obs)
    out: dict = {"schedule_ms": [], "window_s": [], "window_cpu_s": [],
                 "verdicts": [], "metrics": [], "handoff_ms": [],
                 "commit_ms": []}
    index = first_index
    begin = time.perf_counter()
    while (len(out["window_s"]) < windows if windows
           else time.perf_counter() - begin < seconds):
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(CHAOS_WINDOW):
            t0 = time.perf_counter()
            verdict = runner.run(generator.generate(index))
            out["schedule_ms"].append((time.perf_counter() - t0) * 1e3)
            result.attempted += 1
            if not verdict.ok:
                result.failed += 1
                result.error(f"sim_chaos schedule {index}: {verdict.kind}: "
                             f"{verdict.detail[:200]}")
            out["verdicts"].append((verdict.ok, verdict.kind,
                                    verdict.ops_completed))
            if obs:
                out["metrics"].append(verdict.metrics)
                tracer = runner.last_obs.tracer
                out["handoff_ms"] += [
                    s.duration for s in tracer.finished("shard.handoff")]
                out["commit_ms"] += [
                    s.duration for s in tracer.finished("batch.commit")
                    if s.status == "committed"]
            index += 1
        out["window_s"].append(time.perf_counter() - w0)
        out["window_cpu_s"].append(time.process_time() - c0)
    return out


def _chaos_digest(seed: int, result: Result,
                  head: Optional[dict] = None) -> str:
    """Verdicts and obs snapshots of the seed's first full window of
    schedules (``head``, when the caller has already run it with obs
    on).  The timed windows run with obs off, which leaves nothing but
    ``ok`` to hash, so this is a pass of its own."""
    head = head or _chaos_windows(seed, True, result, windows=1)
    return hashlib.sha256(json.dumps(
        [head["verdicts"], head["metrics"]], sort_keys=True,
        default=repr).encode()).hexdigest()


def _counter_sum(snapshots: list, name: str) -> float:
    return sum(value for snap in snapshots
               for key, value in snap["counters"].items()
               if key.split("{")[0] == name)


def run_chaos(seed: int, seconds: float, trace: bool,
              result: Result) -> None:
    t0 = time.perf_counter()
    _chaos_pair(seed, obs=False)
    setup = time.perf_counter() - t0
    result.extra["tail_percentile"] = CHAOS_TAIL_Q
    if not trace:
        run = _chaos_windows(seed, False, result, seconds=seconds)
        n = len(run["schedule_ms"])
        result.put_median(
            "ops_per_s", [CHAOS_WINDOW / w for w in run["window_s"]], n=n)
        result.put("op_p50_ms", median(run["schedule_ms"]), n=n)
        result.put("op_tail_ms",
                   percentile(run["schedule_ms"], CHAOS_TAIL_Q), n=n)
        result.put_median(
            "cpu_ms_per_op",
            [c * 1e3 / CHAOS_WINDOW for c in run["window_cpu_s"]], n=n)
        result.put("setup_s", result.startup_s + setup)
        result.put("peak_rss_mb", peak_rss_mb())
        result.extra["schedules_per_min"] = 60.0 * median(
            CHAOS_WINDOW / w for w in run["window_s"])
        _chaos_digests(seed, result)
        return

    ref = _chaos_windows(seed, False, result, seconds=seconds / 3)
    recorder = Recorder()
    install_sim(recorder)
    # Counts come from the first window alone — a fixed set of schedules,
    # so they repeat exactly under a seed however fast the host is.
    head = _chaos_windows(seed, True, result, windows=1)
    _chaos_counts(result, head, dict(recorder.calls))
    rest = _chaos_windows(
        seed, True, result, first_index=CHAOS_WINDOW,
        seconds=seconds / 2 - head["window_s"][0])
    run = {key: head[key] + rest[key] for key in head}
    if run["verdicts"][:len(ref["verdicts"])] != \
            ref["verdicts"][:len(run["verdicts"])]:
        result.error("sim_chaos: tracing changed a verdict")
    schedules = len(run["verdicts"])
    wall = sum(run["window_s"])
    ops = sum(v[2] for v in run["verdicts"])
    events = sum(s["sim"]["events_processed"] for s in run["metrics"] if s)
    _sim_layers(result, recorder, wall, events)
    put_ = result.put
    put_("shard.router_us_per_op", recorder.us_per_call("shard.router"),
         n=recorder.calls["shard.router"])
    checks = recorder.calls["verify.check"]
    put_("verify.check_s_frac", recorder.ns["verify.check"] / 1e9 / wall,
         n=checks)
    put_("chaos.generate_s_frac",
         recorder.ns["chaos.generate"] / 1e9 / wall, n=schedules)
    put_("chaos.simulate_s_frac", recorder.ns["sim.run"] / 1e9 / wall,
         n=schedules)
    put_("trace.overhead_frac",
         median(run["schedule_ms"]) / median(ref["schedule_ms"]) - 1.0)
    # Last: the canonical seed's pass must not add to the accumulators
    # the figures above were read from.
    _chaos_digests(seed, result, head)


def _chaos_digests(seed: int, result: Result,
                   head: Optional[dict] = None) -> None:
    """The seed's own digest, and the canonical seed's against the
    recorded one."""
    own = result.extra["digest"] = _chaos_digest(seed, result, head)
    _digest_changed(result, "sim_chaos",
                    own if seed == CANONICAL_SEED
                    else _chaos_digest(CANONICAL_SEED, result))


def _chaos_counts(result: Result, head: dict, calls: dict) -> None:
    """Exact counts over one window of schedules: obs counters and
    spans of each run, plus what the wrappers counted so far."""
    snaps = [s for s in head["metrics"] if s]
    schedules = len(head["verdicts"])
    ops = sum(v[2] for v in head["verdicts"])
    events = sum(s["sim"]["events_processed"] for s in snaps)
    sent = {key[5:]: n for key, n in calls.items()
            if key.startswith("sent.")}
    put_ = result.put
    put_("sim.events_per_op", events / ops, n=ops)
    put_("sim.msgs_per_op", sum(sent.values()) / ops, n=ops)
    put_("core.consensus_msgs_per_op", sent.get("consensus", 0) / ops, n=ops)
    put_("core.lease_msgs_per_op", sent.get("lease", 0) / ops, n=ops)
    put_("core.client_msgs_per_op", sent.get("client", 0) / ops, n=ops)
    put_("leader.msgs_per_sim_s", sent.get("leader-election", 0) / sum(
        s["sim"]["now"] / 1e3 for s in snaps))
    put_("leader.changes_per_schedule",
         _counter_sum(snaps, "leader_changes_total") / schedules,
         n=schedules)
    commits = _counter_sum(snaps, "commits_total")
    put_("core.ops_per_batch",
         _counter_sum(snaps, "committed_ops_total") / max(commits, 1),
         n=int(commits))
    put_("core.commit_latency_sim_ms_p50", median(head["commit_ms"]),
         n=len(head["commit_ms"]))
    reads = _counter_sum(snaps, "reads_total")
    put_("core.read_blocked_frac",
         _counter_sum(snaps, "reads_blocked_total") / max(reads, 1),
         n=int(reads))
    put_("shard.redirects_per_op",
         _counter_sum(snaps, "router_redirects_total") / ops, n=ops)
    put_("shard.handoff_sim_ms_p50", median(head["handoff_ms"]),
         n=len(head["handoff_ms"]))
    checks = calls.get("verify.check", 0)
    put_("verify.configs_explored_per_history",
         calls.get("verify.configurations", 0) / max(checks, 1), n=checks)
    put_("durable.wal_records_per_op", calls.get("durable.append", 0) / ops,
         n=calls.get("durable.append", 0))
    put_("durable.syncs_per_op", calls.get("durable.sync", 0) / ops,
         n=calls.get("durable.sync", 0))


# ----------------------------------------------------------------------
# Shared: accumulator-derived layer metrics and the digest check
# ----------------------------------------------------------------------
def _sim_layers(result: Result, rec: Recorder, wall_s: float,
                events: int) -> None:
    """Host-time layer metrics from the wrappers' accumulators."""
    put_ = result.put
    put_("sim.events_per_host_s", events / wall_s, n=events)
    put_("sim.loop_self_us_per_event",
         (rec.ns["sim.run"] - rec.ns["sim.callbacks"]) / 1e3
         / max(rec.calls["sim.callbacks"], 1), n=rec.calls["sim.callbacks"])
    put_("sim.network_send_us_per_msg",
         rec.us_per_call("sim.network_send"),
         n=rec.calls["sim.network_send"])
    servers = ("deliver.ChtReplica", "deliver.Leaseholder")
    calls = sum(rec.calls[name] for name in servers)
    put_("core.replica_handler_us_per_msg",
         sum(rec.ns[name] for name in servers) / 1e3 / max(calls, 1),
         n=calls)
    put_("core.client_handler_us_per_msg",
         rec.us_per_call("deliver.ClientSession"),
         n=rec.calls["deliver.ClientSession"])
    put_("leader.handler_us_per_msg",
         rec.us_per_call("deliver.leader-election"),
         n=rec.calls["deliver.leader-election"])
    put_("objects.apply_us_per_op", rec.us_per_call("objects.apply"),
         n=rec.calls["objects.apply"])
    put_("durable.sync_us_p50", median(rec.sync_ns) / 1e3,
         n=rec.calls["durable.sync"])
    put_("durable.append_us_per_record",
         rec.us_per_call("durable.append"), n=rec.calls["durable.append"])


def _digest_changed(result: Result, workload: str, digest: str) -> None:
    """1 when the canonical seed's digest differs from the recorded one:
    the simulator's behaviour changed, not just its speed.  It is a
    finding to shout about, not a failed run — a change that means to
    alter simulated behaviour is legitimate.  Having nothing recorded to
    compare with is a failed run."""
    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(workload)
    if recorded is None:
        result.error(f"{workload}: no digest recorded in {DIGESTS.name}; "
                     "run.py --record-digests writes it")
    changed = recorded is not None and recorded != digest
    result.extra["canonical_digest"] = {
        "digest": digest, "recorded": recorded, "changed": changed}
    result.put("sim.digest_changed", float(changed))


def run(name: str, seed: int, seconds: float, trace: bool,
        result: Result) -> None:
    (run_write if name == "sim_write" else run_chaos)(
        seed, seconds, trace, result)
