"""The five ``net_*`` workloads: real server processes over loopback TCP.

Every workload runs the same deployment — ``local_spec(n=3,
num_leaseholders=1)`` with ``net_default_config``, one OS process per
member started by ``ClusterLauncher`` — and drives it through ``NetKV``
handles from this (the generator) process, one thread per handle.

Closed-loop workloads warm up, then measure ``WINDOWS`` equal windows;
a metric is the median over the windows.  ``net_failover`` is open loop
at a fixed rate with latency counted from each request's due time.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Optional

from common import (HERE, Result, cpu_seconds, median, peak_rss_mb,
                    percentile, scratch_dir)

from repro.net.client import NetKV, OpTimeout
from repro.net.config import CLIENT_PID_BASE
from repro.net.launch import ClusterLauncher, local_spec

import ledger
from tracing import Recorder, install_net, load_trace

N, L = 3, 1
CLIENTS = min(os.cpu_count() or 1, 4)
WINDOWS = 5
WARMUP_S = 1.0
OP_TIMEOUT_S = 5.0     # an op not acked by then counts as failed
SETUPS = 5             # bring-ups per timed run; setup_s is their median
READ_KEYS = 64
HOT_KEYS = 8
FAILOVER_RATE = 100.0  # offered increments per second
FAILOVER_PRE_S, FAILOVER_POST_S = 0.8, 1.2
ON_TIME_MS = 100.0     # an increment acked later than this after its due
                       # time is not goodput (4 x the configured delta)
TAIL_Q = 0.95          # closed loop; a window's p99 does not repeat (README)
FAILOVER_TAIL_Q = 0.99

Step = Callable[[], tuple]  # -> (kind, ok, detail)
GENERATOR, SERVERS = 0, 1   # the parts of Cluster.cpu_now()


# ----------------------------------------------------------------------
# Cluster life cycle
# ----------------------------------------------------------------------
class TracedLauncher(ClusterLauncher):
    """Starts members from ``traced_server.py`` instead of
    ``-m repro.net.server``; everything else is the parent's."""

    def start_one(self, pid: int) -> None:
        log_path = self.workdir / f"server-{pid}.log"
        self.log_paths[pid] = log_path
        self._log_offsets[pid] = (
            log_path.stat().st_size if log_path.exists() else 0)
        with open(log_path, "ab") as log:
            self.procs[pid] = subprocess.Popen(
                [sys.executable, "-u", str(HERE / "traced_server.py"),
                 "--config", str(self.config_path), "--pid", str(pid),
                 "--trace-out", str(self.trace_path(pid))],
                stdout=log, stderr=subprocess.STDOUT,
            )

    def trace_path(self, pid: int) -> Path:
        return self.workdir / f"trace-{pid}.pkl"


@dataclass
class Cluster:
    spec: object
    launcher: ClusterLauncher
    handles: list
    workdir: Path
    setup_s: float

    def cpu_now(self) -> tuple:
        """CPU seconds so far of (the generator, every live server)."""
        return time.process_time(), sum(
            cpu_seconds(proc.pid) or 0.0
            for proc in self.launcher.procs.values())


def _client_pid(rng: random.Random, index: int) -> int:
    """A session pid whose first contact is replica ``index % N``.

    ``ClientSession`` starts at replica ``pid % n``; NetKV's own draw
    would make "how many clients begin at the leader" vary with the
    seed, and with it every latency.  Here client 0 always starts at
    replica 0 (the leader of a stable cluster), client 1 at replica 1
    (one forwarding hop), and so on.
    """
    start = CLIENT_PID_BASE + N * rng.randrange(1 << 20)
    return start + (index - start) % N + N * (index // N)


@contextmanager
def cluster(seed: int, *, durable: bool = False, traced: bool = False,
            clients: int = CLIENTS) -> Iterator[Cluster]:
    """Servers up, ``clients`` handles connected and one op acked each;
    on exit — normal or not — handles closed, servers stopped and
    waited for, scratch directory removed."""
    t0 = time.perf_counter()
    with scratch_dir("net") as work:
        spec = local_spec(
            n=N, num_leaseholders=L, seed=seed,
            storage_dir=str(work / "wal") if durable else None)
        launcher = (TracedLauncher if traced else ClusterLauncher)(
            spec, workdir=str(work))
        handles: list = []
        rng = random.Random(f"spine-clients-{seed}")
        try:
            launcher.start()
            for i in range(clients):
                kv = NetKV(spec, pid=_client_pid(rng, i))
                handles.append(kv)
                kv.put(f"hello-{i}", 0, timeout=20.0)
            yield Cluster(spec, launcher, handles, work,
                          time.perf_counter() - t0)
        finally:
            for kv in handles:
                kv.close()
            launcher.stop()


# ----------------------------------------------------------------------
# Closed-loop measurement
# ----------------------------------------------------------------------
@dataclass
class Worker:
    step: Step
    log: list = field(default_factory=list)  # (t0_ns, t1_ns, kind)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def run(self, stop: threading.Event) -> None:
        now = time.monotonic_ns
        while not stop.is_set():
            self.attempted += 1
            t0 = now()
            try:
                kind, ok, detail = self.step()
            except OpTimeout as exc:
                ok, detail = False, f"timeout: {exc}"
            except Exception as exc:  # thread boundary: report, stop
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return
            else:
                self.log.append((t0, now(), kind))
            if not ok:
                self.failed += 1
                self.errors.append(detail)


@dataclass
class Measurement:
    workers: list
    bounds: list   # WINDOWS + 1 monotonic_ns instants
    cpu: list      # Cluster.cpu_now() at each bound

    def window(self, k: int, kind: Optional[str] = None) -> list:
        """Latencies (ms) of ops acked in window ``k``."""
        lo, hi = self.bounds[k], self.bounds[k + 1]
        return [(t1 - t0) / 1e6
                for w in self.workers for t0, t1, what in w.log
                if lo <= t1 < hi and (kind is None or what == kind)]

    def seconds(self, k: int) -> float:
        return (self.bounds[k + 1] - self.bounds[k]) / 1e9

    def cpu_ms(self, k: int, who: Optional[int] = None) -> float:
        """CPU spent in window ``k`` by ``GENERATOR``, by ``SERVERS``,
        or (``None``) by both."""
        spent = [b - a for a, b in zip(self.cpu[k], self.cpu[k + 1])]
        return 1e3 * (sum(spent) if who is None else spent[who])


def measure(cl: Cluster, steps: list, seconds: float,
            warmup: float) -> Measurement:
    workers = [Worker(step) for step in steps]
    stop = threading.Event()
    threads = [threading.Thread(target=w.run, args=(stop,), daemon=True)
               for w in workers]
    for thread in threads:
        thread.start()
    bounds, cpu = [], []
    try:
        start = time.monotonic() + warmup
        for k in range(WINDOWS + 1):
            delay = start + k * seconds / WINDOWS - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            bounds.append(time.monotonic_ns())
            cpu.append(cl.cpu_now())
    finally:
        stop.set()
        for thread in threads:
            thread.join(OP_TIMEOUT_S + 5.0)
    return Measurement(workers, bounds, cpu)


def _absorb(result: Result, meas: Measurement) -> None:
    for w in meas.workers:
        result.attempted += w.attempted
        result.failed += w.failed
        for message in w.errors:
            result.error(message)


def _report_windows(result: Result, meas: Measurement,
                    workload: "Workload") -> None:
    """The end-to-end metrics of a closed-loop run, each the median of
    its per-window values.  The workload says which kind of op fills
    each slot (``None``: every op)."""
    rate, p50, tail, cpu = [], [], [], []
    n_rate = n_p50 = n_tail = n_every = 0
    for k in range(WINDOWS):
        every = meas.window(k)
        counted = meas.window(k, workload.rate_of)
        mid = meas.window(k, workload.p50_of)
        far = meas.window(k, workload.tail_of)
        if not (counted and mid and far):
            result.error(f"window {k} acked no op of some kind")
            continue
        rate.append(len(counted) / meas.seconds(k))
        p50.append(median(mid))
        tail.append(percentile(far, TAIL_Q))
        cpu.append(meas.cpu_ms(k) / len(every))
        n_rate += len(counted)
        n_p50 += len(mid)
        n_tail += len(far)
        n_every += len(every)
    result.put_median("ops_per_s", rate, n=n_rate)
    result.put_median("op_p50_ms", p50, n=n_p50)
    result.put_median("op_tail_ms", tail, n=n_tail)
    result.put_median("cpu_ms_per_op", cpu, n=n_every)
    result.extra.update(rate_of=workload.rate_of, p50_of=workload.p50_of,
                        tail_of=workload.tail_of, tail_percentile=TAIL_Q)


# ----------------------------------------------------------------------
# Workload definitions: per-handle step functions with their checks
# ----------------------------------------------------------------------
class Workload:
    """``prepare`` preloads and returns one step per handle;
    ``finish`` makes the end-of-run checks.  ``rate_of`` / ``p50_of`` /
    ``tail_of`` name the kind of op behind ``ops_per_s`` / ``op_p50_ms``
    / ``op_tail_ms`` (``None``: every op)."""

    rate_of = p50_of = tail_of = None
    durable = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, cl: Cluster) -> list:
        raise NotImplementedError

    def finish(self, cl: Cluster, result: Result) -> None:
        pass


class Write(Workload):
    """Each client increments its own key: the reply must be the
    previous reply plus one, and the final ``get`` the acked count."""

    def prepare(self, cl: Cluster) -> list:
        self.counts = [0] * len(cl.handles)
        return [self._step(kv, i) for i, kv in enumerate(cl.handles)]

    def _step(self, kv: NetKV, i: int) -> Step:
        key = f"w{i}"

        def step() -> tuple:
            value = kv.increment(key, timeout=OP_TIMEOUT_S)
            self.counts[i] += 1
            return ("write", value == self.counts[i],
                    f"{key}: increment returned {value!r}, "
                    f"expected {self.counts[i]}")
        return step

    def finish(self, cl: Cluster, result: Result) -> None:
        for i, kv in enumerate(cl.handles):
            final = kv.get(f"w{i}", timeout=OP_TIMEOUT_S)
            result.attempted += 1
            if final != self.counts[i]:
                result.failed += 1
                result.error(f"w{i}: final value {final!r}, "
                             f"acked {self.counts[i]} increments")


class DurableWrite(Write):
    durable = True


class Read(Workload):
    """Round-robin gets over preloaded keys: every value must be the
    preloaded one."""

    def prepare(self, cl: Cluster) -> list:
        self.values = {f"r{k}": f"{self.seed}:{k}" for k in range(READ_KEYS)}
        for key, value in self.values.items():
            cl.handles[0].put(key, value, timeout=OP_TIMEOUT_S)
        return [self._step(kv, i) for i, kv in enumerate(cl.handles)]

    def _step(self, kv: NetKV, i: int) -> Step:
        keys = list(self.values)
        cursor = itertools.count(i * READ_KEYS // CLIENTS)

        def step() -> tuple:
            key = keys[next(cursor) % READ_KEYS]
            value = kv.get(key, timeout=OP_TIMEOUT_S)
            return ("read", value == self.values[key],
                    f"{key}: read {value!r}, preloaded {self.values[key]!r}")
        return step


class Mixed(Workload):
    """Client 0 puts increasing integers round-robin over the hot keys;
    every other client gets the same keys.  A key's reads must never go
    backwards and never be older than the last value acked before the
    read was issued; at the end each key holds its last acked value.

    Both sides get bounded slots: the readers fill ``ops_per_s`` (closed
    loop, so it falls with the mean read latency, blocked reads
    included) and ``op_tail_ms`` (the blocked reads), the writer
    ``op_p50_ms``."""

    rate_of, p50_of, tail_of = "read", "write", "read"

    def prepare(self, cl: Cluster) -> list:
        self.keys = [f"h{k}" for k in range(HOT_KEYS)]
        self.acked = dict.fromkeys(self.keys, 0)
        self.written = 0
        for key in self.keys:
            cl.handles[0].put(key, 0, timeout=OP_TIMEOUT_S)
        return [self._writer(cl.handles[0])] + [
            self._reader(kv) for kv in cl.handles[1:]]

    def _writer(self, kv: NetKV) -> Step:
        def step() -> tuple:
            self.written += 1
            key = self.keys[self.written % HOT_KEYS]
            kv.put(key, self.written, timeout=OP_TIMEOUT_S)
            self.acked[key] = self.written
            return "write", True, ""
        return step

    def _reader(self, kv: NetKV) -> Step:
        seen = dict.fromkeys(self.keys, 0)
        cursor = itertools.count()

        def step() -> tuple:
            key = self.keys[next(cursor) % HOT_KEYS]
            floor = max(seen[key], self.acked[key])
            value = kv.get(key, timeout=OP_TIMEOUT_S)
            ok = isinstance(value, int) and value >= floor
            if ok:
                seen[key] = value
            return ("read", ok,
                    f"{key}: read {value!r} after {floor} was acked or seen")
        return step

    def finish(self, cl: Cluster, result: Result) -> None:
        for key in self.keys:
            final = cl.handles[0].get(key, timeout=OP_TIMEOUT_S)
            result.attempted += 1
            if final != self.acked[key]:
                result.failed += 1
                result.error(f"{key}: final value {final!r}, last acked "
                             f"put {self.acked[key]}")


CLOSED_LOOP = {
    "net_write": Write,
    "net_read": Read,
    "net_mixed": Mixed,
    "net_durable_write": DurableWrite,
}


def _split_metrics(result: Result, name: str, meas: Measurement) -> None:
    """What the bounded slots fold together or leave out, each on its
    own: CPU of the generator (benchmark loop plus the program's client
    library) and of the servers, the p99 that ``op_tail_ms`` gave up
    for a percentile that repeats, and both sides of ``net_mixed``."""
    acked = [len(meas.window(k)) for k in range(WINDOWS)]
    tail_of = CLOSED_LOOP[name].tail_of
    result.put_median("tail.op_p99_ms", [
        percentile(meas.window(k, tail_of), 0.99) for k in range(WINDOWS)],
        n=sum(len(meas.window(k, tail_of)) for k in range(WINDOWS)))
    for who, label in ((GENERATOR, "generator"), (SERVERS, "servers")):
        result.put_median(
            f"cpu.{label}_ms_per_op",
            [meas.cpu_ms(k, who) / n for k, n in enumerate(acked) if n],
            n=sum(acked))
    if name != "net_mixed":
        return
    for kind in ("read", "write"):
        lats = [meas.window(k, kind) for k in range(WINDOWS)]
        result.put_median(
            f"mixed.{kind}_ops_per_s",
            [len(lat) / meas.seconds(k) for k, lat in enumerate(lats)])
        result.put_median(f"mixed.{kind}_p50_ms",
                          [median(lat) for lat in lats])


def run_closed_loop(name: str, seed: int, seconds: float,
                    result: Result) -> None:
    workload = CLOSED_LOOP[name](seed)
    setups = []
    for _ in range(SETUPS - 1):
        with cluster(seed, durable=workload.durable) as cl:
            setups.append(cl.setup_s)
    with cluster(seed, durable=workload.durable) as cl:
        setups.append(cl.setup_s)
        steps = workload.prepare(cl)
        meas = measure(cl, steps, seconds, WARMUP_S)
        _absorb(result, meas)
        workload.finish(cl, result)
    _report_windows(result, meas, workload)
    result.put_median("setup_s", [result.startup_s + s for s in setups])
    result.put("peak_rss_mb", peak_rss_mb())


def run_closed_loop_traced(name: str, seed: int, seconds: float,
                           result: Result) -> None:
    """An untraced reference phase (a third of the length), then a
    traced phase (half): per-layer numbers come from the second, the
    tracing overhead from the two medians."""
    workload = CLOSED_LOOP[name](seed)
    with cluster(seed, durable=workload.durable) as cl:
        ref = measure(cl, workload.prepare(cl), seconds / 3, WARMUP_S / 2)
        _absorb(result, ref)
        workload.finish(cl, result)
    _split_metrics(result, name, ref)

    recorder = Recorder()
    install_net(recorder)
    workload = CLOSED_LOOP[name](seed)
    with cluster(seed, durable=workload.durable, traced=True) as cl:
        meas = measure(cl, workload.prepare(cl), seconds / 2, WARMUP_S / 2)
        _absorb(result, meas)
        workload.finish(cl, result)
        cl.launcher.stop()  # SIGTERM: the servers write their traces
        traces = [load_trace(str(cl.launcher.trace_path(pid)))
                  for pid in cl.spec.server_pids]
        pids = [kv.pid for kv in cl.handles]
        counters = [t["counters"] for t in traces] + [
            dict(kv.runtime.counters) for kv in cl.handles]
        if workload.durable:
            ledger.recovery_cost(
                result, cl.spec.storage_path(0), cl.spec.object_name)
    ledger.net_layers(
        result, [t["events"] for t in traces], recorder.events,
        meas, pids, counters)

    def p50(m: Measurement) -> float:
        return median(lat for k in range(WINDOWS)
                      for lat in m.window(k, workload.p50_of))

    result.put("trace.overhead_frac", p50(meas) / p50(ref) - 1.0)


# ----------------------------------------------------------------------
# net_failover: open loop, leader killed mid-schedule
# ----------------------------------------------------------------------
def _failover_trial(seed: int, result: Result) -> dict:
    with cluster(seed, clients=1) as cl:
        kv = cl.handles[0]
        count = int((FAILOVER_PRE_S + FAILOVER_POST_S) * FAILOVER_RATE)
        acks: list = []  # (due, issued, acked), monotonic seconds
        start = time.monotonic() + 0.05
        cpu0 = sum(cl.cpu_now())
        expected: Optional[int] = 0

        def schedule() -> None:
            # One session keeps one RMW outstanding, so a request due
            # while its predecessor is in flight waits for it — and its
            # latency, counted from the due time, includes that wait.
            nonlocal expected
            for i in range(count):
                due = start + i / FAILOVER_RATE
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                issued = time.monotonic()
                result.attempted += 1
                try:
                    value = kv.increment("f", timeout=OP_TIMEOUT_S)
                except OpTimeout as exc:
                    result.failed += 1
                    result.error(f"failover op {i}: {exc}")
                    # It may still commit: resynchronise on the next reply.
                    expected = None
                    continue
                acks.append((due, issued, time.monotonic()))
                if expected is not None and value != expected + 1:
                    result.failed += 1
                    result.error(f"failover op {i}: increment returned "
                                 f"{value!r} after {expected}")
                expected = value

        thread = threading.Thread(target=schedule, daemon=True)
        thread.start()
        time.sleep(max(0.0, start + FAILOVER_PRE_S - time.monotonic()))
        # CPU is counted up to the kill: steady service at the offered
        # rate.  (Afterwards /proc forgets the dead leader's share.)
        cpu = sum(cl.cpu_now()) - cpu0
        killed = time.monotonic()
        cl.launcher.kill(0)
        thread.join(count / FAILOVER_RATE + 2 * OP_TIMEOUT_S)
        if thread.is_alive() or not acks:
            result.error("failover schedule did not finish")
            return {}
        final = kv.get("f", timeout=OP_TIMEOUT_S)
        result.attempted += 1
        if expected is not None and final != expected:
            result.failed += 1
            result.error(f"failover: final value {final!r}, last acked "
                         f"increment returned {expected}")
        after = [acked for _, _, acked in acks if acked > killed]
        if not after:
            result.error("no op was acked after the kill")
            return {}
        prev_ack = [start] + [acked for _, _, acked in acks[:-1]]
        from_due = [(acked - due) * 1e3 for due, _, acked in acks]
        pre_kill = [(acked - due) * 1e3
                    for due, _, acked in acks if acked < killed]
        return {
            "setup_s": cl.setup_s,
            "gap_s": min(after) - killed,
            # Goodput: a plain count of acks would read the offered
            # rate whatever happens, since the backlog is served later.
            "ops_per_s": sum(1 for ms in from_due if ms <= ON_TIME_MS)
            / (count / FAILOVER_RATE),
            "pre_kill_ms": pre_kill,
            "tail_ms": percentile(from_due, FAILOVER_TAIL_Q),
            "cpu_ms_per_op": cpu * 1e3 / max(len(pre_kill), 1),
            # How late the generator itself issued a request that
            # nothing was blocking.
            "lateness_ms": [(issued - max(due, prev)) * 1e3
                            for (due, issued, _), prev in zip(acks, prev_ack)],
        }


def run_failover(seed: int, seconds: float, result: Result) -> None:
    trials = max(1, round(seconds / (FAILOVER_PRE_S + FAILOVER_POST_S)))
    done = [t for t in (_failover_trial(seed + k, result)
                        for k in range(trials)) if t]
    if not done:
        return
    acked = sum(len(t["lateness_ms"]) for t in done)
    result.put_median("setup_s",
                      [result.startup_s + t["setup_s"] for t in done])
    result.put_median("ops_per_s", [t["ops_per_s"] for t in done], n=acked)
    pre_kill = [x for t in done for x in t["pre_kill_ms"]]
    result.put("op_p50_ms", median(pre_kill), n=len(pre_kill))
    result.put_median("op_tail_ms", [t["tail_ms"] for t in done], n=acked)
    result.put_median("cpu_ms_per_op", [t["cpu_ms_per_op"] for t in done],
                      n=acked)
    result.put("peak_rss_mb", peak_rss_mb())
    result.put_median("failover.gap_s", [t["gap_s"] for t in done])
    result.put("failover.gen_lateness_ms_p99", percentile(
        [x for t in done for x in t["lateness_ms"]], 0.99), n=acked)
    result.extra.update(tail_percentile=FAILOVER_TAIL_Q, trials=len(done),
                        offered_per_s=FAILOVER_RATE, on_time_ms=ON_TIME_MS)


def run(name: str, seed: int, seconds: float, trace: bool,
        result: Result) -> None:
    if name == "net_failover":
        # Killing a server loses its trace, so this workload has no
        # traced phase: the traced call reports its failover.* metrics.
        run_failover(seed, seconds, result)
    elif trace:
        run_closed_loop_traced(name, seed, seconds, result)
    else:
        run_closed_loop(name, seed, seconds, result)
