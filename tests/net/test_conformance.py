"""Transport-conformance battery: one contract, every runtime.

Each test here states a property of the :class:`repro.net.runtime
.Runtime` contract — delivery, FIFO per ordered pair, timer ordering
and cancellation, deterministic RNG streams, self-send rejection,
disconnect/reconnect recovery — and runs it against both substrates
through one parametrized harness:

* ``sim`` — :class:`SimRuntime` over a ``Simulator`` + ``Network``
  with zero clock skew and no faults;
* ``asyncio`` — one :class:`AsyncioRuntime` per pid, real loopback TCP
  between them, each on its own event-loop thread.

The battery is what keeps the backends from drifting: a new runtime
earns its place by passing this file unchanged.
"""

import socket
import threading
import time
from dataclasses import dataclass

import pytest

from repro.net import asyncio_rt
from repro.net.asyncio_rt import AsyncioRuntime, Ping
from repro.net.launch import free_ports
from repro.net.runtime import SimRuntime
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import Process

N = 3  # processes per harness


@dataclass(frozen=True)
class Note:
    """Picklable test message."""

    seq: int
    body: str = ""

    category = "test"


class Recorder(Process):
    """Records every delivered message."""

    def __init__(self, pid, runtime):
        super().__init__(pid, runtime=runtime)
        self.received = []

    def on_message(self, src, msg):
        self.received.append((src, msg))


class SimHarness:
    name = "sim"

    def __init__(self):
        self.sim = Simulator(seed=42)
        net = Network(self.sim, delta=5.0, gst=0.0)
        clocks = ClockModel(N, epsilon=0.0, rng=self.sim.fork_rng("clocks"))
        self.runtime = SimRuntime(self.sim, net, clocks)
        self.procs = {
            pid: Recorder(pid, self.runtime) for pid in range(N)
        }

    def call(self, pid, fn):
        """Run ``fn()`` in the pid's execution context; return result."""
        return fn()

    def run_until(self, predicate, timeout=5.0):
        # One wall second of budget maps to 10k sim-ms: far beyond any
        # delivery or timer in this battery.
        self.sim.run(until=self.sim.now + timeout * 10_000.0,
                     stop_when=predicate)
        return predicate()

    def restart(self, pid):
        """Sever and re-join pid: crash drops in-window deliveries,
        recover resumes."""
        self.procs[pid].crash()
        self.sim.run_for(50.0)
        self.procs[pid].recover()

    def close(self):
        pass


class AsyncioHarness:
    name = "asyncio"

    def __init__(self):
        ports = free_ports(N)
        self.addrs = {pid: ("127.0.0.1", ports[pid]) for pid in range(N)}
        self.runtimes = {}
        self.procs = {}
        for pid in range(N):
            self._start(pid)

    def _start(self, pid):
        rt = AsyncioRuntime(
            pid,
            peers={p: a for p, a in self.addrs.items() if p != pid},
            listen=self.addrs[pid],
            epoch=time.time(),
            seed=42,
            broadcast_pids=list(range(N)),
            reconnect_min=0.02,
            reconnect_max=0.2,
        )
        rt.start_background()
        self.runtimes[pid] = rt
        self.procs[pid] = rt.build(lambda: Recorder(pid, rt))

    def call(self, pid, fn):
        return self.runtimes[pid].call(fn)

    def run_until(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return predicate()

    def restart(self, pid):
        """Kill pid's runtime (connections drop) and bring up a fresh
        one on the same address; peers must redial."""
        self.runtimes[pid].close()
        time.sleep(0.05)
        self._start(pid)

    def close(self):
        for rt in self.runtimes.values():
            rt.close()


@pytest.fixture(params=["sim", "asyncio"])
def harness(request):
    h = SimHarness() if request.param == "sim" else AsyncioHarness()
    yield h
    h.close()


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
def test_directed_send_is_delivered(harness):
    harness.call(0, lambda: harness.procs[0].send(1, Note(1, "hello")))
    assert harness.run_until(lambda: len(harness.procs[1].received) == 1)
    src, msg = harness.procs[1].received[0]
    assert src == 0
    assert msg == Note(1, "hello")
    assert harness.procs[2].received == []


def test_broadcast_reaches_every_other_process(harness):
    harness.call(0, lambda: harness.procs[0].broadcast(Note(7)))
    assert harness.run_until(
        lambda: all(len(harness.procs[p].received) == 1 for p in (1, 2))
    )
    assert harness.procs[0].received == []  # never to self


def test_self_send_is_rejected(harness):
    rt = (harness.runtimes[0] if hasattr(harness, "runtimes")
          else harness.runtime)
    # Both substrates refuse self-sends (sim: SimulationError, asyncio:
    # ValueError) — the contract is "raises", message naming the self-send.
    with pytest.raises(Exception, match="self"):
        harness.call(0, lambda: rt.send(0, 0, Note(0)))


# ----------------------------------------------------------------------
# FIFO per ordered pair
# ----------------------------------------------------------------------
def test_fifo_per_pair(harness):
    count = 200

    def blast():
        for i in range(count):
            harness.procs[0].send(1, Note(i))

    harness.call(0, blast)
    assert harness.run_until(
        lambda: len(harness.procs[1].received) == count, timeout=15.0
    )
    seqs = [m.seq for _, m in harness.procs[1].received]
    assert seqs == list(range(count))


def test_fifo_holds_across_interleaved_pairs(harness):
    def blast(pid):
        def go():
            for i in range(50):
                harness.procs[pid].send(2, Note(i, body=f"from{pid}"))
        return go

    harness.call(0, blast(0))
    harness.call(1, blast(1))
    assert harness.run_until(
        lambda: len(harness.procs[2].received) == 100, timeout=15.0
    )
    for src in (0, 1):
        seqs = [m.seq for s, m in harness.procs[2].received if s == src]
        assert seqs == list(range(50))


# ----------------------------------------------------------------------
# Timers
# ----------------------------------------------------------------------
def test_timers_fire_in_deadline_order(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        p.set_timer(120.0, lambda: fired.append("late"))
        p.set_timer(40.0, lambda: fired.append("early"))
        p.set_timer(80.0, lambda: fired.append("mid"))

    harness.call(0, arm)
    assert harness.run_until(lambda: len(fired) == 3)
    assert fired == ["early", "mid", "late"]


def test_equal_deadline_timers_fire_in_arming_order(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        for tag in ("a", "b", "c"):
            p.set_timer(30.0, lambda t=tag: fired.append(t))

    harness.call(0, arm)
    assert harness.run_until(lambda: len(fired) == 3)
    assert fired == ["a", "b", "c"]


def test_cancelled_timer_never_fires(harness):
    fired = []

    def arm():
        p = harness.procs[0]
        handle = p.set_timer(30.0, lambda: fired.append("no"))
        handle.cancel()
        p.set_timer(90.0, lambda: fired.append("yes"))

    harness.call(0, arm)
    assert harness.run_until(lambda: fired == ["yes"])
    assert harness.run_until(lambda: True)  # settle
    assert fired == ["yes"]


def test_periodic_timer_repeats_until_crash(harness):
    ticks = []
    harness.call(
        0, lambda: harness.procs[0].every(25.0, lambda: ticks.append(1)))
    assert harness.run_until(lambda: len(ticks) >= 4)
    harness.call(0, harness.procs[0].crash)
    seen = len(ticks)
    harness.run_until(lambda: False, timeout=0.2)
    assert len(ticks) <= seen + 1  # at most one in-flight tick


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def test_rng_streams_are_deterministic_and_labelled(harness):
    def streams(rt):
        """First 8 draws of: label A (1st fork), A again (2nd fork), B."""
        return (
            [rt.fork_rng("conformance-stream").random() for _ in range(8)],
            [rt.fork_rng("conformance-stream").random() for _ in range(8)],
            [rt.fork_rng("other-stream").random() for _ in range(8)],
        )

    rt = (harness.runtimes[0] if hasattr(harness, "runtimes")
          else harness.runtime)
    a1, a2, b = streams(rt)
    # Repeated forks of one label are independent streams...
    assert a1 != a2
    assert a1 != b
    # ...and an identically-seeded runtime reproduces them exactly.
    if hasattr(harness, "runtimes"):
        fresh = AsyncioRuntime(99, peers={}, seed=42)
    else:
        fresh = SimRuntime(
            Simulator(seed=42),
            harness.runtime.net,
            harness.runtime.clocks,
        )
    assert streams(fresh) == (a1, a2, b)


# ----------------------------------------------------------------------
# Disconnect / reconnect
# ----------------------------------------------------------------------
def test_pair_recovers_after_disconnect(harness):
    harness.call(0, lambda: harness.procs[0].send(1, Note(0, "pre")))
    assert harness.run_until(lambda: len(harness.procs[1].received) == 1)

    harness.restart(1)

    # Messages sent into the outage window may be lost (both models
    # allow loss); *new* messages after recovery must flow again.  The
    # sender keeps sending, as every protocol retransmission loop does.
    def delivered_post():
        return any(
            m.body == "post" for _, m in harness.procs[1].received
        )

    ok = False
    for i in range(1, 40):
        harness.call(0, lambda i=i: harness.procs[0].send(1, Note(i, "post")))
        if harness.run_until(delivered_post, timeout=0.5):
            ok = True
            break
    assert ok, "pair never recovered after disconnect"


# ----------------------------------------------------------------------
# The asyncio write path: direct writes, the queue behind them, and the
# reverse channel's bound
# ----------------------------------------------------------------------
BURST = 400
BODY = "x" * 4096


def _paused_pair(monkeypatch):
    """An asyncio harness whose pid 1 has stopped reading pid 0's link,
    with ``HIGH_WATER`` at one byte: once the kernel's socket buffers
    fill, every further frame from 0 to 1 must take the queue.  The
    link's send buffer is pinned small so that happens within a burst
    (Linux otherwise grows it to megabytes)."""
    monkeypatch.setattr(asyncio_rt, "HIGH_WATER", 1)
    h = AsyncioHarness()
    h.call(0, lambda: h.procs[0].send(1, Note(-1)))
    assert h.run_until(lambda: len(h.procs[1].received) == 1)
    sock = h.runtimes[0]._links[1].writer.transport.get_extra_info("socket")
    h.call(0, lambda: sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 16384))
    receiver = h.runtimes[1]
    h.call(1, lambda: receiver._inbound[0].transport.pause_reading())
    return h


def _burst(h, first=0):
    """Send ``BURST`` frames 0 -> 1, numbered from ``first``, in one loop
    callback; return how many went straight to the socket, sat in the
    queue, were dropped."""
    sender = h.runtimes[0]
    link = sender._links[1]
    dropped0 = sender.counters["net.dropped_overflow"]

    def go():
        queued0 = len(link.queue)
        for i in range(first, first + BURST):
            h.procs[0].send(1, Note(i, BODY))
        dropped = sender.counters["net.dropped_overflow"] - dropped0
        queued = len(link.queue) - queued0
        return BURST - queued - dropped, queued, dropped

    return h.call(0, go)


def _resume_and_collect(h, expected):
    receiver = h.runtimes[1]
    h.call(1, lambda: receiver._inbound[0].transport.resume_reading())
    assert h.run_until(
        lambda: len(h.procs[1].received) == 1 + expected, timeout=15.0)
    return [m.seq for _, m in h.procs[1].received[1:]]


def test_direct_writes_give_way_to_the_queue_in_send_order(monkeypatch):
    h = _paused_pair(monkeypatch)
    try:
        direct, queued, dropped = _burst(h)
        # The burst switched paths partway through, and lost nothing.
        assert direct > 0 and queued > 0 and dropped == 0
        # Once the writer task has flushed into the socket buffer up to
        # asyncio's own limit, it blocks in drain() with frames still
        # queued.  New frames must queue behind them even with room
        # below HIGH_WATER, not overtake them.
        transport = h.runtimes[0]._links[1].writer.transport
        assert h.run_until(
            lambda: h.call(0, transport.get_write_buffer_size) > 64 * 1024)
        monkeypatch.setattr(asyncio_rt, "HIGH_WATER", 1 << 30)
        direct, queued, dropped = _burst(h, first=BURST)
        assert direct == 0 and dropped == 0
        assert _resume_and_collect(h, 2 * BURST) == list(range(2 * BURST))
    finally:
        h.close()


def test_queue_overflow_drops_the_oldest_frames_and_counts_them(monkeypatch):
    h = _paused_pair(monkeypatch)
    try:
        limit = 50
        monkeypatch.setattr(h.runtimes[0], "queue_limit", limit)
        direct, queued, dropped = _burst(h)
        assert queued == limit and dropped == BURST - direct - limit > 0
        # Everything written directly arrives, then the newest ``limit``:
        # the frames dropped were the oldest in the queue.
        assert _resume_and_collect(h, direct + limit) == (
            list(range(direct)) + list(range(BURST - limit, BURST)))
    finally:
        h.close()


def test_reverse_channel_is_bounded_for_a_client_that_never_reads():
    port = free_ports(1)[0]
    rt = AsyncioRuntime(0, peers={}, listen=("127.0.0.1", port),
                        epoch=time.time(), seed=42)
    rt.start_background()
    server = rt.build(lambda: Recorder(0, rt))
    client_pid = 1000
    sock = socket.socket()
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", port))
        # One frame registers the reverse channel; then never read.
        sock.sendall(rt._encode(client_pid, 0, Ping()))
        deadline = time.monotonic() + 5.0
        while client_pid not in rt._inbound and time.monotonic() < deadline:
            time.sleep(0.01)
        frame_size = len(rt._encode(0, client_pid, Note(0, BODY)))

        def flood():
            transport = rt._inbound[client_pid].transport
            # Pinned small, as in _paused_pair, so the kernel fills up.
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 16384)
            for i in range(BURST):
                server.send(client_pid, Note(i, BODY))
            return transport.get_write_buffer_size()

        buffered = rt.call(flood)
        assert rt.counters["net.dropped_overflow"] > 0
        assert buffered < asyncio_rt.HIGH_WATER + frame_size
    finally:
        sock.close()
        rt.close()


def test_disconnected_clients_are_forgotten_and_listed_peers_are_not():
    port, peer_port = free_ports(2)
    rt = AsyncioRuntime(0, peers={1: ("127.0.0.1", peer_port)},
                        listen=("127.0.0.1", port), seed=42)
    rt.start_background()
    rt.build(lambda: Recorder(0, rt))

    def dial(pid):
        sock = socket.create_connection(("127.0.0.1", port))
        sock.sendall(rt._encode(pid, 0, Ping()))
        return sock

    def until(predicate):
        # Read the runtime's maps on its own loop thread.
        deadline = time.monotonic() + 5.0
        while not rt.call(predicate) and time.monotonic() < deadline:
            time.sleep(0.005)
        return rt.call(predicate)

    try:
        for client_pid in range(1000, 1050):
            sock = dial(client_pid)
            assert until(lambda: client_pid in rt._inbound)
            sock.close()
        assert until(lambda: not rt._inbound and not rt._last_seen)

        # A listed peer redials before its old connection is gone: the
        # old one's teardown must not drop the new reverse channel.
        first = dial(1)
        assert until(lambda: 1 in rt._inbound)
        old = rt._inbound[1]
        second = dial(1)
        assert until(lambda: rt._inbound.get(1, old) is not old)
        first.close()
        assert until(lambda: old.transport not in rt._transports)
        assert rt.call(lambda: rt._inbound[1] is not old)
        second.close()
        assert until(lambda: 1 not in rt._inbound)
        assert 1 in rt._last_seen
    finally:
        rt.close()


def test_frames_are_reassembled_and_bad_frames_are_counted():
    port = free_ports(1)[0]
    rt = AsyncioRuntime(0, peers={}, listen=("127.0.0.1", port), seed=42)
    rt.start_background()
    server = rt.build(lambda: Recorder(0, rt))
    sock = socket.create_connection(("127.0.0.1", port))
    try:
        # A frame dribbled in byte by byte, then two in one segment.
        for byte in rt._encode(1000, 0, Note(1)):
            sock.sendall(bytes([byte]))
            time.sleep(0.0005)
        sock.sendall(rt._encode(1000, 0, Note(2)) + rt._encode(1000, 0, Note(3)))
        # An unpicklable payload is counted and skipped.
        sock.sendall(b"\x00\x00\x00\x03bad" + rt._encode(1000, 0, Note(4)))
        deadline = time.monotonic() + 5.0
        while len(server.received) < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [m.seq for _, m in server.received] == [1, 2, 3, 4]
        assert rt.counters["net.bad_frame"] == 1
        # An oversized length prefix is counted and ends the connection.
        sock.sendall((asyncio_rt.MAX_FRAME + 1).to_bytes(4, "big"))
        sock.settimeout(5.0)
        assert sock.recv(1) == b""
        assert rt.counters["net.bad_frame"] == 2
    finally:
        sock.close()
        rt.close()


def test_close_stops_the_background_thread_and_closes_its_loop():
    rt = AsyncioRuntime(0, peers={}, listen=("127.0.0.1", free_ports(1)[0]),
                        seed=42)
    rt.start_background()
    t0 = time.monotonic()
    rt.close()
    assert rt.loop.is_closed()
    assert not rt._thread.is_alive()
    assert time.monotonic() - t0 < 1.0  # woken, not found by polling
