"""Asyncio TCP runtime: the real-network substrate behind the seam.

One :class:`AsyncioRuntime` lives in each OS process and hosts that
process's protocol objects (a replica, a leaseholder, or client
sessions).  It implements the :class:`~repro.net.runtime.Runtime`
interface over:

* **Framed TCP connections.**  Every frame is a 4-byte big-endian
  length prefix followed by ``pickle((src, dst, msg))``.  Messages are
  the frozen dataclasses of :mod:`repro.core.messages` — plain data,
  picklable by construction.  Frames above :data:`MAX_FRAME` are
  rejected (a corrupt length prefix must not allocate gigabytes).
  Each connection's protocol cuts frames out of the bytes as they
  arrive and delivers them inline, with no reader task to wake.
* **Direct writes, bounded queues behind them.**  Each peer has one
  `_PeerLink`.  While it is connected, its queue is empty and the
  socket's write buffer is below :data:`HIGH_WATER`, a frame goes
  straight to ``StreamWriter.write`` on the sending call — no task
  wake-up, no ``drain()``.  Otherwise the frame joins a bounded
  deque that the link's writer task flushes, awaiting ``drain()`` only
  when the buffer reaches :data:`HIGH_WATER`, so TCP backpressure
  slows the queue's consumer; when the queue overflows the *oldest*
  frames are dropped (counted in ``counters``).  A frame bypasses the
  queue only when the queue is empty, so per-pair FIFO holds across
  both paths.  Reverse channels (replies to dial-in clients) follow
  the same rule without a queue: above :data:`HIGH_WATER` the frame is
  dropped and counted.  Dropping is safe: every protocol loop
  retransmits (the paper's model already allows loss before GST).
* **Reconnect with exponential backoff.**  A link that fails redials
  with delay doubling from ``reconnect_min`` to ``reconnect_max``
  (jittered by the runtime's own RNG stream), forever — peers may
  outlive many restarts of each other.
* **Heartbeat-based failure suspicion.**  The simulator's network
  checks ``process.crashed`` omnisciently; a real network cannot.
  Links exchange lightweight ping frames every ``ping_period`` and
  ``peer_suspected(pid)`` reports peers not heard from within
  ``suspicion_timeout``.  The protocol itself never needs this — its
  own :class:`~repro.leader.omega.HeartbeatOmega` runs unmodified over
  this runtime — but servers use it for ops visibility and the bench
  uses it to time failover.
* **Wall-clock time.**  ``now`` is milliseconds since the cluster
  epoch (a config constant), read from ``time.time()`` so all
  processes on one machine — or NTP-disciplined machines — share it;
  the per-process local clock is the identity.  One time unit is one
  millisecond, the simulator's convention, so a
  :class:`~repro.core.config.ChtConfig` means the same thing here.
  Timers map through ``loop.call_at(loop.time() + (fire - now)/1000)``.

Threading contract: everything protocol-facing runs on the event-loop
thread — ``deliver``, timer callbacks, sends.  The runtime can own a
background thread (:meth:`start_background`) for synchronous callers
(the client API, tests); they hop onto the loop via :meth:`call` /
:meth:`build`.  :meth:`close` wakes that thread, which shuts the
runtime down and closes its loop.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Optional

from .runtime import IDENTITY_CLOCK, Runtime, label_rng

__all__ = ["AsyncioRuntime", "Ping", "MAX_FRAME", "HIGH_WATER"]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload (16 MiB).  A corrupt or hostile
#: length prefix must not make the reader allocate unbounded memory.
MAX_FRAME = 16 * 1024 * 1024

#: Socket write-buffer level (bytes) at which a link stops writing
#: frames directly and queues them, its writer task awaits ``drain()``,
#: and a reverse channel drops frames.
HIGH_WATER = 64 * 1024


class Ping:
    """Transport-level heartbeat frame; never delivered to protocols."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return (Ping, ())


_PING = Ping()


class _WallTimer:
    """Timer handle satisfying :class:`~repro.net.runtime.TimerHandle`."""

    __slots__ = ("time", "cancelled", "_handle")

    def __init__(self, fire_time: float) -> None:
        self.time = fire_time
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class _FrameProtocol(asyncio.StreamReaderProtocol):
    """Receive side of one TCP connection.

    Frames are cut out of each ``data_received`` chunk and delivered
    inline, so a frame costs no reader-task wake-up.  Sends go through
    :attr:`writer`, a ``StreamWriter`` over this protocol, whose flow
    control backs ``drain()``.  ``inbound`` marks connections a peer
    dialed to us; their writer becomes that peer's reverse channel, and
    ``src`` is the pid its frames come from.
    """

    def __init__(self, rt: "AsyncioRuntime", inbound: bool) -> None:
        super().__init__(None, loop=rt.loop)
        self.rt = rt
        self.inbound = inbound
        self.src: Optional[int] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        # Bytes of an incomplete frame: chunks so far, their total, and
        # the total the frame (or its length prefix) needs.
        self._chunks: list = []
        self._have = 0
        self._need = _LEN.size

    def connection_made(self, transport: Any) -> None:
        super().connection_made(transport)
        self.writer = asyncio.StreamWriter(transport, self, None,
                                           self.rt.loop)
        self.rt._transports.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        rt = self.rt
        writer = self.writer
        rt._transports.discard(writer.transport)
        src = self.src
        # Forget the dialer unless a reconnect already took its reverse
        # channel over; listed peers keep their last-seen time, which
        # is what ``peer_suspected`` reads.
        if src is not None and rt._inbound.get(src, writer) is writer:
            rt._inbound.pop(src, None)
            if src not in rt.peers:
                rt._last_seen.pop(src, None)
        super().connection_lost(exc)

    def eof_received(self) -> bool:
        return False  # the peer is done: close our side too

    def data_received(self, data: bytes) -> None:
        if self._chunks:
            self._chunks.append(data)
            self._have += len(data)
            if self._have < self._need:
                return
            data = b"".join(self._chunks)
            self._chunks = []
        size = len(data)
        start = 0
        while size - start >= _LEN.size:
            (length,) = _LEN.unpack_from(data, start)
            if length > MAX_FRAME:
                self.rt.counters["net.bad_frame"] += 1
                self.writer.transport.close()
                return
            end = start + _LEN.size + length
            if end > size:
                self._need = _LEN.size + length
                break
            self.rt._on_frame(self, data[start + _LEN.size:end])
            start = end
        else:
            self._need = _LEN.size
        if start < size:
            self._chunks = [data[start:]]
            self._have = size - start


class _PeerLink:
    """One outbound connection: direct writes, bounded queue, writer
    task, redial loop."""

    def __init__(self, rt: "AsyncioRuntime", pid: int, host: str,
                 port: int) -> None:
        self.rt = rt
        self.pid = pid
        self.host = host
        self.port = port
        self.queue: deque = deque()
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        # The connected writer, or None while dialing.
        self.writer: Optional[asyncio.StreamWriter] = None

    def start(self) -> None:
        if self.task is None:
            self.task = self.rt.loop.create_task(self._run())

    def enqueue(self, frame: bytes) -> None:
        writer = self.writer
        if writer is not None and not self.queue:
            transport = writer.transport
            if (not transport.is_closing()
                    and transport.get_write_buffer_size() < HIGH_WATER):
                writer.write(frame)
                return
        if len(self.queue) >= self.rt.queue_limit:
            self.queue.popleft()
            self.rt.counters["net.dropped_overflow"] += 1
        self.queue.append(frame)
        self.wakeup.set()

    async def _run(self) -> None:
        backoff = self.rt.reconnect_min
        while not self.rt.closing:
            try:
                _, proto = await self.rt.loop.create_connection(
                    lambda: _FrameProtocol(self.rt, inbound=False),
                    self.host, self.port)
            except OSError:
                self.rt.counters["net.dial_failed"] += 1
                await asyncio.sleep(
                    backoff * (0.5 + self.rt._transport_rng.random()))
                backoff = min(backoff * 2, self.rt.reconnect_max)
                continue
            backoff = self.rt.reconnect_min
            # The peer replies (and pings) over this same socket; the
            # protocol reads it.
            writer = self.writer = proto.writer
            self.rt.counters["net.connected"] += 1
            try:
                await self._write_loop(writer)
            except (OSError, ConnectionError):
                self.rt.counters["net.conn_lost"] += 1
            finally:
                self.writer = None
                writer.close()

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        transport = writer.transport
        ping_every = self.rt.ping_period
        while not self.rt.closing:
            while self.queue:
                if transport.is_closing():
                    raise ConnectionResetError("link closed")
                writer.write(self.queue.popleft())
                if transport.get_write_buffer_size() >= HIGH_WATER:
                    # Genuine TCP backpressure: a slow peer slows this
                    # writer (and sends new frames to the queue), not
                    # the event loop.
                    await writer.drain()
            self.wakeup.clear()
            if self.queue:
                continue
            try:
                await asyncio.wait_for(self.wakeup.wait(), timeout=ping_every)
            except asyncio.TimeoutError:
                # The ping's drain() is also how an idle link notices
                # that its connection is gone.
                writer.write(self.rt._ping_frame)
                await writer.drain()


class AsyncioRuntime(Runtime):
    """Runtime over asyncio TCP.  See the module docstring."""

    def __init__(
        self,
        pid: int,
        peers: Dict[int, tuple],
        listen: Optional[tuple] = None,
        epoch: float = 0.0,
        seed: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        ping_period: float = 0.25,
        suspicion_timeout: float = 1.0,
        reconnect_min: float = 0.05,
        reconnect_max: float = 1.0,
        queue_limit: int = 4096,
        broadcast_pids: Optional[list] = None,
    ) -> None:
        self.pid = pid
        # pid -> (host, port) for every *listening* peer (replicas and
        # leaseholders).  Clients are not in the map: they dial in and
        # receive replies over their inbound socket.
        self.peers = dict(peers)
        self.listen = listen
        self.epoch = epoch
        self.seed = seed
        self.ping_period = ping_period
        self.suspicion_timeout = suspicion_timeout
        self.reconnect_min = reconnect_min
        self.reconnect_max = reconnect_max
        self.queue_limit = queue_limit
        # Broadcast set: protocol-visible fan-out targets (all replicas
        # and leaseholders).  Matches the simulator's Network.broadcast
        # minus the clients, which only ever receive directed replies.
        self.broadcast_pids = (
            sorted(broadcast_pids) if broadcast_pids is not None
            else sorted(self.peers)
        )
        self.obs: Optional[Any] = None
        self.time_unit = "wall-ms"
        self.closing = False
        self.counters: Dict[str, int] = {
            "net.sent": 0, "net.delivered": 0, "net.dropped_overflow": 0,
            "net.dropped_unroutable": 0, "net.dial_failed": 0,
            "net.connected": 0, "net.conn_lost": 0, "net.bad_frame": 0,
        }
        self.events_processed = 0  # delivered messages + fired timers
        self._processes: Dict[int, Any] = {}
        self._links: Dict[int, _PeerLink] = {}
        # Reverse channels: writer per peer that dialed *us* (clients,
        # and any listed peer whose inbound socket arrived first).
        self._inbound: Dict[int, asyncio.StreamWriter] = {}
        self._transports: set = set()  # every open connection
        self._last_seen: Dict[int, float] = {}
        self._ping_frame = self._encode(pid, -1, _PING)
        self._fork_counts: Dict[str, int] = {}
        self._transport_rng = label_rng(seed, f"transport-{pid}")
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._loop_ready = threading.Event()
        self._wake: Optional[asyncio.Event] = None  # set by close()
        self.loop = loop  # set in start()/start_background() if None

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock milliseconds since the cluster epoch."""
        return (time.time() - self.epoch) * 1000.0

    def local_clock(self, pid: int):
        return IDENTITY_CLOCK

    def real_for_local(self, pid: int, local: float) -> float:
        return local

    def attach_obs(self, obs: Any) -> None:
        """ObsContext clock-source hook (mirrors ``Simulator.attach_obs``)."""
        self.obs = obs

    def fork_rng(self, label: str, site: Optional[str] = None) -> random.Random:
        # Same semantics as Simulator.fork_rng: the k-th call for a
        # label yields stream (seed, label, k) — repeated forks are
        # independent, and an identically-seeded runtime making the
        # same calls reproduces the same streams.
        key = label if site is None else f"{site}/{label}"
        k = self._fork_counts.get(key, 0)
        self._fork_counts[key] = k + 1
        return label_rng(self.seed, key, k)

    def register(self, process: Any) -> None:
        self._processes[process.pid] = process

    def send(self, src: int, dst: int, msg: Any) -> None:
        if dst == src:
            raise ValueError(f"process {src} tried to message itself")
        self.counters["net.sent"] += 1
        local = self._processes.get(dst)
        if local is not None:
            # Same-runtime shortcut (e.g. several client sessions in one
            # process); scheduled, not inline, to preserve the
            # no-reentrant-delivery contract.
            self.loop.call_soon(self._deliver_local, src, dst, msg)
            return
        frame = self._encode(src, dst, msg)
        link = self._links.get(dst)
        if link is not None:
            link.enqueue(frame)
            return
        writer = self._inbound.get(dst)
        if writer is not None:
            self._write_inbound(dst, writer, frame)
            return
        self.counters["net.dropped_unroutable"] += 1

    def broadcast(self, src: int, msg: Any) -> None:
        for dst in self.broadcast_pids:
            if dst != src:
                self.send(src, dst, msg)

    def schedule_at(self, fire_time: float, callback: Callable[..., Any],
                    *args: Any) -> _WallTimer:
        timer = _WallTimer(fire_time)
        delay_s = max(fire_time - self.now, 0.0) / 1000.0

        def fire() -> None:
            if not timer.cancelled and not self.closing:
                self.events_processed += 1
                callback(*args)

        timer._handle = self.loop.call_at(self.loop.time() + delay_s, fire)
        return timer

    # ------------------------------------------------------------------
    # Failure suspicion
    # ------------------------------------------------------------------
    def peer_suspected(self, pid: int) -> bool:
        """True when ``pid`` has not been heard from for a suspicion
        timeout.  Transport-level suspicion for ops/benchmarks; the
        protocol's own Omega does not use it."""
        last = self._last_seen.get(pid)
        if last is None:
            return True
        return time.monotonic() - last > self.suspicion_timeout

    def peers_alive(self) -> list:
        return [p for p in self.peers if not self.peer_suspected(p)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start on the current event loop: listener + peer links."""
        if self.loop is None:
            self.loop = asyncio.get_running_loop()
        if self.listen is not None:
            host, port = self.listen
            self._server = await self.loop.create_server(
                lambda: _FrameProtocol(self, inbound=True), host, port)
        for pid, (host, port) in self.peers.items():
            if pid == self.pid:
                continue
            link = _PeerLink(self, pid, host, port)
            self._links[pid] = link
            link.start()

    def start_background(self) -> None:
        """Run the loop on a daemon thread (synchronous callers)."""
        if self._thread is not None:
            return
        self.loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self._background_main())
            finally:
                asyncio.set_event_loop(None)
                self.loop.close()

        self._thread = threading.Thread(
            target=run, name=f"asyncio-rt-{self.pid}", daemon=True)
        self._thread.start()
        self._loop_ready.wait()

    async def _background_main(self) -> None:
        self._wake = asyncio.Event()
        try:
            await self.start()
        finally:
            self._loop_ready.set()
        await self._wake.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop the listener, cancel link tasks, drop connections."""
        self.closing = True
        if self._server is not None:
            self._server.close()
            # An accept hand-shake task that has not started yet holds a
            # bare socket that cancelling it would leak; let it start.
            await asyncio.sleep(0)
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks(self.loop) if t is not current]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # Unsent bytes are lost either way; abort() does not wait for
        # a peer that stopped reading.  One loop pass closes the sockets.
        for transport in list(self._transports):
            transport.abort()
        await asyncio.sleep(0)

    def call(self, fn: Callable[[], Any], timeout: float = 30.0) -> Any:
        """Run ``fn()`` on the loop thread and return its result."""
        done = threading.Event()
        box: list = [None, None]

        def run() -> None:
            try:
                box[0] = fn()
            except BaseException as exc:  # propagated to the caller
                box[1] = exc
            done.set()

        self.loop.call_soon_threadsafe(run)
        if not done.wait(timeout):
            raise TimeoutError("loop call timed out")
        if box[1] is not None:
            raise box[1]
        return box[0]

    def build(self, factory: Callable[[], Any]) -> Any:
        """Construct a protocol object on the loop thread (processes
        must only ever be touched from there)."""
        return self.call(factory)

    def close(self) -> None:
        """Stop the runtime; with a background thread, wake it so it
        shuts down and closes its loop, and wait for it."""
        self.closing = True
        if self._thread is not None:
            try:
                self.loop.call_soon_threadsafe(self._wake.set)
            except RuntimeError:  # the loop is already closed
                pass
            self._thread.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _encode(self, src: int, dst: int, msg: Any) -> bytes:
        payload = pickle.dumps((src, dst, msg),
                               protocol=pickle.HIGHEST_PROTOCOL)
        return _LEN.pack(len(payload)) + payload

    def _on_frame(self, proto: _FrameProtocol, payload: bytes) -> None:
        if self.closing:
            return
        try:
            src, dst, msg = pickle.loads(payload)
        except Exception:
            self.counters["net.bad_frame"] += 1
            return
        self._last_seen[src] = time.monotonic()
        if proto.inbound:
            # Remember the reverse channel; replies to a dialing-only
            # peer (a client) go back this way.
            self._inbound[src] = proto.writer
            proto.src = src
        if msg.__class__ is Ping:
            return
        self._deliver_local(src, dst, msg)

    def _write_inbound(self, dst: int, writer: asyncio.StreamWriter,
                       frame: bytes) -> None:
        transport = writer.transport
        if transport.is_closing():
            self._inbound.pop(dst, None)
            self.counters["net.dropped_unroutable"] += 1
            return
        if transport.get_write_buffer_size() >= HIGH_WATER:
            # A peer that stops reading must not grow this process's
            # buffer without bound; its session retransmits.
            self.counters["net.dropped_overflow"] += 1
            return
        try:
            writer.write(frame)
        except (ConnectionError, OSError, RuntimeError):
            self._inbound.pop(dst, None)
            self.counters["net.dropped_unroutable"] += 1

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_local(self, src: int, dst: int, msg: Any) -> None:
        process = self._processes.get(dst)
        if process is None:
            self.counters["net.dropped_unroutable"] += 1
            return
        self.counters["net.delivered"] += 1
        self.events_processed += 1
        try:
            process.deliver(src, msg)
        except Exception:  # a protocol bug must not kill the transport
            import traceback
            traceback.print_exc()
