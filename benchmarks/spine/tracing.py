"""The traced run's instrumentation, installed from outside the program.

The program under ``src/repro`` is not edited: :func:`install_net` and
:func:`install_sim` replace public methods of its classes with wrappers
that time the call and record what passed through, so every per-layer
time is taken at a layer boundary by the benchmark's own code.  The
wrappers stay for the life of the (dedicated) benchmark process.

Two recording styles, chosen by event rate:

* **net** — a few thousand messages per second per process.  Each call
  appends one tuple to ``Recorder.events``; spans are kept in memory
  and written when the server gets SIGTERM.  All processes share the
  host's CLOCK_MONOTONIC, so traces merge without offset fitting.

  =========  ==========================================================
  ``"s"``    ``(t0, dur, src, dst, type, key, parent)`` — a
             ``Runtime.send``; ``parent`` is the id of the ``deliver``
             span it ran inside (0: a timer)
  ``"d"``    ``(t0, dur, src, dst, type, key, span_id, process_class)``
             — a ``Process.deliver``
  ``"w"``    ``(t0, nbytes)`` — a ``StreamWriter.write``
  ``"r"``    ``(t0,)`` — a ``StreamWriter.drain``
  ``"a"``    ``(t0, dur)`` — a WAL record append
  ``"sync"`` ``(t0, dur, nbytes)`` — a ``ReplicaDurability.sync``
             (with ``FileStorage`` the fsync happens inside the call)
  =========  ==========================================================

  ``key`` identifies an operation ``(client_id, seq)`` or a batch ``j``
  (see :func:`message_key`).

* **sim** — over 100k events per host second.  Wrappers only add to
  ``Recorder.ns`` / ``Recorder.calls`` under a name.

Parent ids are meaningful in single-loop processes (the servers, the
simulator); the generator hosts one loop thread per client handle and
uses none of them.
"""

from __future__ import annotations

import pickle
import time
from collections import Counter
from typing import Any, Callable

_now = time.monotonic_ns


class Recorder:
    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.sync_ns: list[int] = []
        self.current = 0   # id of the deliver span in progress
        self.spans = 0
        self.runtime: Any = None  # the AsyncioRuntime seen sending

    def add(self, name: str, t0: int) -> None:
        self.ns[name] += _now() - t0
        self.calls[name] += 1

    def us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.ns[name] / calls / 1e3 if calls else 0.0

    def dump(self, path: str) -> None:
        counters = dict(self.runtime.counters) if self.runtime else {}
        with open(path, "wb") as fh:
            pickle.dump({"events": self.events, "counters": counters}, fh,
                        protocol=pickle.HIGHEST_PROTOCOL)


def load_trace(path: str) -> dict:
    # Written by this benchmark's own server wrapper a moment ago.
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _op_ids(ops: Any) -> tuple:
    return tuple(instance.op_id for instance in ops)


_KEYS: dict[str, Callable[[Any], Any]] = {
    "ClientRequest": lambda m: (m.client_id, m.seq, m.op.name),
    "ClientReply": lambda m: (m.client_id, m.seq),
    "Prepare": lambda m: (m.t, m.j, _op_ids(m.ops)),
    "PrepareAck": lambda m: (m.t, m.j),
    "Commit": lambda m: (m.j, _op_ids(m.ops)),
}


def message_key(mtype: str, msg: Any) -> Any:
    """The op id or batch number a message carries; None for the rest
    (heartbeats, leases, estimates)."""
    make = _KEYS.get(mtype)
    return make(msg) if make is not None else None


def _patch(owner: Any, name: str,
           wrap: Callable[[Callable], Callable]) -> None:
    setattr(owner, name, wrap(getattr(owner, name)))


# ----------------------------------------------------------------------
# Shared: the durable layer (FileStorage on net, MemStorage in the sim)
# ----------------------------------------------------------------------
def _install_durable(rec: Recorder, storage_cls: Any,
                     events: bool) -> None:
    from repro.durable import ReplicaDurability

    def wrap_append(orig: Callable) -> Callable:
        def append(self: Any, record: Any) -> None:
            t0 = _now()
            orig(self, record)
            if events:
                rec.events.append(("a", t0, _now() - t0))
            else:
                rec.add("durable.append", t0)
        return append

    def wrap_sync(orig: Callable) -> Callable:
        def sync(self: Any, on_done: Callable[[], None]) -> None:
            before = self.storage.wal_bytes()
            t0 = _now()
            orig(self, on_done)
            dur = _now() - t0
            if events:
                rec.events.append(
                    ("sync", t0, dur, self.storage.wal_bytes() - before))
            else:
                rec.ns["durable.sync"] += dur
                rec.calls["durable.sync"] += 1
                rec.sync_ns.append(dur)
        return sync

    _patch(storage_cls, "append", wrap_append)
    _patch(ReplicaDurability, "sync", wrap_sync)


# ----------------------------------------------------------------------
# Net: servers (via traced_server.py) and the generator's client handles
# ----------------------------------------------------------------------
def install_net(rec: Recorder) -> None:
    import asyncio

    from repro.durable import FileStorage
    from repro.net.asyncio_rt import AsyncioRuntime
    from repro.sim.process import Process

    events = rec.events

    def wrap_send(orig: Callable) -> Callable:
        def send(self: Any, src: int, dst: int, msg: Any) -> None:
            if rec.runtime is None:
                rec.runtime = self
            t0 = _now()
            orig(self, src, dst, msg)
            mtype = type(msg).__name__
            events.append(("s", t0, _now() - t0, src, dst, mtype,
                           message_key(mtype, msg), rec.current))
        return send

    def wrap_deliver(orig: Callable) -> Callable:
        def deliver(self: Any, src: int, msg: Any) -> None:
            rec.spans += 1
            span = rec.spans
            outer, rec.current = rec.current, span
            t0 = _now()
            try:
                orig(self, src, msg)
            finally:
                rec.current = outer
                mtype = type(msg).__name__
                events.append(("d", t0, _now() - t0, src, self.pid, mtype,
                               message_key(mtype, msg), span,
                               type(self).__name__))
        return deliver

    def wrap_write(orig: Callable) -> Callable:
        def write(self: Any, data: bytes) -> None:
            events.append(("w", _now(), len(data)))
            orig(self, data)
        return write

    def wrap_drain(orig: Callable) -> Callable:
        async def drain(self: Any) -> None:
            events.append(("r", _now()))
            await orig(self)
        return drain

    _patch(AsyncioRuntime, "send", wrap_send)
    _patch(Process, "deliver", wrap_deliver)
    _patch(asyncio.StreamWriter, "write", wrap_write)
    _patch(asyncio.StreamWriter, "drain", wrap_drain)
    _install_durable(rec, FileStorage, events=True)


# ----------------------------------------------------------------------
# Sim: in-process accumulators
# ----------------------------------------------------------------------
def install_sim(rec: Recorder) -> None:
    import repro.chaos.nemesis as nemesis
    from repro.chaos import ScheduleGenerator
    from repro.durable import MemStorage
    from repro.objects.kvstore import KVStoreSpec
    from repro.shard.router import Router
    from repro.sim.core import Simulator
    from repro.sim.network import Network
    from repro.sim.process import Process

    add = rec.add

    def timed(name: str) -> Callable[[Callable], Callable]:
        def wrap(orig: Callable) -> Callable:
            def call(*args: Any, **kwargs: Any) -> Any:
                t0 = _now()
                try:
                    return orig(*args, **kwargs)
                finally:
                    add(name, t0)
            return call
        return wrap

    # Every heap entry's callback runs through one trampoline, so
    # "sim.callbacks" is the time inside event callbacks and the loop's
    # self time is Simulator.run's wall time minus it.
    def trampoline(callback: Callable, *args: Any) -> None:
        t0 = _now()
        try:
            callback(*args)
        finally:
            add("sim.callbacks", t0)

    def wrap_schedule(orig: Callable) -> Callable:
        def schedule(self: Any, when: float, callback: Callable,
                     *args: Any) -> Any:
            return orig(self, when, trampoline, callback, *args)
        return schedule

    def wrap_schedule_many(orig: Callable) -> Callable:
        def schedule_many(self: Any, items: Any) -> int:
            return orig(self, (
                (delay, lambda cb=cb: trampoline(cb)) for delay, cb in items
            ))
        return schedule_many

    for name in ("schedule_at", "call_at", "call_at_front"):
        _patch(Simulator, name, wrap_schedule)
    _patch(Simulator, "schedule_many", wrap_schedule_many)
    _patch(Simulator, "run", timed("sim.run"))

    # broadcast() fans out through send(), so send alone sees every message.
    def wrap_send(orig: Callable) -> Callable:
        def send(self: Any, src: int, dst: int, msg: Any) -> None:
            t0 = _now()
            try:
                orig(self, src, dst, msg)
            finally:
                add("sim.network_send", t0)
                rec.calls["sent." + getattr(msg, "category", "other")] += 1
        return send

    _patch(Network, "send", wrap_send)

    def wrap_deliver(orig: Callable) -> Callable:
        def deliver(self: Any, src: int, msg: Any) -> None:
            t0 = _now()
            try:
                orig(self, src, msg)
            finally:
                add("deliver." + type(self).__name__, t0)
                if getattr(msg, "category", None) == "leader-election":
                    add("deliver.leader-election", t0)
        return deliver

    _patch(Process, "deliver", wrap_deliver)
    _patch(Router, "submit", timed("shard.router"))
    _patch(ScheduleGenerator, "generate", timed("chaos.generate"))
    _patch(KVStoreSpec, "apply", timed("objects.apply"))
    _install_durable(rec, MemStorage, events=False)

    # NemesisRunner reaches the checker through its own module's name.
    def wrap_check(orig: Callable) -> Callable:
        def check(*args: Any, **kwargs: Any) -> Any:
            t0 = _now()
            result = orig(*args, **kwargs)
            add("verify.check", t0)
            rec.calls["verify.configurations"] += result.configurations
            return result
        return check

    _patch(nemesis, "check_linearizable", wrap_check)
