"""The runtime-abstraction seam: one protocol code base, many substrates.

Every protocol class in this repository (:class:`~repro.core.replica
.ChtReplica`, :class:`~repro.core.leaseholder.Leaseholder`, the
:class:`~repro.leader.enhanced.EnhancedLeaderService`, client sessions)
is written against the :class:`~repro.sim.process.Process` surface:
``send`` / ``broadcast``, local-time timers, ``local_time``, a forked
RNG, and an optional observability context.  This module narrows that
dependency to an explicit :class:`Runtime` interface so the *same*
protocol classes run on two substrates:

* :class:`SimRuntime` — the discrete-event simulator.  A thin delegate
  over ``(Simulator, Network, ClockModel)``: scheduling order, RNG fork
  labels, and clock arithmetic are exactly the pre-seam code paths, so
  simulated runs are byte-identical to the pre-refactor engine (pinned
  by the determinism suites).  The simulator remains the verification
  oracle: chaos and linearizability checking drive this runtime.
* :class:`~repro.net.asyncio_rt.AsyncioRuntime` — real TCP sockets
  between OS processes, wall-clock timers, and heartbeat-based failure
  suspicion.  This is the production path; see docs/NETWORK.md.

Time convention: one time unit is one millisecond on both substrates
(simulated ms in the simulator, wall-clock ms for real runs), so one
:class:`~repro.core.config.ChtConfig` means the same thing everywhere.

The interface is deliberately small:

``now``
    The substrate's *real* time (simulated real time, or wall time).
    Used for stats/observability timestamps; protocol decisions use
    per-process local clocks.
``local_clock(pid)`` / ``real_for_local(pid, local)``
    The process's local clock: possibly skewed/drifting in the
    simulator (the paper's epsilon), identity on a real machine whose
    processes share one wall clock.
``send`` / ``broadcast``
    Fire-and-forget message passing.  Delivery calls
    ``process.deliver(src, msg)`` on the registered destination; both
    substrates guarantee FIFO per ordered pair and may drop messages
    (pre-GST loss in the simulator, disconnects/backpressure on TCP) —
    every protocol loop already retransmits.
``schedule_at(real_time, callback, *args)``
    A cancellable timer at an absolute ``now``-scale time.
``fork_rng(label, site=None)``
    A deterministic, labelled RNG stream (seeded from the config seed
    on both substrates).
``register(process)``
    Join the runtime; from then on the runtime routes ``deliver`` calls
    and the process may send.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Any, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.clocks import ClockModel
    from ..sim.core import Simulator
    from ..sim.network import Network
    from ..sim.process import Process

__all__ = ["TimerHandle", "LocalClock", "Runtime", "SimRuntime", "label_rng"]


@runtime_checkable
class TimerHandle(Protocol):
    """Handle to a scheduled timer: ``time``, ``cancelled``, ``cancel()``.

    The simulator's :class:`~repro.sim.core.Event` satisfies this
    protocol natively; the asyncio runtime wraps ``loop.call_later``.
    """

    time: float
    cancelled: bool

    def cancel(self) -> None: ...


@runtime_checkable
class LocalClock(Protocol):
    """A process-local clock: maps substrate real time to local time."""

    def local(self, real: float) -> float: ...


class _IdentityClock:
    """Local clock of a process on a real machine: local == real.

    Real deployments on one host share the machine clock, so the skew
    the paper bounds by epsilon is (approximately) zero; across hosts,
    NTP keeps it within a few milliseconds and the deployment's
    ``epsilon`` must be configured to cover it.
    """

    __slots__ = ()

    def local(self, real: float) -> float:
        return real


IDENTITY_CLOCK = _IdentityClock()


def label_rng(seed: int, label: str, k: int = 0) -> random.Random:
    """The repository's deterministic labelled-stream derivation.

    Shared by both runtimes: a stream is a pure function of
    ``(seed, label, k)`` (see :meth:`Simulator.fork_rng`), so protocol
    components draw identically distributed, independent randomness no
    matter which substrate hosts them.
    """
    digest = hashlib.sha256(f"{seed}\x1f{label}\x1f{k}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


class Runtime:
    """Abstract substrate interface (see the module docstring).

    Concrete runtimes subclass this and implement every method; the
    base exists for documentation, ``isinstance`` checks, and the
    shared ``obs`` contract (``None`` unless an
    :class:`~repro.obs.spans.ObsContext` is attached before processes
    are built).
    """

    #: Observability context, or None.  Processes cache this once at
    #: construction, so attach before building them.
    obs: Optional[Any] = None

    @property
    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def local_clock(self, pid: int) -> LocalClock:  # pragma: no cover
        raise NotImplementedError

    def real_for_local(self, pid: int, local: float) -> float:  # pragma: no cover
        raise NotImplementedError

    def send(self, src: int, dst: int, msg: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def broadcast(self, src: int, msg: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def schedule_at(self, time: float, callback: Any,
                    *args: Any) -> TimerHandle:  # pragma: no cover
        raise NotImplementedError

    def fork_rng(self, label: str,
                 site: Optional[str] = None) -> random.Random:  # pragma: no cover
        raise NotImplementedError

    def register(self, process: "Process") -> None:  # pragma: no cover
        raise NotImplementedError


class SimRuntime(Runtime):
    """The simulator as a :class:`Runtime`.

    Pure delegation — every call lands on the exact pre-seam code path
    (``Simulator.schedule_at``, ``Network.send``/``broadcast``,
    ``ClockModel`` arithmetic, ``Simulator.fork_rng`` with unchanged
    labels), which is what keeps simulated traces byte-identical to the
    pre-refactor engine.  One instance wraps one ``(sim, net, clocks)``
    triple; processes of one cluster may share it or construct their
    own — the wrapper holds no state of its own.
    """

    __slots__ = ("sim", "net", "clocks")

    def __init__(self, sim: "Simulator", net: "Network",
                 clocks: "ClockModel") -> None:
        self.sim = sim
        self.net = net
        self.clocks = clocks

    @property
    def obs(self) -> Optional[Any]:
        # Live view: ObsContext attaches itself to the simulator, which
        # may happen after this wrapper was built.
        return self.sim.obs

    @property
    def now(self) -> float:
        return self.sim.now

    def local_clock(self, pid: int) -> LocalClock:
        return self.clocks[pid]

    def real_for_local(self, pid: int, local: float) -> float:
        return self.clocks.real(pid, local)

    def send(self, src: int, dst: int, msg: Any) -> None:
        self.net.send(src, dst, msg)

    def broadcast(self, src: int, msg: Any) -> None:
        self.net.broadcast(src, msg)

    def schedule_at(self, time: float, callback: Any, *args: Any):
        return self.sim.schedule_at(time, callback, *args)

    def fork_rng(self, label: str, site: Optional[str] = None) -> random.Random:
        return self.sim.fork_rng(label, site=site)

    def register(self, process: "Process") -> None:
        self.net.register(process)
