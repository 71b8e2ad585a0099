"""Tests for FIFO links: the network's FIFO mode and the shard transport."""

from dataclasses import dataclass

from repro.shard.transport import CONTROL_SITE, LocalTransport
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import UniformDelay
from repro.sim.network import Network
from repro.sim.process import Process


@dataclass(frozen=True)
class Seq:
    number: int


class Collector(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.numbers = []

    def on_message(self, src, msg):
        self.numbers.append(msg.number)


def build(fifo):
    sim = Simulator(seed=9)
    clocks = ClockModel(2, epsilon=0.0)
    net = Network(sim, delta=10.0, post_gst_delay=UniformDelay(1.0, 10.0),
                  fifo=fifo)
    procs = [Collector(pid, sim, net, clocks) for pid in range(2)]
    return sim, net, procs


def test_fifo_preserves_send_order():
    sim, net, procs = build(fifo=True)
    for i in range(200):
        net.send(0, 1, Seq(i))
        sim.run_for(0.05)
    sim.run()
    assert procs[1].numbers == list(range(200))


def test_non_fifo_can_reorder():
    sim, net, procs = build(fifo=False)
    for i in range(200):
        net.send(0, 1, Seq(i))
        sim.run_for(0.05)
    sim.run()
    assert sorted(procs[1].numbers) == list(range(200))
    assert procs[1].numbers != list(range(200))


def test_fifo_clamp_respects_delta_bound():
    sim, net, procs = build(fifo=True)
    send_times = {}
    for i in range(100):
        send_times[i] = sim.now
        net.send(0, 1, Seq(i))
        sim.run_for(0.2)
    sim.run()
    # With send gaps of 0.2 and delays up to 10, clamping happens often;
    # every delivery still respects its own delta bound because the
    # earlier message's deadline was earlier.
    assert len(procs[1].numbers) == 100


def test_fifo_is_per_directed_pair():
    sim, net, procs = build(fifo=True)
    # Interleave two directions; each direction is independently FIFO.
    for i in range(50):
        net.send(0, 1, Seq(i))
        net.send(1, 0, Seq(1000 + i))
        sim.run_for(0.05)
    sim.run()
    assert procs[1].numbers == list(range(50))
    assert procs[0].numbers == [1000 + i for i in range(50)]


def test_shard_transport_is_fifo_per_site_pair_under_jitter():
    # Draws from [1, 10] against sends 0.05 apart would reorder freely;
    # the endpoint's clamp keeps each (src, dst) pair in send order, and
    # clamped envelopes sharing an instant keep it too (front-of-time
    # events are FIFO).
    sim = Simulator(seed=9)
    transport = LocalTransport(sim, UniformDelay(1.0, 10.0))
    seen = {"g0": [], "g1": []}
    control = transport.endpoint(CONTROL_SITE, lambda payload: None)
    for site, log in seen.items():
        transport.endpoint(
            site, lambda payload, log=log: log.append((sim.now, payload))
        )
    for i in range(200):
        control.send("g0", i)
        control.send("g1", i)
        sim.run_for(0.05)
    sim.run()
    for log in seen.values():
        assert [payload for _, payload in log] == list(range(200))
        assert len({when for when, _ in log}) < 200  # the clamp did fire
