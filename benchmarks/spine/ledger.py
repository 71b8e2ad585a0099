"""Where the time of a traced net run goes: merge the per-process event
lists (see :mod:`tracing`) and derive the per-layer metrics.

For every write acked inside the measured windows, five segments tile
the generator's submit → resolve interval exactly::

    submit ─ net.client_to_leader ─▶ ClientRequest delivered at the leader
           ─ core.queue_wait      ─▶ first Prepare carrying the op is sent
           ─ core.quorum_round    ─▶ the delivery that completes the
                                     majority *and* the leaseholder acks
           ─ core.commit_to_reply ─▶ ClientReply is sent
           ─ net.reply_hop        ─▶ resolve

The leader sends the reply while it handles the ack that completed the
round, so that ``deliver`` span is the reply's parent and its start is
the quorum instant.  Each segment is reported as a median; the medians'
sum is checked against the median of the whole
(``trace.tiling_residual_frac``).
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any, Optional

from common import Result, median

TILING = ("net.client_to_leader_us", "core.queue_wait_us",
          "core.quorum_round_us", "core.commit_to_reply_us",
          "net.reply_hop_us")
TILING_TOLERANCE = 0.10
SERVER_CLASSES = ("ChtReplica", "Leaseholder")


def _categories() -> dict:
    """Message type name -> the accounting category the program gives it."""
    import repro.core.messages as messages
    from repro.leader.enhanced import LeaderLease
    from repro.leader.omega import Heartbeat

    classes = [getattr(messages, name) for name in messages.__all__]
    return {cls.__name__: cls.category
            for cls in classes + [LeaderLease, Heartbeat]
            if hasattr(cls, "category")}


class _ServerIndex:
    """One server's events, keyed for the per-op lookups."""

    def __init__(self, events: list) -> None:
        self.request: dict = {}    # (client, seq) -> (t0, span) delivered
        self.reply: dict = {}      # (client, seq) -> (t0, parent) sent
        self.prepare: dict = {}    # op id -> t0 of first Prepare sent
        self.span_start: dict = {}
        self.prepare_in: dict = {}   # (t, j) -> t0 Prepare delivered
        self.ack_out: dict = {}      # (t, j) -> t0 PrepareAck sent
        self.batch_sizes: dict = {}  # j -> ops in the Commit sent
        for ev in events:
            kind = ev[0]
            if kind == "d":
                _, t0, _, _, _, mtype, key, span, _ = ev
                self.span_start[span] = t0
                if mtype == "ClientRequest":
                    self.request.setdefault(key[:2], (t0, span))
                elif mtype == "Prepare":
                    self.prepare_in.setdefault(key[:2], t0)
            elif kind == "s":
                _, t0, _, _, _, mtype, key, parent = ev
                if mtype == "ClientReply":
                    self.reply.setdefault(key, (t0, parent))
                elif mtype == "Prepare":
                    for op_id in key[2]:
                        self.prepare.setdefault(op_id, t0)
                elif mtype == "PrepareAck":
                    self.ack_out.setdefault(key, t0)
                elif mtype == "Commit":
                    self.batch_sizes.setdefault(key[0], len(key[1]))


def _ops_by_client(client_events: list, meas: Any, pids: list) -> dict:
    """(client, seq) -> (submit_ns, resolve_ns, kind) for every op the
    generator logged.  Worker ``i`` drives handle ``pids[i]`` alone, so
    its k-th call carries the session's k-th sequence number counted
    from the first request sent inside the worker's first call."""
    first_send: dict = defaultdict(dict)
    for ev in client_events:
        if ev[0] == "s" and ev[5] == "ClientRequest":
            client, seq, _ = ev[6]
            first_send[client].setdefault(seq, ev[1])
    ops = {}
    for worker, client in zip(meas.workers, pids):
        if not worker.log:
            continue
        sends = first_send[client]
        seqs = sorted(seq for seq, t in sends.items()
                      if t >= worker.log[0][0])
        for (t0, t1, kind), seq in zip(worker.log, seqs):
            ops[(client, seq)] = (t0, t1, kind)
    return ops


def net_layers(result: Result, server_events: list, client_events: list,
               meas: Any, pids: list, counters: list) -> None:
    lo, hi = meas.bounds[0], meas.bounds[-1]
    servers = [_ServerIndex(events) for events in server_events]
    ops = {op: v for op, v in _ops_by_client(client_events, meas, pids).items()
           if lo <= v[1] < hi}
    acked = len(ops)
    if not acked:
        result.error("traced run: no op could be matched to its trace")
        return

    # -- the write tiling and the read path --------------------------------
    segments: dict = defaultdict(list)
    whole, read_serve, read_blocked, reads = [], [], 0, 0
    for op, (submit, resolve, kind) in ops.items():
        server = next((s for s in servers if op in s.reply), None)
        if server is None or op not in server.request:
            continue  # answered from a retransmission's reply cache
        delivered, span = server.request[op]
        replied, parent = server.reply[op]
        if kind == "read":
            reads += 1
            read_serve.append((replied - delivered) / 1e3)
            read_blocked += parent != span
            continue
        proposed = server.prepare.get(op)
        if proposed is None:
            continue
        quorum = server.span_start.get(parent, replied)
        if not proposed <= quorum <= replied:
            quorum = replied
        marks = (submit, delivered, proposed, quorum, replied, resolve)
        if list(marks) != sorted(marks):
            continue  # a retransmission reordered the op's events
        for name, a, b in zip(TILING, marks, marks[1:]):
            segments[name].append((b - a) / 1e3)
        whole.append((resolve - submit) / 1e3)
    if whole:
        for name in TILING:
            result.put(name, median(segments[name]), n=len(whole))
        total = sum(median(segments[name]) for name in TILING)
        residual = abs(total - median(whole)) / median(whole)
        result.put("trace.tiling_residual_frac", residual, n=len(whole))
        if residual > TILING_TOLERANCE:
            result.error(
                f"write tiling sums to {total:.0f} us against a traced "
                f"median of {median(whole):.0f} us "
                f"(residual {residual:.1%} > {TILING_TOLERANCE:.0%})")
    elif any(kind == "write" for _, _, kind in ops.values()):
        result.error("traced run: no write could be tiled")
    if reads:
        result.put("core.read_serve_us", median(read_serve), n=reads)
        result.put("core.read_blocked_frac", read_blocked / reads, n=reads)

    # -- counts and busy time inside the measured windows ------------------
    category = _categories()
    sent = Counter()           # category -> messages
    send_ns = handler = leader_handler = client_handler = 0
    n_handler = n_leader = n_client = 0
    writes = drains = nbytes = 0
    syncs, sync_bytes, appends, append_ns = [], 0, 0, 0
    hops_out: dict = {}
    hops: list = []
    requests = Counter()       # (client, seq) -> ClientRequest sends
    streams = server_events + [client_events]
    for events in streams:
        for ev in events:
            kind, t0 = ev[0], ev[1]
            if not lo <= t0 < hi:
                continue
            if kind == "s":
                _, _, dur, src, dst, mtype, key, _ = ev
                sent[category.get(mtype, "other")] += 1
                send_ns += dur
                if key is not None:
                    hops_out.setdefault((src, dst, mtype, key), t0)
                if mtype == "ClientRequest" and events is client_events:
                    requests[key[:2]] += 1
            elif kind == "d":
                _, _, dur, _, _, mtype, _, _, cls = ev
                if cls in SERVER_CLASSES:
                    handler += dur
                    n_handler += 1
                    if category.get(mtype) == "leader-election":
                        leader_handler += dur
                        n_leader += 1
                else:
                    client_handler += dur
                    n_client += 1
            elif kind == "w":
                writes += 1
                nbytes += ev[2]
            elif kind == "r":
                drains += 1
            elif kind == "a":
                appends += 1
                append_ns += ev[2]
            elif kind == "sync":
                syncs.append(ev[2] / 1e3)
                sync_bytes += ev[3]
    for events in streams:
        for ev in events:
            if ev[0] == "d" and ev[6] is not None:
                out = hops_out.get((ev[3], ev[4], ev[5], ev[6]))
                if out is not None and ev[1] >= out:
                    hops.append((ev[1] - out) / 1e3)
                    # A retransmitted copy must not match the first send.
                    del hops_out[(ev[3], ev[4], ev[5], ev[6])]

    messages = sum(sent.values())
    put = result.put
    put("net.msgs_per_op", messages / acked, n=messages)
    put("net.send_self_us_per_msg", send_ns / 1e3 / max(messages, 1),
        n=messages)
    put("net.hop_us_p50", median(hops), n=len(hops))
    put("net.bytes_per_op", nbytes / acked, n=writes)
    put("net.socket_writes_per_op", writes / acked, n=writes)
    put("net.drains_per_op", drains / acked, n=drains)
    put("net.client_retransmits_per_op",
        (sum(requests.values()) - len(requests)) / acked, n=len(requests))
    put("net.dropped_frames", sum(
        c.get("net.dropped_overflow", 0) + c.get("net.dropped_unroutable", 0)
        + c.get("net.bad_frame", 0) for c in counters))
    put("core.consensus_msgs_per_op", sent["consensus"] / acked,
        n=sent["consensus"])
    put("core.lease_msgs_per_op", sent["lease"] / acked, n=sent["lease"])
    put("core.client_msgs_per_op", sent["client"] / acked, n=sent["client"])
    put("leader.msgs_per_s", sent["leader-election"] / ((hi - lo) / 1e9),
        n=sent["leader-election"])
    put("core.replica_handler_us_per_msg",
        handler / 1e3 / max(n_handler, 1), n=n_handler)
    put("leader.handler_us_per_msg",
        leader_handler / 1e3 / max(n_leader, 1), n=n_leader)
    put("core.client_handler_us_per_msg",
        client_handler / 1e3 / max(n_client, 1), n=n_client)
    batches = [size for s in servers for size in s.batch_sizes.values()]
    if batches:
        put("core.ops_per_batch", sum(batches) / len(batches),
            n=len(batches))
    prepare = [(s.ack_out[key] - t0) / 1e3
               for s in servers for key, t0 in s.prepare_in.items()
               if key in s.ack_out and lo <= t0 < hi]
    put("core.acceptor_prepare_us", median(prepare), n=len(prepare))
    put("durable.syncs_per_op", len(syncs) / acked, n=len(syncs))
    put("durable.sync_us_p50", median(syncs), n=len(syncs))
    put("durable.wal_bytes_per_op", sync_bytes / acked, n=len(syncs))
    put("durable.wal_records_per_op", appends / acked, n=appends)
    put("durable.append_us_per_record", append_ns / 1e3 / max(appends, 1),
        n=appends)


def recovery_cost(result: Result, storage_dir: Optional[Any],
                  object_name: str) -> None:
    """Time a cold ``recover`` of one replica's directory (snapshot plus
    the WAL tail since the last checkpoint) as a restarted server would
    perform it; ``n`` is the number of WAL records replayed."""
    from repro.durable import FileStorage, ReplicaDurability
    from repro.net.config import make_object_spec

    storage = FileStorage(str(storage_dir))
    records = len(storage.load()[1])
    t0 = time.perf_counter()
    ReplicaDurability(storage).recover(make_object_spec(object_name))
    result.put("durable.recover_ms", (time.perf_counter() - t0) * 1e3,
               n=records)
