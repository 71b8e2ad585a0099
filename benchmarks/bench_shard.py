"""Sharding benchmark: write throughput vs the number of CHT groups.

One CHT group commits through a single leader, so its pipeline is the
write-throughput ceiling: with ``max_batch_size`` capping how many
operations one DoOps round carries, a saturated leader commits at most
``cap`` ops per round regardless of client pressure.  Sharding multiplies
pipelines.  This benchmark drives an identical closed-loop workload — 16
writers, one per key slot — at a :class:`~repro.shard.ShardedCluster`
with G ∈ {1, 2, 4, 8} groups and measures committed write throughput in
*simulated* time over a fixed steady-state window (simulated-time
throughput is deterministic for a seed, so the scaling numbers are
noise-free and CI-gateable).

The second half is the handoff soak: ≥60 generated fault schedules, each
with at least one fenced shard handoff racing the faults, verified for
per-group invariants, global linearizability, and cross-shard
exactly-once.  Undecided checker verdicts are reported separately;
real failures fail the benchmark.

Results go to ``BENCH_shard.json`` at the repository root.

Run with ``PYTHONPATH=src python benchmarks/bench_shard.py``
(``--quick`` runs reduced sizes and gates against the committed
BENCH_shard.json baseline without rewriting it).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Generator

from repro.analysis.parallel import default_workers, parallel_imap
from repro.chaos.cli import SoakCell, _soak_cell
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, increment
from repro.shard import ShardedCluster, slot_of
from repro.sim.tasks import Future

from _common import Table, banner

REPO_ROOT = Path(__file__).resolve().parent.parent

NUM_SLOTS = 16
#: Two closed-loop writers per slot: enough pressure that a group's
#: submit queue never drains while replies are in flight, so the batch
#: cap — not client round-trips — is what limits each leader.
NUM_WRITERS = 2 * NUM_SLOTS
#: Commit-pipeline cap: what makes one leader a measurable bottleneck.
BATCH_CAP = 4
GROUP_COUNTS = (1, 2, 4, 8)
#: Full-run acceptance floor: G=4 steady-write throughput vs G=1.
SCALING_TARGET = 2.5
#: Quick-gate floor: simulated-time throughput is deterministic, so the
#: quick speedup should match the committed baseline almost exactly;
#: the slack only covers legitimate small code changes.
QUICK_FLOOR = 0.8


def distinct_slot_keys(num_slots: int) -> list[str]:
    """``num_slots`` keys hashing to ``num_slots`` distinct slots, found
    deterministically — one writer per slot gives every group count in
    ``GROUP_COUNTS`` a perfectly balanced load under the round-robin
    slot assignment."""
    keys: dict[int, str] = {}
    i = 0
    while len(keys) < num_slots:
        key = f"key{i}"
        keys.setdefault(slot_of(key, num_slots), key)
        i += 1
    return [keys[slot] for slot in sorted(keys)]


def _writer(router, key: str, done: list[Future]) -> Generator:
    """A closed-loop writer: submit, await commit, repeat forever."""
    while True:
        future = router.submit(increment(key))
        done.append(future)
        yield future


def steady_write_throughput(
    groups: int, warmup: float, window: float, seed: int = 0
) -> dict:
    """Committed writes per simulated second over the measurement window."""
    config = ChtConfig(n=3, max_batch_size=BATCH_CAP)
    cluster = ShardedCluster(
        KVStoreSpec(),
        config,
        num_groups=groups,
        num_slots=NUM_SLOTS,
        seed=seed,
        num_clients=NUM_WRITERS,
        obs=False,
    ).start()
    cluster.run_until_leaders()
    keys = distinct_slot_keys(NUM_SLOTS)
    completions: list[Future] = []
    routers = [cluster.router(i) for i in range(NUM_WRITERS)]
    for i, router in enumerate(routers):
        key = keys[i % NUM_SLOTS]
        router._host.spawn(
            _writer(router, key, completions), name=f"writer-{i}"
        )
    cluster.run(warmup)
    before = sum(1 for f in completions if f.done)
    cluster.run(window)
    after = sum(1 for f in completions if f.done)
    committed = after - before
    assert committed > 0, f"no writes committed in the window (G={groups})"
    assert all(r.redirects == 0 for r in routers), (
        "steady-state workload saw redirects; shard map is mis-balanced"
    )
    return {
        "groups": groups,
        "writes": committed,
        "throughput_per_sec": committed / window * 1000.0,
    }


def bench_scaling(quick: bool) -> dict:
    warmup, window = (400.0, 1200.0) if quick else (500.0, 3000.0)
    counts = (1, 4) if quick else GROUP_COUNTS
    rows = {g: steady_write_throughput(g, warmup, window) for g in counts}
    base = rows[counts[0]]["throughput_per_sec"]
    return {
        "window_ms": window,
        "throughput_per_sec": {
            str(g): round(r["throughput_per_sec"], 1) for g, r in rows.items()
        },
        "writes": {str(g): r["writes"] for g, r in rows.items()},
        "speedup_vs_g1": {
            str(g): round(rows[g]["throughput_per_sec"] / base, 2)
            for g in counts
        },
    }


def bench_handoff_soak(quick: bool) -> dict:
    """Sharded chaos soak: every schedule carries a mid-run handoff."""
    schedules = 8 if quick else 60
    cells = [SoakCell("sharded", i, n=3) for i in range(schedules)]
    workers = min(default_workers(), schedules)
    t0 = time.perf_counter()
    failures: list[str] = []
    undecided = 0
    ops = 0
    for index, result in enumerate(
        parallel_imap(_soak_cell, cells, workers=workers)
    ):
        ops += result.ops_completed
        if result.ok:
            continue
        if result.kind == "undecided":
            undecided += 1
            continue
        failures.append(f"schedule {index}: {result.kind}: {result.detail}")
    elapsed = time.perf_counter() - t0
    return {
        "schedules": schedules,
        "groups": 2,
        "handoffs_per_schedule": 1,
        "client_ops": ops,
        "failures": failures,
        "undecided": undecided,
        "wall_seconds": round(elapsed, 1),
        "workers": workers,
    }


def run(quick: bool = False) -> dict:
    scaling = bench_scaling(quick)
    soak = bench_handoff_soak(quick)
    result = {
        "quick": quick,
        "workload": {
            "scaling": f"{NUM_WRITERS} closed-loop writers (two per slot), "
                       f"n=3 groups, max_batch_size={BATCH_CAP}, "
                       f"simulated-time throughput over "
                       f"{scaling['window_ms']:.0f} ms",
            "soak": f"{soak['schedules']} generated fault schedules x "
                    f"{soak['groups']} groups, "
                    f"{soak['handoffs_per_schedule']} fenced handoff each",
        },
        "scaling": scaling,
        "soak": soak,
    }
    if not quick:
        q = bench_scaling(quick=True)
        result["speedup_quick_baseline"] = q["speedup_vs_g1"]
    return result


def emit(result: dict) -> None:
    mode = "quick" if result["quick"] else "full"
    print(banner(f"shard scaling: write throughput vs group count ({mode})"))
    scaling = result["scaling"]
    table = Table(["groups", "writes", "throughput/s (sim)", "vs G=1"])
    for g in sorted(scaling["throughput_per_sec"], key=int):
        table.add_row(
            g,
            scaling["writes"][g],
            scaling["throughput_per_sec"][g],
            f'{scaling["speedup_vs_g1"][g]:.2f}x',
        )
    print(table.render())
    soak = result["soak"]
    print(
        f"\nhandoff soak: {soak['schedules']} schedules, "
        f"{soak['client_ops']} routed ops, "
        f"{len(soak['failures'])} failures, {soak['undecided']} undecided "
        f"({soak['wall_seconds']}s, {soak['workers']} workers)"
    )
    for failure in soak["failures"]:
        print(f"  FAIL {failure}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes; gate against the committed "
                             "BENCH_shard.json, no rewrite")
    args = parser.parse_args()

    result = run(quick=args.quick)
    emit(result)
    out = REPO_ROOT / "BENCH_shard.json"

    if result["soak"]["failures"]:
        print(f"\nhandoff soak found {len(result['soak']['failures'])} "
              "failures")
        sys.exit(1)

    if args.quick:
        committed = json.loads(out.read_text())["speedup_quick_baseline"]
        top = max(committed, key=int)
        floor = committed[top] * QUICK_FLOOR
        got = result["scaling"]["speedup_vs_g1"][top]
        verdict = "PASS" if got >= floor else "FAIL"
        print(f"\n[{verdict}] G={top} speedup {got:.2f}x "
              f"(committed {committed[top]:.2f}x, floor {floor:.2f}x)")
        if got < floor:
            sys.exit(1)
        return

    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out}")
    achieved = result["scaling"]["speedup_vs_g1"]["4"]
    print(f"G=4 steady-write speedup vs G=1: {achieved:.2f}x "
          f"(target >= {SCALING_TARGET}x)")
    if achieved < SCALING_TARGET:
        sys.exit(1)


if __name__ == "__main__":
    main()
