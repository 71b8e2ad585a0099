"""Linearizability checker benchmark: iterative engine vs the reference.

Three workloads:

* ``deep_contention`` — bursts of concurrent single-key writes followed
  by a read; the classic Wing & Gong worst case.  The reference checker
  pays an O(n) min-response re-scan and an O(depth) chosen-tuple copy
  per configuration; the iterative engine pays O(1) for both and the
  quiescence segmenter confines each burst to its own search.
* ``soak_shaped`` — a long multi-key history shaped like chaos-soak
  output (several clients, overlapping bursts, natural quiescence gaps),
  checked with ``partition_by_key=True`` on both engines.  This is the
  workload the ≥5x acceptance target is measured on.
* ``soak_end_to_end`` — whole nemesis schedules (simulate **and**
  verify) per minute, serial vs the process-pool fan-out the chaos CLI
  uses.  Verdict streams are identical either way; only wall-clock
  changes.

Results, the reference numbers, and the speedups are written to
``BENCH_verify.json`` at the repository root.

Run with ``PYTHONPATH=src python benchmarks/bench_verify.py``
(``--quick`` runs a reduced version suitable for CI smoke checks and
fails on a >3x regression against the committed speedups).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.analysis.parallel import default_workers, parallel_imap
from repro.chaos.cli import SoakCell, _soak_cell
from repro.objects.kvstore import KVStoreSpec, delete, get, increment, put
from repro.objects.register import RegisterSpec, read, write
from repro.verify._reference import check_linearizable_reference
from repro.verify.history import History, HistoryEntry
from repro.verify.linearizability import check_linearizable

from _common import Table, banner

REPO_ROOT = Path(__file__).resolve().parent.parent

#: CI smoke floor: the --quick run must keep at least a third of the
#: committed full-run speedup on each checker workload.
REGRESSION_FACTOR = 3.0


# ----------------------------------------------------------------------
# Workload generators (deterministic)
# ----------------------------------------------------------------------


def deep_contention_history(width: int, groups: int) -> History:
    """``groups`` bursts of ``width`` fully-concurrent register writes,
    each burst closed by a read observing one of them."""
    entries = []
    t = 0.0
    pid = 0
    for _ in range(groups):
        for w in range(width):
            entries.append(HistoryEntry(
                op=write(w), response=None,
                invoked_at=t, responded_at=t + 5.0, pid=pid,
            ))
            pid += 1
        entries.append(HistoryEntry(
            op=read(), response=width - 1,
            invoked_at=t + 6.0, responded_at=t + 7.0, pid=pid,
        ))
        pid += 1
        t += 10.0
    return History(entries)


def soak_shaped_history(n_ops: int, n_keys: int, seed: int,
                        stretch_max: float = 40.0) -> History:
    """A linearizable-by-construction multi-key history with the shape of
    a chaos-soak run: sequential execution, stretched invocations that
    create concurrency bursts, and quiescence gaps between bursts."""
    rng = random.Random(f"bench-verify:{seed}")
    spec = KVStoreSpec()
    state = spec.initial_state()
    keys = [f"k{i}" for i in range(n_keys)]
    entries = []
    t = 0.0
    for i in range(n_ops):
        key = rng.choice(keys)
        roll = rng.random()
        if roll < 0.30:
            op = put(key, rng.randrange(8))
        elif roll < 0.60:
            op = increment(key)
        elif roll < 0.72:
            op = delete(key)
        else:
            op = get(key)
        state, response = spec.apply(state, op)
        # Stretch half the invocations backwards so bursts of ops
        # overlap; leave the other half sequential (quiescence gaps).
        stretch = rng.uniform(0.0, stretch_max) if rng.random() < 0.5 else 0.0
        entries.append(HistoryEntry(
            op=op, response=response,
            invoked_at=max(0.0, t - stretch),
            responded_at=t + 1.0, pid=i,
        ))
        t += rng.choice([0.5, 1.0, 2.0, 6.0])
    return History(entries)


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------


def _checks_per_sec(check, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = check()
        best = min(best, time.perf_counter() - t0)
        assert result.ok and not getattr(result, "undecided", False)
    return 1.0 / best


def bench_deep_contention(quick: bool) -> dict:
    width, groups = (6, 30) if quick else (6, 100)
    spec = RegisterSpec(initial=0)
    history = deep_contention_history(width, groups)
    return {
        "reference": _checks_per_sec(
            lambda: check_linearizable_reference(spec, history)),
        "current": _checks_per_sec(
            lambda: check_linearizable(spec, history)),
        "size": len(list(history)),
    }


def bench_soak_shaped(quick: bool) -> dict:
    n_ops, n_keys = (1200, 4) if quick else (2800, 4)
    history = soak_shaped_history(n_ops, n_keys, seed=0)
    spec = KVStoreSpec()
    return {
        "reference": _checks_per_sec(
            lambda: check_linearizable_reference(
                spec, history, partition_by_key=True)),
        "current": _checks_per_sec(
            lambda: check_linearizable(
                spec, history, partition_by_key=True)),
        "size": n_ops,
    }


def bench_soak_end_to_end(quick: bool) -> dict:
    schedules = 4 if quick else 12
    cells = [SoakCell("cht", i) for i in range(schedules)]

    t0 = time.perf_counter()
    serial = [_soak_cell(cell) for cell in cells]
    dt_serial = time.perf_counter() - t0

    workers = min(default_workers(), schedules)
    t0 = time.perf_counter()
    parallel = list(parallel_imap(_soak_cell, cells, workers=workers))
    dt_parallel = time.perf_counter() - t0

    assert [r.ok for r in serial] == [r.ok for r in parallel]
    assert all(r.ok for r in serial), serial
    return {
        "serial": schedules / dt_serial * 60.0,
        "parallel": schedules / dt_parallel * 60.0,
        "schedules": schedules,
        "workers": workers,
    }


def run(quick: bool = False) -> dict:
    deep = bench_deep_contention(quick)
    soak = bench_soak_shaped(quick)
    e2e = bench_soak_end_to_end(quick)
    result = {
        "quick": quick,
        "workload": {
            "deep_contention": f"{deep['size']}-op register history, "
                               "bursts of fully-concurrent writes",
            "soak_shaped": f"{soak['size']}-op multi-key KV history, "
                           "partitioned check, soak-like concurrency",
            "soak_end_to_end": f"{e2e['schedules']} whole nemesis "
                               "schedules (simulate + verify)",
        },
        "reference": {
            "deep_contention_checks_per_sec": round(deep["reference"], 2),
            "soak_shaped_checks_per_sec": round(soak["reference"], 2),
            "soak_serial_schedules_per_min": round(e2e["serial"], 1),
        },
        "current": {
            "deep_contention_checks_per_sec": round(deep["current"], 2),
            "soak_shaped_checks_per_sec": round(soak["current"], 2),
            "soak_parallel_schedules_per_min": round(e2e["parallel"], 1),
        },
        "speedup": {
            "deep_contention": round(deep["current"] / deep["reference"], 2),
            "soak_shaped": round(soak["current"] / soak["reference"], 2),
            "soak_parallel_vs_serial": round(e2e["parallel"] / e2e["serial"],
                                             2),
        },
        "soak_workers": e2e["workers"],
    }
    if not quick:
        # Also record the --quick-size speedups so the CI smoke job has a
        # like-for-like baseline (quick workloads are smaller and show
        # smaller speedups than the headline numbers above).
        q_deep = bench_deep_contention(quick=True)
        q_soak = bench_soak_shaped(quick=True)
        result["speedup_quick_baseline"] = {
            "deep_contention": round(q_deep["current"] / q_deep["reference"],
                                     2),
            "soak_shaped": round(q_soak["current"] / q_soak["reference"], 2),
        }
    return result


def emit(result: dict) -> None:
    mode = "quick" if result["quick"] else "full"
    print(banner(f"linearizability checker: iterative engine vs reference "
                 f"({mode})"))
    table = Table(["workload", "reference", "current", "speedup"])
    table.add_row(
        "deep contention (checks/s)",
        result["reference"]["deep_contention_checks_per_sec"],
        result["current"]["deep_contention_checks_per_sec"],
        f'{result["speedup"]["deep_contention"]:.2f}x',
    )
    table.add_row(
        "soak-shaped (checks/s)",
        result["reference"]["soak_shaped_checks_per_sec"],
        result["current"]["soak_shaped_checks_per_sec"],
        f'{result["speedup"]["soak_shaped"]:.2f}x',
    )
    table.add_row(
        "soak end-to-end (sched/min)",
        result["reference"]["soak_serial_schedules_per_min"],
        result["current"]["soak_parallel_schedules_per_min"],
        f'{result["speedup"]["soak_parallel_vs_serial"]:.2f}x '
        f'({result["soak_workers"]} workers)',
    )
    print(table.render())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes; regression check against the "
                             "committed BENCH_verify.json, no rewrite")
    args = parser.parse_args()

    result = run(quick=args.quick)
    emit(result)
    out = REPO_ROOT / "BENCH_verify.json"

    if args.quick:
        # CI smoke: compare against the committed quick-size baseline.  A
        # quick run on shared hardware is noisy, so only a >3x collapse
        # of a checker speedup fails the job.
        committed = json.loads(out.read_text())["speedup_quick_baseline"]
        ok = True
        for key in ("deep_contention", "soak_shaped"):
            floor = committed[key] / REGRESSION_FACTOR
            got = result["speedup"][key]
            verdict = "PASS" if got >= floor else "FAIL"
            if got < floor:
                ok = False
            print(f"[{verdict}] {key}: {got:.2f}x "
                  f"(committed {committed[key]:.2f}x, floor {floor:.2f}x)")
        if not ok:
            sys.exit(1)
        return

    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {out}")
    target = 5.0
    achieved = result["speedup"]["soak_shaped"]
    print(f"soak-shaped speedup vs reference: {achieved:.2f}x "
          f"(target >= {target}x)")
    if achieved < target:
        sys.exit(1)


if __name__ == "__main__":
    main()
