"""The spine benchmark's one command.

One workload, in this process (what the driver calls)::

    python3 benchmarks/spine/run.py --workload net_write --seed 1 \\
        --seconds 10 --trace 0

measures for ``--seconds``, checks the outputs, prints every metric with
unit, sample count and bound, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 1 when a correctness check failed.

Every workload, each in a fresh subprocess (so memory is per workload)::

    python3 benchmarks/spine/run.py [--seed S] [--seconds N] [--traced]
        [--repeat N] [--smoke] [--out results.json]

``--traced`` adds the traced run of each workload, ``--repeat N`` runs
N sets (order reversed on odd sets) and prints the spread of every
end-to-end metric next to its bound, ``--out`` writes every run in one
file for ``compare.py``.  ``--record-digests`` rewrites ``digests.json``
after a change that is meant to alter simulated behaviour.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import (HERE, Contract, Result, quartile_spread,  # noqa: E402
                    require_source, scratch_dir)

SCHEMA = "spine/1"


def run_workload(args: argparse.Namespace, contract: Contract) -> int:
    require_source()
    import netload
    import simload

    result = Result(args.workload, args.seed, args.seconds, bool(args.trace))
    result.startup_s = time.perf_counter() - _PROCESS_START
    module = netload if args.workload.startswith("net_") else simload
    module.run(args.workload, args.seed, args.seconds, bool(args.trace),
               result)
    if not result.attempted:
        result.error("the workload attempted no operation")
    record = result.to_dict(contract)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print_run(record, contract)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": max(record["attempted"], 1),
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def print_run(record: dict, contract: Contract) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"# {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} {kind}")
    for name, m in record["metrics"].items():
        bound = contract.spec(name).get("bound")
        shown = f"±{bound:.0%}" if bound is not None else ""
        print(f"  {name:40s} {m['value']:14.4f} {m['unit']:6s} "
              f"n={m['n']:<8d} {shown}")
    if record["extra"].get("canonical_digest", {}).get("changed"):
        print(f"!! {record['workload']}: sim.digest_changed = 1 — simulated "
              "behaviour differs from the digest recorded in digests.json")
    for message in record["errors"]:
        print(f"INCORRECT: {message}")


# ----------------------------------------------------------------------
# All workloads, one subprocess each
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, trace: int,
              tmp: Path) -> dict:
    out = tmp / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if not out.is_file():
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload}: run ended with code "
                         f"{proc.returncode} and no result")
    return json.loads(out.read_text())


def run_sets(args: argparse.Namespace, contract: Contract) -> int:
    workloads = contract.workloads
    runs = []
    with scratch_dir("sets") as tmp:
        for rep in range(args.repeat):
            order = workloads if rep % 2 == 0 else workloads[::-1]
            for workload in order:
                for trace in ((0, 1) if args.traced else (0,)):
                    record = run_child(workload, args.seed + rep,
                                       args.seconds, trace, tmp)
                    record["set"] = rep
                    runs.append(record)
                    print_run(record, contract)
    if args.repeat > 1:
        print_spread(runs, contract)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": SCHEMA, "claim": None, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


def record_digests() -> int:
    """Store the canonical seed's digests as the ones later runs are
    compared against (``sim.digest_changed``)."""
    with scratch_dir("digests") as tmp:
        digests = {
            workload: run_child(workload, 0, 1.0, 0, tmp)["extra"][
                "canonical_digest"]["digest"]
            for workload in ("sim_write", "sim_chaos")}
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(json.dumps(digests, indent=1))
    return 0


def print_spread(runs: list, contract: Contract) -> None:
    """Per end-to-end metric and workload over the sets: median,
    quartiles, (max - min) / median and quartile spread against the
    bound — the evidence behind the bounds in BENCHMARK.json."""
    print(f"\n{'workload':18s} {'metric':14s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'range/med':>9s} {'iqr/med':>8s} {'bound':>6s}")
    for workload in contract.workloads:
        for name, spec in contract.end_to_end.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if r["workload"] == workload and not r["trace"]]
            if len(values) < 2:
                continue
            q1, mid, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:18s} {name:14s} {mid:11.4f} {q1:11.4f} "
                  f"{q3:11.4f} {(max(values) - min(values)) / mid:9.1%} "
                  f"{quartile_spread(values):8.1%} {spec['bound']:6.0%}")


def main() -> int:
    contract = Contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=contract.workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(contract.run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run of each workload")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="about one second per workload")
    parser.add_argument("--out", help="write the full result(s) as JSON")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1.0
    # SIGTERM must unwind like Ctrl-C so servers and scratch are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.record_digests:
        return record_digests()
    if args.workload:
        return run_workload(args, contract)
    return run_sets(args, contract)


if __name__ == "__main__":
    sys.exit(main())
