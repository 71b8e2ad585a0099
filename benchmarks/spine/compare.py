"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/spine/compare.py base.json new.json

One row per (workload, metric): base, new, new/base, the bound applied
and a verdict.  A side's value is the median over its runs of that
workload; its noise is the quartile spread of those runs, or of the
one run's windows when there is a single run.

``BENCHMARK.json`` holds one bound per metric, set against the
workload on which that metric is noisiest (the driver's gate must not
trip on noise).  Most pairs are steadier than that, so a row is judged
by the finest bound its own data resolve: the larger of ``FINE`` and
the two sides' noise, and never more than the metric's bound.

``improved`` / ``regressed``
    the median moved in that direction by more than the bound applied
``unchanged``
    it moved by less
``unresolved``
    either side's noise exceeds the metric's bound in ``BENCHMARK.json``,
    so the files cannot tell

Per-layer metrics carry no bound and get no verdict.  Printed first:
more failed operations or a failed correctness check on the new side,
and a change in simulated behaviour — a run (traced or not) whose
canonical digest differs from ``digests.json``, or whose own digest
differs from the base file's run of the same workload and seed.  Exit
code 1 on any of those or on any regression.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Optional

from common import Contract, median, quartile_spread

FINE = 0.10  # ISSUE 11's bound on throughput, median latency, CPU, memory


def load(path: str) -> dict:
    """(workload, traced) -> list of run records."""
    data = json.loads(open(path).read())
    grouped: dict = defaultdict(list)
    for run in data.get("runs", [data]):
        grouped[(run["workload"], run["trace"])].append(run)
    return grouped


def side(runs: list, name: str) -> tuple:
    """(median value, noise) of metric ``name`` over one side's runs."""
    entries = [r["metrics"][name] for r in runs if name in r["metrics"]]
    values = [e["value"] for e in entries]
    if len(values) > 1:
        noise = quartile_spread(values)
    elif entries:
        noise = quartile_spread(entries[0].get("windows", []))
    else:
        noise = 0.0
    return median(values), noise


def resolved_bound(noise: float, gate: float) -> Optional[float]:
    """The finest bound the two sides' own noise lets a row be judged
    by; None when not even the metric's bound in BENCHMARK.json is."""
    return None if noise > gate else max(min(FINE, gate), noise)


def verdict(base: float, new: float, better: str,
            bound: Optional[float]) -> str:
    if bound is None:
        return "unresolved"
    if not base:
        return "unchanged" if not new else "unresolved"
    worse = (new - base) / base * (1 if better == "lower" else -1)
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def alarms(base: dict, new: dict) -> list:
    out = []
    for key, runs in sorted(new.items()):
        def failed_frac(rs: list) -> float:
            return sum(r["failed"] for r in rs) / max(
                sum(r["attempted"] for r in rs), 1)
        for run in runs:
            for message in run["errors"]:
                out.append(f"{key[0]}: INCORRECT: {message}")
        if key in base and failed_frac(runs) > failed_frac(base[key]):
            out.append(f"{key[0]}: failed ops rose from "
                       f"{failed_frac(base[key]):.2%} to "
                       f"{failed_frac(runs):.2%}")
        if any(r["extra"].get("canonical_digest", {}).get("changed")
               for r in runs):
            out.append(f"{key[0]}: sim.digest_changed = 1 — simulated "
                       "behaviour differs from the recorded digest")
        was = {r["seed"]: r["extra"].get("digest") for r in base.get(key, [])}
        for run in runs:
            if was.get(run["seed"], run["extra"].get("digest")) != \
                    run["extra"].get("digest"):
                out.append(f"{key[0]}: seed {run['seed']}: digest differs "
                           "from the base file's — simulated behaviour "
                           "changed")
    return out


def main(argv: list) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    contract = Contract()
    base, new = load(argv[0]), load(argv[1])
    loud = alarms(base, new)
    for line in loud:
        print(f"!! {line}")
    regressions = 0
    print(f"{'workload':18s} {'metric':36s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(new)):
        names = contract.per_layer if key[1] else contract.end_to_end
        for name, spec in names.items():
            a, noise_a = side(base[key], name)
            b, noise_b = side(new[key], name)
            if not a and not b:
                continue  # a layer that is idle on this workload
            ratio = f"{b / a:9.3f}" if a else f"{'-':>9s}"
            if "bound" in spec:
                bound = resolved_bound(max(noise_a, noise_b), spec["bound"])
                word = verdict(a, b, spec["better"], bound)
                regressions += word == "regressed"
                shown = f"{bound or spec['bound']:6.0%}  {word}"
            else:
                shown = f"{'':6s}  -"
            print(f"{key[0]:18s} {name:36s} {a:12.4f} {b:12.4f} {ratio} "
                  f"{shown}")
    return 1 if regressions or loud else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
