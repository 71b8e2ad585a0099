"""Shared plumbing of the spine benchmark: paths, the metric contract,
the result record, order statistics, process accounting.

Everything the benchmark writes goes under ``<checkout>/.bench_tmp`` so
a run never touches anything outside its checkout.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"


def require_source() -> None:
    """Put ``src/`` on the import path, or exit: the benchmark measures
    the program in its checkout and has nothing to run without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"spine benchmark: no program to measure ({SRC}/repro is "
            "missing); run it from a full checkout\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Contract:
    """``BENCHMARK.json``: the workload names and, per metric, its unit,
    direction and (end-to-end only) regression bound."""

    def __init__(self) -> None:
        data = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.run_seconds: int = data["run_seconds"]
        self.workloads = [w["name"] for w in data["workloads"]]
        self.end_to_end = {m["name"]: m for m in data["end_to_end"]}
        self.per_layer = {m["name"]: m for m in data["per_layer"]}

    def spec(self, name: str) -> dict:
        return self.end_to_end.get(name) or self.per_layer[name]


class Result:
    """One run of one workload: verdict, op counts, named metrics.

    ``put`` records a metric's value with the number of samples behind
    it and, where it is a median over windows, the window values (the
    comparison tool reads its noise estimate from them).  ``extra`` is
    free-form context that is not a contract metric: digests, window
    lengths, per-trial figures.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.startup_s = 0.0  # process start -> workload start (run.py)
        self.env = environment(seed)  # taken before the run loads the host
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}
        self.extra: dict = {}

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0

    def error(self, message: str) -> None:
        if len(self.errors) < 20:  # the first few explain the rest
            self.errors.append(message)

    def put(self, name: str, value: float, n: int = 1,
            windows: Optional[Sequence[float]] = None) -> None:
        entry = {"value": float(value), "n": int(n)}
        if windows is not None:
            entry["windows"] = [float(w) for w in windows]
        self.metrics[name] = entry

    def put_median(self, name: str, windows: Sequence[float],
                   n: Optional[int] = None) -> None:
        self.put(name, median(windows),
                 n=len(windows) if n is None else n, windows=windows)

    def to_dict(self, contract: Contract) -> dict:
        names = contract.per_layer if self.trace else contract.end_to_end
        metrics = {}
        for name, spec in names.items():
            # A layer that does no work on this workload reads 0.
            entry = dict(self.metrics.get(name, {"value": 0.0, "n": 0}))
            entry["unit"] = spec["unit"]
            metrics[name] = entry
        return {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": int(self.trace),
            "correct": self.correct, "errors": self.errors,
            "attempted": self.attempted, "failed": self.failed,
            "metrics": metrics, "extra": self.extra,
            "env": self.env,
        }


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0.0 on no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# ----------------------------------------------------------------------
# Process accounting
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> Optional[float]:
    """CPU time (user + system) of every thread of ``pid``; None once
    the process is gone.  ``schedstat`` counts nanoseconds where
    ``/proc/<pid>/stat`` counts 10 ms ticks, too coarse for the
    low-rate failover windows; ``stat`` is the fallback."""
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def peak_rss_mb() -> float:
    """Largest resident set among this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _head_commit() -> str:
    """HEAD's commit id read from ``.git``; "unknown" in the driver's
    checkout, which is not a git repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _head_commit(),
        "load_1min": os.getloadavg()[0],
        "seed": seed,
    }


# ----------------------------------------------------------------------
# Scratch space inside the checkout
# ----------------------------------------------------------------------
@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under ``.bench_tmp``, removed on exit."""
    path = TMP_ROOT / f"{prefix}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # succeeds only when no other run uses it
        except OSError:
            pass
